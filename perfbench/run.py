#!/usr/bin/env python3
"""Run one workload of the sqlcheck benchmark.

Builds the benchmark package in perfbench/ -- the sqlcheck library, the
shipped sqlcheck-server and the benchmark runner -- from this source tree in
Release, then runs it. From the root of a checkout:

    python3 perfbench/run.py --ladder 40000,45000,... --reference-rps 20000 \\
        --limit-ms 25 --workload batch_lint --seed 1 --seconds 25 --trace 0

Workloads: batch_lint, repo_scan, tenant_stream (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; build output goes to
standard error. Results with their provenance, and the span files of traced
runs, are kept under .bench_build/perfbench/results/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the program and benchmark sources: the build's identity
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_runner"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch_lint", "repo_scan", "tenant_stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--ladder", required=True,
                        help="tenant_stream offered rates, requests/s, comma-separated")
    parser.add_argument("--reference-rps", required=True,
                        help="tenant_stream rate at which latency is reported")
    parser.add_argument("--limit-ms", required=True,
                        help="tenant_stream check p99 limit for the ladder")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "core", "sqlcheck.h"))):
        fail("no sqlcheck sources next to perfbench/ (expected CMakeLists.txt and src/)")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    results = os.path.join(BUILD, "results")
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--ladder", args.ladder, "--reference-rps", args.reference_rps,
           "--limit-ms", args.limit_ms, "--work-dir", work, "--out-dir", results,
           "--git-rev", git_rev(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
