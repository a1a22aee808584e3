// The sqlcheck benchmark runner: runs one workload from a seed for a fixed
// time, checks its outputs, and prints its metrics — a table for people,
// then one JSON object as the last line of standard output:
//
//   perfbench_runner --workload batch_lint|repo_scan|tenant_stream
//                    --seed N --seconds S --trace 0|1
//                    --ladder R1,R2,... --reference-rps R --limit-ms L
//                    --work-dir DIR --out-dir DIR [--server PATH]
//                    [--git-rev REV] [--source-digest HEX] [--smoke]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. Every result
// is also written, with its provenance, to <out-dir>/<workload>-seed<N>-trace<T>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_SERVER_BIN
#define PERFBENCH_SERVER_BIN ""
#endif

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload batch_lint|repo_scan|tenant_stream "
               "--seed N --seconds S --trace 0|1 --ladder R1,R2,... --reference-rps R "
               "--limit-ms L --work-dir DIR --out-dir DIR [--server PATH] "
               "[--git-rev REV] [--source-digest HEX] [--smoke]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  o->server_bin = PERFBENCH_SERVER_BIN;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      o->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (arg == "--workload") {
      o->workload = v;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      o->trace = v == "1";
    } else if (arg == "--server") {
      o->server_bin = v;
    } else if (arg == "--work-dir") {
      o->work_dir = v;
    } else if (arg == "--out-dir") {
      o->out_dir = v;
    } else if (arg == "--git-rev") {
      o->git_rev = v;
    } else if (arg == "--source-digest") {
      o->source_digest = v;
    } else if (arg == "--ladder") {
      for (size_t pos = 0; pos <= v.size();) {
        size_t comma = v.find(',', pos);
        if (comma == std::string::npos) comma = v.size();
        o->ladder_rps.push_back(std::atof(v.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    } else if (arg == "--reference-rps") {
      o->reference_rps = std::atof(v.c_str());
    } else if (arg == "--limit-ms") {
      o->limit_ms = std::atof(v.c_str());
    } else {
      return false;
    }
  }
  return true;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

std::string MetricsObject(const std::vector<Metric>& metrics, bool with_samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (with_samples && m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-34s %16.6g %-6s (n=%llu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  if (options.workload != "batch_lint" && options.workload != "repo_scan" &&
      options.workload != "tenant_stream") {
    return Usage("unknown --workload");
  }
  if (options.seconds <= 0 || options.ladder_rps.empty() || options.reference_rps <= 0 ||
      options.limit_ms <= 0) {
    return Usage("--seconds, --ladder, --reference-rps and --limit-ms must be positive");
  }
  // Timings from an unoptimized build would be recorded as if they were the
  // program's: refuse them outright.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench_runner: refusing to record from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (options.work_dir.empty() || options.out_dir.empty()) {
    return Usage("--work-dir and --out-dir are required");
  }
  std::error_code ec;
  fs::create_directories(options.work_dir, ec);
  fs::create_directories(options.out_dir, ec);
  const std::string filesystem = FilesystemOf(options.work_dir);

  RunResult result;
  if (options.workload == "batch_lint") {
    result = RunBatchLint(options);
  } else if (options.workload == "repo_scan") {
    result = RunRepoScan(options);
  } else {
    result = RunTenantStream(options);
  }
  RemoveAll(options.work_dir);

  bool finite = true;
  for (const Metric& m : result.metrics) finite = finite && std::isfinite(m.value);
  for (Metric& m : result.extra) {
    if (!std::isfinite(m.value)) m.value = 0.0;
  }
  if (!finite) result.Fail("a metric is not a finite number");
  if (result.attempted == 0) result.attempted = 1;
  const bool correct = result.failed == 0;
  const double error_rate =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  result.Extra("error_rate", error_rate, "ratio", result.attempted);

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("sqlcheck benchmark: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("provenance: build=%s compiler=%s git_rev=%s source_digest=%s nproc=%u "
              "work_fs=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, options.git_rev.c_str(),
              options.source_digest.c_str(), nproc, filesystem.c_str());
  PrintTable(options.trace ? "per-layer metrics:" : "end-to-end metrics:", result.metrics);
  PrintTable("workload figures:", result.extra);
  for (const std::string& n : result.notes) std::printf("%s\n", n.c_str());
  for (const std::string& e : result.errors) std::printf("error: %s\n", e.c_str());
  std::printf("correct=%s attempted=%llu failed=%llu\n", correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));

  std::string provenance =
      "{\"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"git_rev\": " + JsonString(options.git_rev) +
      ", \"source_digest\": " + JsonString(options.source_digest) +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + JsonNumber(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"work_filesystem\": " + JsonString(filesystem) + "}";
  std::string record = "{\"workload\": " + JsonString(options.workload) +
                       ", \"provenance\": " + provenance +
                       ", \"correct\": " + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(result.attempted) +
                       ", \"failed\": " + std::to_string(result.failed) +
                       ", \"metrics\": " + MetricsObject(result.metrics, true) +
                       ", \"extra\": " + MetricsObject(result.extra, true) + "}\n";
  std::string path = options.out_dir + "/" + options.workload + "-seed" +
                     std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") +
                     ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(record.c_str(), f);
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsObject(result.metrics, false).c_str());
  std::fflush(stdout);
  return 0;
}
