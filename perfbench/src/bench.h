// Shared pieces of the sqlcheck benchmark runner: run options, the result
// record every workload fills in, the in-memory span tracer, small
// statistics helpers, and the on-disk corpus tree that repo_scan and the
// traced layer probes scan.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "rules/rule.h"

namespace perfbench {

// ------------------------------- run options --------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;         ///< Tiny inputs: a fast end-to-end check.
  std::string server_bin;     ///< Path of the sqlcheck-server binary.
  std::string work_dir;       ///< Working space for trees and stores.
  std::string out_dir;        ///< Results and span files land here.
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
  /// tenant_stream constants (fixed on the command line, never derived).
  std::vector<double> ladder_rps;
  double reference_rps = 0.0;
  double limit_ms = 0.0;
};

// --------------------------------- results ----------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  ///< Sample count behind a percentile (0 = n/a).
};

/// What one workload run produced. `metrics` are the contract metrics of the
/// mode (end-to-end untraced, per-layer traced); `extra` are the
/// workload-specific figures printed for people and kept in the result file.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< First few mismatch descriptions.
  std::vector<std::string> notes;   ///< Human-readable detail lines.
  std::vector<Metric> metrics;
  std::vector<Metric> extra;

  void Fail(std::string why);
  void Add(std::string name, double value, std::string unit, uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Extra(std::string name, double value, std::string unit, uint64_t samples = 0) {
    extra.push_back({std::move(name), value, std::move(unit), samples});
  }
};

// -------------------------------- statistics --------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }
/// The tail percentile reported for n samples: the highest one with at
/// least ten samples beyond it (1 - 10/n), capped at p99 and floored at the
/// median.
double TailQuantileLevel(size_t n);

/// Peak resident set size of this process, in MiB.
double SelfPeakRssMb();

/// FNV-1a 64 over bytes, for output identity checks.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 1469598103934665603ull);

// ---------------------------------- tracing ---------------------------------

/// In-memory span recorder. Spans nest through an explicit stack (the
/// benchmark's layer calls are single-threaded); request spans of the
/// open-loop generator are recorded with explicit times and a request id.
/// Disabled tracers record nothing, so untraced code paths pay one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(std::string name, uint64_t request = 0);
  void End(int id);
  /// Records a finished span under the current open span.
  int Record(std::string name, int64_t start_ns, int64_t end_ns, uint64_t request = 0);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self seconds per span name over the subtree rooted at `root`: each
  /// span's duration minus the union of its children's intervals.
  std::map<std::string, double> SelfSeconds(int root) const;
  /// One JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.Begin(std::move(name), request) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ------------------------------- corpus trees -------------------------------

/// A directory tree of generated repositories. Every file has a base
/// content; a seeded few carry an alternate content. `Write(false)` lays
/// down the base state, `Write(true)` switches the alternates in.
struct TreeFile {
  std::string rel_path;
  std::string base;
  std::string alternate;  ///< Empty = never rewritten.
};

struct Tree {
  std::string root;
  std::vector<TreeFile> files;

  bool Write(bool alternate, bool only_changed) const;
};

/// Removes `path` recursively; ignores a missing path.
void RemoveAll(const std::string& path);

/// Filesystem type name (statfs) of the filesystem holding `path`.
std::string FilesystemOf(const std::string& path);

// ------------------------------ layer probes --------------------------------

/// The inputs every per-layer probe runs over: one workload's statements in
/// the shapes the layers take them (a script, single statements, host
/// sources, a tree on disk).
struct LayerInputs {
  std::string script;                    ///< All statements, `;\n`-joined.
  std::vector<std::string> statements;   ///< Same statements, one each.
  std::vector<std::string> host_sources; ///< Host-language files with embedded SQL.
  const Tree* tree = nullptr;            ///< Written in its base state.
  std::string store_path;                ///< Store file the probes may overwrite.
};

// ------------------------------ server and load ------------------------------

/// A `sqlcheck-server --port 0` child process with default flags.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and waits for its "listening" line.
  bool Start(const std::string& binary, std::string* error);
  /// SIGTERM + wait; records the child's peak RSS. Idempotent.
  void Stop();
  uint16_t port() const { return port_; }
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  int pid_ = -1;
  uint16_t port_ = 0;
  double peak_rss_mb_ = 0.0;
};

/// How a tenant's statements become requests: a JSON `snapshot` after every
/// `snapshot_every` checks, and an in-stream `reset` after every
/// `reset_every` checks (0 = never), which bounds each session's history.
struct StreamShape {
  int snapshot_every = 0;
  int reset_every = 0;
};

/// What one open-loop step measured. Latencies are from each request's due
/// time to its terminal response line.
struct StepStats {
  double rate_rps = 0.0;
  std::vector<double> check_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> late_ms;  ///< How late the generator sent each request.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double drain_ms = 0.0;  ///< Last response after the last due time.
  uint64_t response_bytes = 0;
  double latency_sum_s = 0.0;  ///< Sum of every request's latency.
  /// Per tenant, per check request: the `findings` count of its terminal.
  std::vector<std::vector<int64_t>> check_findings;
  std::vector<std::string> errors;  ///< First few failure descriptions.

  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// The load generator's side of the tenants: one connection per tenant,
/// driven open-loop from a single thread.
class TenantClient {
 public:
  TenantClient() = default;
  ~TenantClient() { Close(); }
  TenantClient(const TenantClient&) = delete;
  TenantClient& operator=(const TenantClient&) = delete;

  bool Connect(uint16_t port, int tenants, std::string* error);
  void Close();
  /// Closed-loop `reset` of every tenant session.
  bool ResetAll(std::string* error);
  /// Streams `statements[t]` to tenant t as one-statement `check` requests
  /// shaped by `shape`, at `rate_rps` requests per second across all
  /// tenants (round-robin).
  StepStats RunStep(const std::vector<std::vector<std::string>>& statements,
                    const StreamShape& shape, double rate_rps, Tracer& tracer);
  /// Closed-loop JSON snapshot of one tenant; the embedded document.
  bool SnapshotDocument(int tenant, std::string* document, std::string* error);
  /// The server-wide `requests_shed` gauge, via the `stats` op.
  bool ShedCount(uint64_t* shed, std::string* error);

 private:
  bool Exchange(int tenant, const std::string& line, std::string* terminal,
                std::string* error);
  std::vector<int> fds_;
  std::vector<std::string> inbuf_;
};

/// The live-server probe every traced run includes: one open-loop step of
/// the workload's statements at the reference rate, plus the same request
/// lines replayed through the in-process handler. Records server.* and
/// loadgen.* spans and counts.
void RunServerProbe(TenantClient& client, const LayerInputs& inputs, double rate_rps,
                    Tracer& tracer, std::map<std::string, double>* counts,
                    RunResult* result);

// --------------------------------- workloads --------------------------------

/// One batch_lint operation: a fresh SqlCheck with CLI-default options
/// (fixes on, serial), AddScript, Run, ToJson, each call under its own span.
struct LintRep {
  double total_s = 0.0;
  double report_s = 0.0;  ///< Run() + ToJson: the report over ingested statements.
  std::string json;
  std::vector<sqlcheck::Detection> detections;  ///< When asked for.
};
LintRep RunLintRep(const std::string& script, bool keep_detections, Tracer& tracer);

RunResult RunBatchLint(const Options& options);
RunResult RunRepoScan(const Options& options);
RunResult RunTenantStream(const Options& options);

/// The workload's end-to-end operation, run once per traced pass with spans
/// off and once with them on, back to back; the difference is the tracing
/// overhead. It records spans only through the tracer it is given and
/// returns its own time in seconds, timed as the untraced run times it.
using TracedOp = std::function<double(Tracer&, TenantClient&)>;

/// The traced run every workload shares: passes of the layer probes plus
/// the live-server probe until the time budget is spent; per-layer metrics,
/// tracing overhead and the span file.
RunResult RunTracedPasses(const Options& options, const LayerInputs& inputs,
                          const TracedOp& op);

}  // namespace perfbench
