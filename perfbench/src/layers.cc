// Per-layer probes: each layer's public entry points called over one
// workload's statements, every call group under its own span. The spans are
// recorded from here, around the calls; nothing inside the program is
// instrumented.
#include <sys/stat.h>

#include <filesystem>
#include <unordered_set>

#include "analysis/context.h"
#include "bench.h"
#include "common/arena.h"
#include "core/emit.h"
#include "core/sqlcheck.h"
#include "fix/fix_engine.h"
#include "persist/fingerprint_store.h"
#include "ranking/model.h"
#include "rules/registry.h"
#include "scan/scanner.h"
#include "sql/extractor.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/splitter.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace sqlcheck;

namespace {

bool HasQueryCheck(AntiPattern type) {
  // These rules implement only CheckData, which runs over the profiles of an
  // attached database; the benchmark leaves the data analyzer out, so their
  // per-rule time would be an empty loop.
  switch (type) {
    case AntiPattern::kIncorrectDataType:
    case AntiPattern::kDenormalizedTable:
    case AntiPattern::kInformationDuplication:
    case AntiPattern::kRedundantColumn:
    case AntiPattern::kNoDomainConstraint:
      return false;
    default:
      return true;
  }
}

/// Per-rule metric name; only rules that check queries get one.
std::string RuleMetricName(int t) {
  return "rules." + ApSlug(static_cast<AntiPattern>(t)) + "_s";
}

/// Layer metrics reported as seconds per pass, in output order.
const std::vector<std::string>& LayerTimeNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "sql.split_s",       "sql.lex_s",          "sql.parse_s",
        "sql.fingerprint_s", "sql.extract_s",      "analysis.build_s",
        "rules.detect_s"};
    for (int t = 0; t < kAntiPatternCount; ++t) {
      if (HasQueryCheck(static_cast<AntiPattern>(t))) n.push_back(RuleMetricName(t));
    }
    for (const char* s :
         {"ranking.rank_s", "fix.suggest_s", "core.ingest_s", "core.snapshot_s",
          "core.emit_json_s", "core.check_s", "persist.open_s", "persist.probe_s",
          "persist.probe_file_s", "persist.append_s", "persist.commit_s",
          "scan.walk_floor_s", "server.parse_s", "server.handle_check_s",
          "server.handle_snapshot_s", "server.transport_s"}) {
      n.push_back(s);
    }
    return n;
  }();
  return names;
}

/// Layer metrics reported as counts or ratios, with their units.
const std::vector<std::pair<std::string, std::string>>& LayerCountNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"sql.tokens", "count"},
      {"analysis.unique_ratio", "ratio"},
      {"fix.suggested", "count"},
      {"core.fix_cache_hit_ratio", "ratio"},
      {"core.emit_bytes", "bytes"},
      {"persist.hit_ratio", "ratio"},
      {"persist.store_bytes", "bytes"},
      {"scan.analyzed", "count"},
      {"scan.memo_reused", "count"},
      {"scan.files_reused", "count"},
      {"server.shed", "count"},
      {"server.response_bytes", "bytes"},
      {"loadgen.late_p99_ms", "ms"},
  };
  return names;
}

void ProbeSql(const LayerInputs& in, Tracer& tracer, std::map<std::string, double>* counts) {
  {
    Scope s(tracer, "sql.split");
    sql::SplitStatements(in.script);
  }
  {
    Scope s(tracer, "sql.lex");
    sql::TokenBuffer buffer;
    uint64_t tokens = 0;
    for (const std::string& stmt : in.statements) tokens += sql::Lex(stmt, buffer).size();
    (*counts)["sql.tokens"] = static_cast<double>(tokens);
  }
  {
    Arena arena;
    sql::TokenBuffer buffer;
    std::vector<sql::StatementPtr> parsed;
    parsed.reserve(in.statements.size());
    {
      Scope s(tracer, "sql.parse");
      for (const std::string& stmt : in.statements) {
        parsed.push_back(sql::ParseStatement(stmt, &arena, &buffer));
      }
    }
    parsed.clear();  // Trees die before their arena.
  }
  {
    Scope s(tracer, "sql.fingerprint");
    std::string canonical;
    for (const std::string& stmt : in.statements) sql::FingerprintForScan(stmt, &canonical);
  }
  {
    Scope s(tracer, "sql.extract");
    for (const std::string& source : in.host_sources) sql::ExtractEmbeddedSql(source);
  }
}

void ProbeAnalysisRulesFix(const LayerInputs& in, Tracer& tracer,
                           std::map<std::string, double>* counts) {
  ContextBuilder builder;
  builder.AddScript(in.script);
  Context context = [&] {
    Scope s(tracer, "analysis.build");
    return builder.Build(1, nullptr, true);
  }();
  size_t queries = context.queries().size();
  (*counts)["analysis.unique_ratio"] =
      queries == 0 ? 0.0
                   : static_cast<double>(context.query_groups().unique_count()) /
                         static_cast<double>(queries);

  RuleRegistry registry = RuleRegistry::Default();
  DetectorConfig config;
  std::vector<Detection> detections;
  {
    Scope s(tracer, "rules.detect");
    detections = DetectAntiPatterns(context, registry, config);
  }
  {
    Scope per_rule(tracer, "rules.per_rule");
    std::vector<Detection> out;
    for (const auto& rule : registry.rules()) {
      if (!HasQueryCheck(rule->type())) continue;
      std::string name = RuleMetricName(static_cast<int>(rule->type()));
      name.resize(name.size() - 2);  // span name = metric name without "_s"
      Scope s(tracer, std::move(name));
      for (const QueryFacts& facts : context.queries()) {
        rule->CheckQuery(facts, context, config, &out);
      }
      out.clear();
    }
  }
  RankingModel model;
  {
    Scope s(tracer, "ranking.rank");
    model.Rank(detections);
  }
  FixEngine engine(registry);
  std::vector<Fix> fixes;
  {
    Scope s(tracer, "fix.suggest");
    fixes = engine.SuggestFixes(detections, context);
  }
  size_t rewrites = 0;
  for (const Fix& fix : fixes) rewrites += fix.kind == FixKind::kRewrite ? 1 : 0;
  (*counts)["fix.suggested"] = static_cast<double>(rewrites);
}

void ProbeCore(const LayerInputs& in, Tracer& tracer, std::map<std::string, double>* counts) {
  {
    Scope batch(tracer, "core.batch");
    LintRep rep = RunLintRep(in.script, false, tracer);
    (*counts)["core.emit_bytes"] = static_cast<double>(rep.json.size());
  }
  // The streaming path: one Check() per statement, then the full report,
  // whose statement-local fixes the per-group fix cache can replay.
  AnalysisSession session;
  {
    Scope s(tracer, "core.check");
    for (const std::string& stmt : in.statements) session.Check(stmt);
  }
  session.Snapshot();
  size_t hits = session.fix_cache_hits();
  size_t total = hits + session.fix_cache_misses();
  (*counts)["core.fix_cache_hit_ratio"] =
      total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

void ProbePersist(const LayerInputs& in, Tracer& tracer) {
  // Distinct statements by exact fingerprint, computed outside every span.
  struct Keyed {
    std::string canonical;
    sql::ScanFingerprints fp;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(in.statements.size());
  std::unordered_set<uint64_t> seen;
  std::vector<size_t> first;
  for (const std::string& stmt : in.statements) {
    Keyed k;
    k.fp = sql::FingerprintForScan(stmt, &k.canonical);
    if (seen.insert(k.fp.exact).second) first.push_back(keyed.size());
    keyed.push_back(std::move(k));
  }
  const uint64_t ruleset = persist::FingerprintStore::RulesetHash(RuleRegistry::Default());
  const std::string& path = in.store_path;
  RemoveAll(path);
  {
    persist::FingerprintStore store;
    if (!store.Open(path, ruleset).ok()) return;
    const std::vector<persist::StoredFinding> none;
    {
      Scope s(tracer, "persist.append");
      for (size_t i : first) {
        store.Append(keyed[i].canonical, keyed[i].fp.exact, keyed[i].fp.tmpl, none);
      }
      if (in.tree != nullptr) {
        for (const TreeFile& file : in.tree->files) {
          store.AppendFile(file.rel_path, file.base.size(), 1, {});
        }
      }
    }
    Scope s(tracer, "persist.commit");
    if (!store.Commit().ok()) return;
  }
  persist::FingerprintStore store;
  {
    Scope s(tracer, "persist.open");
    if (!store.Open(path, ruleset).ok()) return;
  }
  {
    Scope s(tracer, "persist.probe");
    std::vector<persist::StoredFinding> out;
    for (const Keyed& k : keyed) store.Probe(k.canonical, k.fp.exact, &out);
  }
  if (in.tree != nullptr) {
    Scope s(tracer, "persist.probe_file");
    std::vector<persist::StmtRef> refs;
    for (const TreeFile& file : in.tree->files) {
      store.ProbeFile(file.rel_path, file.base.size(), 1, &refs);
    }
  }
}

void ProbeScan(const LayerInputs& in, Tracer& tracer, std::map<std::string, double>* counts) {
  if (in.tree == nullptr) return;
  const std::string store_path = in.store_path + ".scan";
  {
    Scope s(tracer, "scan.walk_floor");
    std::error_code ec;
    for (fs::recursive_directory_iterator it(in.tree->root, ec), end; !ec && it != end;
         it.increment(ec)) {
      struct stat st{};
      ::stat(it->path().c_str(), &st);
    }
  }
  RemoveAll(store_path);
  scan::ScanOptions options;
  options.store_path = store_path;
  {
    Scope s(tracer, "scan.cold");
    scan::CorpusScanner scanner(options);
    if (!scanner.Scan(in.tree->root).ok()) return;
  }
  std::error_code ec;
  (*counts)["persist.store_bytes"] = static_cast<double>(fs::file_size(store_path, ec));
  in.tree->Write(true, true);
  {
    Scope s(tracer, "scan.rescan");
    scan::CorpusScanner scanner(options);
    if (scanner.Scan(in.tree->root).ok()) {
      const scan::ScanSummary& sum = scanner.summary();
      (*counts)["scan.analyzed"] = static_cast<double>(sum.analyzed);
      (*counts)["scan.memo_reused"] = static_cast<double>(sum.memo_reused);
      (*counts)["scan.files_reused"] = static_cast<double>(sum.files_reused);
      uint64_t probes = sum.store.hits + sum.store.misses;
      (*counts)["persist.hit_ratio"] =
          probes == 0 ? 0.0
                      : static_cast<double>(sum.store.hits) / static_cast<double>(probes);
    }
  }
  in.tree->Write(false, true);
}

/// One pass of every layer probe over `inputs`, each under its own span
/// beneath the current open span; counters land in `counts`.
void RunLayerPass(const LayerInputs& inputs, Tracer& tracer,
                  std::map<std::string, double>* counts) {
  // The core probe's lint rep runs first, right after the workload's own
  // op, as reps follow reps in the untraced run. After the large frees of
  // the analysis probe, a rep reuses a warm heap and was measured up to a
  // quarter faster than the untraced rep.
  ProbeCore(inputs, tracer, counts);
  ProbeSql(inputs, tracer, counts);
  ProbeAnalysisRulesFix(inputs, tracer, counts);
  ProbePersist(inputs, tracer);
  ProbeScan(inputs, tracer, counts);
}

/// Layers the workload's end-to-end operation never calls. Every traced run
/// reports every per-layer metric, so their probes still run over this
/// workload's inputs; those figures describe the layer, not the workload,
/// and are read from the workload that uses the layer.
std::string OffPathLayers(const std::string& workload) {
  std::string off;
  if (workload != "repo_scan") off += " sql.extract_s persist.* scan.*";
  if (workload != "tenant_stream") off += " server.* loadgen.*";
  return off;
}

/// Per-pass self times and counts become the per-layer metrics: medians
/// over passes.
void AddLayerMetrics(const std::vector<std::map<std::string, double>>& pass_seconds,
                     const std::vector<std::map<std::string, double>>& pass_counts,
                     RunResult* result) {
  auto median_of = [](const std::vector<std::map<std::string, double>>& passes,
                      const std::string& key) {
    std::vector<double> v;
    for (const auto& p : passes) {
      auto it = p.find(key);
      v.push_back(it == p.end() ? 0.0 : it->second);
    }
    return Median(std::move(v));
  };
  for (const std::string& name : LayerTimeNames()) {
    // A layer time is its spans' self time; server.transport is derived
    // (client latency minus handler time) and arrives as a count.
    std::string span = name.substr(0, name.size() - 2);
    bool from_spans = !pass_seconds.empty() && pass_seconds.front().count(span) > 0;
    result->Add(name, median_of(from_spans ? pass_seconds : pass_counts, span), "s",
                pass_seconds.size());
  }
  for (const auto& [name, unit] : LayerCountNames()) {
    result->Add(name, median_of(pass_counts, name), unit, pass_counts.size());
  }
}

}  // namespace

RunResult RunTracedPasses(const Options& options, const LayerInputs& inputs,
                          const TracedOp& op) {
  RunResult result;
  ServerProcess server;
  TenantClient client;
  std::string error;
  if (!server.Start(options.server_bin, &error) || !client.Connect(server.port(), 4, &error)) {
    result.attempted = 1;
    result.Fail("server probe: " + error);
    return result;
  }
  Tracer tracer(true);
  std::vector<std::map<std::string, double>> pass_seconds, pass_counts;
  std::vector<double> untraced, traced;
  const int min_passes = options.smoke ? 1 : 3;
  Clock::time_point start = Clock::now();
  while (static_cast<int>(pass_seconds.size()) < min_passes ||
         SecondsSince(start) < options.seconds) {
    {
      // Outside the pass span, so its spans never count toward a layer. The
      // two runs swap order every pass, so neither always runs first.
      Scope s(tracer, "trace.overhead");
      Tracer off(false);
      for (int i = 0; i < 2; ++i) {
        bool with_spans = (i == 0) == (pass_seconds.size() % 2 == 1);
        double seconds = op(with_spans ? tracer : off, client);
        (with_spans ? traced : untraced).push_back(seconds);
      }
    }
    std::map<std::string, double> counts;
    int root = tracer.Begin("pass");
    RunLayerPass(inputs, tracer, &counts);
    RunServerProbe(client, inputs, options.reference_rps, tracer, &counts, &result);
    tracer.End(root);
    pass_seconds.push_back(tracer.SelfSeconds(root));
    pass_counts.push_back(std::move(counts));
  }
  client.Close();
  server.Stop();
  result.attempted += pass_seconds.size();

  std::vector<double> deltas;
  for (size_t i = 0; i < traced.size(); ++i) deltas.push_back(traced[i] - untraced[i]);
  double base = Median(untraced);
  double delta = Median(deltas);
  result.Extra("trace.untraced_op_ms", base * 1e3, "ms", untraced.size());
  result.Extra("trace.traced_op_ms", Median(traced) * 1e3, "ms", traced.size());
  result.Extra("trace.overhead_ms", delta * 1e3, "ms", traced.size());
  result.Extra("trace.overhead_ratio", base > 0 ? delta / base : 0.0, "ratio");
  result.Extra("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  AddLayerMetrics(pass_seconds, pass_counts, &result);
  result.notes.push_back("not on this workload's path, measured over its inputs:" +
                         OffPathLayers(options.workload));
  std::string span_file = options.out_dir + "/" + options.workload + "-seed" +
                          std::to_string(options.seed) + ".spans.jsonl";
  if (!tracer.WriteJsonl(span_file)) result.Fail("cannot write " + span_file);
  return result;
}

}  // namespace perfbench
