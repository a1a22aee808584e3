// batch_lint: the Table-3 corpus as one script through the SqlCheck facade
// (CLI-default options), rendered with ToJson.
// repo_scan: a generated repository tree scanned cold into a fresh store,
// then rescanned against that store after a seeded few files changed.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "core/emit.h"
#include "core/sqlcheck.h"
#include "scan/scanner.h"
#include "workload/corpus.h"

namespace perfbench {

using namespace sqlcheck;

namespace {

/// Floors for batch_lint's detections scored against the generator's labels.
constexpr double kMinPrecision = 0.95;
constexpr double kMinRecall = 0.90;

/// Corpus seeds are drawn from the run seed so every run seed gives new
/// (but reproducible) inputs.
uint64_t CorpusSeed(uint64_t run_seed, int variant) {
  Rng rng(run_seed * 1000003ull + static_cast<uint64_t>(variant));
  return rng.Next();
}

std::string JoinScript(const std::vector<std::string>& statements) {
  std::string script;
  for (const std::string& s : statements) {
    script += s;
    script += ";\n";
  }
  return script;
}

void AddRepMetrics(const std::vector<double>& setup_s, double peak_rss_mb,
                   const std::vector<double>& op_s, const std::vector<double>& report_s,
                   RunResult* result) {
  result->Add("setup_s", Median(setup_s), "s", setup_s.size());
  result->Add("peak_rss_mb", peak_rss_mb, "MB");
  result->Add("op_p50_ms", Median(op_s) * 1e3, "ms", op_s.size());
  result->Add("report_p50_ms", Median(report_s) * 1e3, "ms", report_s.size());
  result->Extra("op_tail_ms", Quantile(op_s, TailQuantileLevel(op_s.size())) * 1e3, "ms",
                op_s.size());
}

// -------------------------------- batch_lint --------------------------------

struct LintInputs {
  workload::Corpus corpus;
  std::vector<std::string> statements;
  std::string script;
};

LintInputs MakeLintInputs(const Options& options, int variant) {
  LintInputs in;
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = options.smoke ? 60 : 2000;
  corpus_options.seed = CorpusSeed(options.seed, variant);
  in.corpus = workload::GenerateCorpus(corpus_options);
  for (const auto& repo : in.corpus.repos) {
    for (const auto& stmt : repo.statements) in.statements.push_back(stmt.sql);
  }
  in.script = JoinScript(in.statements);
  return in;
}

/// Micro-averaged precision/recall over every anti-pattern type.
void ScoreAgainstLabels(const workload::Corpus& corpus,
                        const std::vector<Detection>& detections, double* precision,
                        double* recall) {
  workload::DetectionScore total;
  for (const auto& [type, score] : workload::ScoreDetections(corpus, detections, {})) {
    total.true_positives += score.true_positives;
    total.false_positives += score.false_positives;
    total.false_negatives += score.false_negatives;
  }
  *precision = total.Precision();
  *recall = total.Recall();
}

// -------------------------------- repo_scan ---------------------------------

/// Seed variants concatenated into each repository's queries.sql.
int ScanVariants(const Options& o) { return o.smoke ? 4 : 24; }
int ScanRepos(const Options& o) { return o.smoke ? 12 : 200; }

/// Builds the repo_scan tree: one queries.sql per repository from several
/// corpus seed variants, an app.py for every fourth repository, and for a
/// seeded ~4% of queries.sql files an alternate content that swaps one
/// variant for a fresh one (mostly known statements plus a few novel ones).
Tree MakeScanTree(const Options& options, const std::string& root) {
  const int variants = ScanVariants(options);
  std::vector<workload::Corpus> corpora;
  for (int v = 0; v <= variants; ++v) {  // the last one only feeds alternates
    workload::CorpusOptions corpus_options;
    corpus_options.repo_count = ScanRepos(options);
    corpus_options.seed = CorpusSeed(options.seed, 100 + v);
    corpora.push_back(workload::GenerateCorpus(corpus_options));
  }
  Rng rng(options.seed ^ 0x5ca17ull);
  Tree tree;
  tree.root = root;
  const auto& base = corpora.front();
  for (size_t r = 0; r < base.repos.size(); ++r) {
    TreeFile sql{base.repos[r].name + "/queries.sql", {}, {}};
    bool rewrite = rng.NextBelow(100) < 4 || (options.smoke && r == 0);
    for (int v = 0; v < variants; ++v) {
      for (const auto& stmt : corpora[static_cast<size_t>(v)].repos[r].statements) {
        sql.base += stmt.sql + ";\n";
      }
    }
    if (rewrite) {
      for (int v = 1; v <= variants; ++v) {
        for (const auto& stmt : corpora[static_cast<size_t>(v)].repos[r].statements) {
          sql.alternate += stmt.sql + ";\n";
        }
      }
    }
    tree.files.push_back(std::move(sql));
    if (r % 4 == 0) {
      tree.files.push_back({base.repos[r].name + "/app.py", base.repos[r].source, {}});
    }
  }
  return tree;
}

/// The tree's contents as layer-probe inputs.
LayerInputs ScanLayerInputs(const Tree& tree, const std::string& work_dir) {
  LayerInputs in;
  for (const TreeFile& file : tree.files) {
    if (file.rel_path.ends_with(".py")) {
      in.host_sources.push_back(file.base);
      continue;
    }
    in.script += file.base;
    size_t pos = 0;
    while (pos < file.base.size()) {
      size_t end = file.base.find(";\n", pos);
      if (end == std::string::npos) end = file.base.size();
      in.statements.push_back(file.base.substr(pos, end - pos));
      pos = end + 2;
    }
  }
  in.tree = &tree;
  in.store_path = work_dir + "/probe.fps";
  return in;
}

bool ScanOnce(const std::string& root, const std::string& store, scan::ScanReport* report,
              scan::ScanSummary* summary, std::string* error) {
  scan::ScanOptions scan_options;
  scan_options.store_path = store;
  scan::CorpusScanner scanner(scan_options);
  Result<scan::ScanReport> result = scanner.Scan(root);
  if (!result.ok()) {
    *error = result.message();
    return false;
  }
  *report = std::move(result.value());
  if (summary != nullptr) *summary = scanner.summary();
  return true;
}

}  // namespace

LintRep RunLintRep(const std::string& script, bool keep_detections, Tracer& tracer) {
  LintRep rep;
  Clock::time_point t0 = Clock::now();
  SqlCheck checker;  // CLI defaults: fixes on, serial
  {
    Scope s(tracer, "core.ingest");
    checker.AddScript(script);
  }
  Clock::time_point t1 = Clock::now();
  Report report;
  {
    Scope s(tracer, "core.snapshot");
    report = checker.Run();
  }
  {
    Scope s(tracer, "core.emit_json");
    rep.json = ToJson(report);
  }
  rep.report_s = SecondsSince(t1);
  rep.total_s = SecondsSince(t0);
  if (keep_detections) {
    for (const Finding& f : report.findings) rep.detections.push_back(f.ranked.detection);
  }
  return rep;
}

RunResult RunBatchLint(const Options& options) {
  if (options.trace) {
    LintInputs in = MakeLintInputs(options, 0);
    LintInputs alt = MakeLintInputs(options, 1);
    Tree tree;
    tree.root = options.work_dir + "/tree";
    for (size_t r = 0; r < in.corpus.repos.size(); ++r) {
      const auto& repo = in.corpus.repos[r];
      TreeFile file{repo.name + "/queries.sql", {}, {}};
      for (const auto& stmt : repo.statements) file.base += stmt.sql + ";\n";
      if (r % 25 == 0 && r < alt.corpus.repos.size()) {
        for (const auto& stmt : alt.corpus.repos[r].statements) {
          file.alternate += stmt.sql + ";\n";
        }
      }
      tree.files.push_back(std::move(file));
    }
    RemoveAll(tree.root);
    tree.Write(false, false);
    LayerInputs layer;
    layer.script = in.script;
    layer.statements = in.statements;
    for (const auto& repo : in.corpus.repos) layer.host_sources.push_back(repo.source);
    layer.tree = &tree;
    layer.store_path = options.work_dir + "/probe.fps";
    return RunTracedPasses(options, layer, [&](Tracer& tracer, TenantClient&) {
      return RunLintRep(in.script, false, tracer).total_s;
    });
  }

  RunResult result;
  // Every rep first sets up afresh: the inputs are generated again (the
  // same seed gives the same corpus), so set-up time is sampled as often as
  // the op and through the same stretch of the run.
  std::vector<double> setup_s, op_s, report_s;
  LintInputs in;
  uint64_t reference = 0;
  double precision = 0, recall = 0;
  Clock::time_point start = Clock::now();
  while (op_s.size() < 3 || SecondsSince(start) < options.seconds) {
    Clock::time_point t = Clock::now();
    in = MakeLintInputs(options, 0);
    setup_s.push_back(SecondsSince(t));
    bool first = op_s.empty();
    Tracer off(false);
    LintRep rep = RunLintRep(in.script, first, off);
    ++result.attempted;
    op_s.push_back(rep.total_s);
    report_s.push_back(rep.report_s);
    uint64_t digest = Fnv1a(rep.json);
    if (first) {
      reference = digest;
      ScoreAgainstLabels(in.corpus, rep.detections, &precision, &recall);
      ++result.attempted;
      // The corpus and its labels are seeded, and the rules score about
      // 0.99 precision and 0.95 recall on it; a run that loses a few percent
      // of its true detections is broken, not slow.
      if (precision < kMinPrecision || recall < kMinRecall) {
        char why[96];
        std::snprintf(why, sizeof(why), "precision %.4f / recall %.4f below %.2f / %.2f",
                      precision, recall, kMinPrecision, kMinRecall);
        result.Fail(why);
      }
    } else if (digest != reference) {
      result.Fail("rep " + std::to_string(op_s.size()) + " JSON report differs from rep 1");
    }
  }
  const uint64_t statements = in.statements.size();
  AddRepMetrics(setup_s, SelfPeakRssMb(), op_s, report_s, &result);
  double p50 = Median(op_s);
  result.Extra("lint.stmts_per_s", static_cast<double>(statements) / p50, "1/s", op_s.size());
  result.Extra("lint.precision", precision, "ratio");
  result.Extra("lint.recall", recall, "ratio");
  result.Extra("lint.statements", static_cast<double>(statements), "count");
  return result;
}

RunResult RunRepoScan(const Options& options) {
  const std::string root = options.work_dir + "/tree";
  const std::string store = options.work_dir + "/scan.fps";
  if (options.trace) {
    Tree tree = MakeScanTree(options, root);
    RemoveAll(root);
    tree.Write(false, false);
    LayerInputs layer = ScanLayerInputs(tree, options.work_dir);
    return RunTracedPasses(options, layer, [&](Tracer& tracer, TenantClient&) {
      RemoveAll(store);
      scan::ScanReport report;
      std::string error;
      Clock::time_point t = Clock::now();
      {
        Scope s(tracer, "scan.cold");
        ScanOnce(root, store, &report, nullptr, &error);
      }
      return SecondsSince(t);
    });
  }

  RunResult result;
  // References: store-less scans of the base and the rewritten tree.
  std::string error;
  Tree tree = MakeScanTree(options, root);
  RemoveAll(root);
  scan::ScanReport base_ref, alt_ref;
  bool refs_ok = tree.Write(false, false) && ScanOnce(root, "", &base_ref, nullptr, &error) &&
                 tree.Write(true, true) && ScanOnce(root, "", &alt_ref, nullptr, &error);
  result.attempted += 2;
  if (!refs_ok) {
    result.Fail("reference scan under " + root + (error.empty() ? "" : ": " + error));
    return result;
  }
  const uint64_t base_digest = scan::DigestScanReport(base_ref);
  const uint64_t alt_digest = scan::DigestScanReport(alt_ref);

  // Every rep sets up afresh, so set-up time is sampled as often as the
  // scans and through the same stretch of the run: the tree is generated
  // again (the same seed gives the same tree) and written over the previous
  // rep's. Removing the tree between reps would tie set-up time to how fast
  // the filesystem frees blocks, which swung it several-fold between runs.
  std::vector<double> setup_s, generate_s, write_s, cold_s, rescan_s;
  scan::ScanSummary last_rescan;
  Clock::time_point start = Clock::now();
  while (cold_s.size() < 3 || SecondsSince(start) < options.seconds) {
    Clock::time_point t = Clock::now();
    tree = MakeScanTree(options, root);
    generate_s.push_back(SecondsSince(t));
    Clock::time_point w = Clock::now();
    bool written = tree.Write(false, false);
    write_s.push_back(SecondsSince(w));
    setup_s.push_back(SecondsSince(t));
    if (!written) {
      ++result.attempted;
      result.Fail("cannot write the scan tree under " + root);
      break;
    }
    RemoveAll(store);
    scan::ScanReport report;
    scan::ScanSummary summary;
    t = Clock::now();
    bool ok = ScanOnce(root, store, &report, &summary, &error);
    cold_s.push_back(SecondsSince(t));
    ++result.attempted;
    if (!ok || scan::DigestScanReport(report) != base_digest || summary.store_reused != 0 ||
        !summary.store.warning.empty()) {
      result.Fail("cold scan differs from the store-less scan" +
                  (ok ? std::string() : ": " + error));
    }
    tree.Write(true, true);
    t = Clock::now();
    ok = ScanOnce(root, store, &report, &summary, &error);
    rescan_s.push_back(SecondsSince(t));
    ++result.attempted;
    if (!ok || scan::DigestScanReport(report) != alt_digest ||
        !summary.store.warning.empty()) {
      result.Fail("rescan differs from the store-less scan" +
                  (ok ? std::string() : ": " + error));
    } else if (summary.files_reused == 0 || summary.analyzed >= report.statements) {
      result.Fail("rescan did not reuse the store");
    }
    last_rescan = summary;
  }
  RemoveAll(store);
  AddRepMetrics(setup_s, SelfPeakRssMb(), cold_s, rescan_s, &result);
  result.Extra("setup.generate_s", Median(generate_s), "s", generate_s.size());
  result.Extra("setup.write_s", Median(write_s), "s", write_s.size());
  result.Extra("scan.cold_stmts_per_s", base_ref.statements / Median(cold_s), "1/s",
               cold_s.size());
  result.Extra("scan.rescan_stmts_per_s", alt_ref.statements / Median(rescan_s), "1/s",
               rescan_s.size());
  result.Extra("scan.statements", static_cast<double>(base_ref.statements), "count");
  result.Extra("scan.unique_ratio",
               static_cast<double>(base_ref.unique_statements) / base_ref.statements, "ratio");
  result.Extra("scan.rescan_analyzed", static_cast<double>(last_rescan.analyzed), "count");
  result.Extra("scan.rescan_files_reused", static_cast<double>(last_rescan.files_reused),
               "count");
  return result;
}

}  // namespace perfbench
