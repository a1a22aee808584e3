#include "core/session.h"

#include <exception>
#include <utility>

#include "analysis/query_analyzer.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "fix/fix_engine.h"
#include "fix/fixer.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "sql/splitter.h"

namespace sqlcheck {

AnalysisSession::AnalysisSession(SqlCheckOptions options)
    : options_(std::move(options)),
      registry_(RuleRegistry::Default()),
      quarantine_(options_.quarantine_capacity) {
  status_ = registry_.Disable(options_.disabled_rules);
}

void AnalysisSession::AttachDatabase(const Database* db) {
  context_.database_ = db;
  if (db != nullptr) {
    context_.catalog_ = db->BuildCatalog();
    context_.data_ = AnalyzeDatabase(*db, options_.data_analyzer);
  } else {
    context_.catalog_ = Catalog();
    context_.data_ = DataContext();
  }
  // Workload DDL layers on top of the database schema, exactly as a batch
  // build orders it — so attaching late reproduces attaching first.
  for (const auto& stmt : context_.statements_) {
    context_.catalog_.ApplyDdl(*stmt);
  }
}

void AnalysisSession::RegisterRule(std::unique_ptr<Rule> rule) {
  registry_.Register(std::move(rule));
}

namespace {

/// Scratch (TokenBuffer) reservation above which the post-append trim kicks
/// in: steady-state statements stay far below this, so only a pathological
/// one-off statement ever pays the trim/regrow cycle.
constexpr size_t kScratchTrimBytes = 1 << 20;

}  // namespace

Status AnalysisSession::CheckQuota(size_t incoming_bytes) const {
  // Framing-level guard before the quota math: Token stores u32 source
  // offsets (sql/token.h), so one Lex() pass — and hence one append — is
  // capped at 4 GiB of SQL. Nothing real approaches this; it exists so the
  // narrowing is provably safe even against adversarial input.
  if (incoming_bytes > sql::kMaxLexBytes) {
    return Status::Error("single append exceeds the 4 GiB lexer span limit");
  }
  const SessionLimits& limits = options_.limits;
  if (limits.unlimited()) return Status::Ok();
  if (limits.max_statements != 0 &&
      context_.statements_.size() >= limits.max_statements) {
    return Status::Error("statement quota exhausted (max_statements=" +
                         std::to_string(limits.max_statements) + ")");
  }
  if (limits.max_ingest_bytes != 0 &&
      ingested_bytes_ + incoming_bytes > limits.max_ingest_bytes) {
    return Status::Error("ingest byte quota exhausted (max_ingest_bytes=" +
                         std::to_string(limits.max_ingest_bytes) + ")");
  }
  if (limits.arena_cap_bytes != 0 &&
      context_.arena_reserved_bytes() >= limits.arena_cap_bytes) {
    return Status::Error("session arena cap reached (arena_cap_bytes=" +
                         std::to_string(limits.arena_cap_bytes) + ")");
  }
  if (limits.interner_cap_names != 0 &&
      context_.names().size() >= limits.interner_cap_names) {
    return Status::Error("interner name cap reached (interner_cap_names=" +
                         std::to_string(limits.interner_cap_names) + ")");
  }
  return Status::Ok();
}

SessionUsage AnalysisSession::Usage() const {
  SessionUsage usage;
  usage.statements = context_.statements_.size();
  usage.unique_groups = context_.query_groups_.unique.size();
  usage.ingested_bytes = ingested_bytes_;
  usage.arena_reserved_bytes = context_.arena_reserved_bytes();
  usage.arena_used_bytes = context_.arena_used_bytes();
  usage.scratch_reserved_bytes = token_buffer_.reserved_bytes();
  usage.interner_names = context_.names().size();
  usage.interner_bytes = context_.names().memory_bytes();
  return usage;
}

bool AnalysisSession::HardenedAppend() const {
  return deadline_.has_value() || options_.statement_budget_ms > 0 ||
         !quarantine_.empty() || AnyFailpointArmed();
}

bool AnalysisSession::DeadlineExpired() const {
  return deadline_.has_value() && std::chrono::steady_clock::now() >= *deadline_;
}

uint64_t AnalysisSession::QuarantineKey(std::string_view sql) {
  // Key computation runs with injected faults suspended: the insert (made
  // while a chaos profile is firing) and the later repeat-offender probe
  // (typically after faults clear) must derive the same key, or the
  // quarantine never matches. Real faults still hit the raw-bytes fallback.
  FailpointScopeSuspend no_faults;
  try {
    return sql::FingerprintCanonical(
        sql::CanonicalizeSql(sql, sql::FingerprintOptions::Exact()));
  } catch (const std::exception&) {
    // Canonicalization itself faulted — key the raw bytes (FNV-1a is what
    // FingerprintCanonical applies to its input anyway). A cosmetic variant
    // of the same poison then re-quarantines under its own key, which is
    // correct, just slower.
    return sql::FingerprintCanonical(sql);
  }
}

void AnalysisSession::RecordFailure(std::string_view sql, const char* code,
                                    std::string message, bool quarantined) {
  std::lock_guard<std::mutex> lock(failures_mu_);
  ++failures_recorded_;
  if (failures_.size() >= kMaxRecordedFailures) return;
  StatementFailure failure;
  failure.sql = std::string(sql);
  failure.code = code;
  failure.message = std::move(message);
  failure.quarantined = quarantined;
  failures_.push_back(std::move(failure));
}

void AnalysisSession::Quarantine(std::string_view sql) {
  std::lock_guard<std::mutex> lock(failures_mu_);
  quarantine_.Insert(QuarantineKey(sql));
  ++statements_quarantined_;
}

bool AnalysisSession::QuarantineRefused(std::string_view piece) {
  if (quarantine_.empty()) return false;
  if (!quarantine_.Touch(QuarantineKey(piece))) return false;
  ++quarantine_refusals_;
  RecordFailure(piece, "internal_error",
                "statement fingerprint is quarantined (repeat offender); "
                "reset the session to clear the quarantine",
                /*quarantined=*/true);
  return true;
}

sql::StatementPtr AnalysisSession::ParseWithRetry(std::string_view piece,
                                                  std::string* error) {
  for (int attempt = 0; attempt < kFaultRetryAttempts; ++attempt) {
    try {
      FailpointScope fault_scope;  // parse allocations are a chaos seam
      sql::StatementPtr stmt =
          sql::ParseStatement(piece, context_.arena(), &token_buffer_);
      if (attempt > 0) faults_recovered_.fetch_add(1, std::memory_order_relaxed);
      return stmt;
    } catch (const std::exception& e) {
      *error = e.what();
    }
  }
  return nullptr;
}

bool AnalysisSession::IngestPiece(std::string_view piece) {
  const auto start = std::chrono::steady_clock::now();
  std::string error;
  sql::StatementPtr stmt = ParseWithRetry(piece, &error);
  if (stmt == nullptr) {
    Quarantine(piece);
    RecordFailure(piece, "internal_error",
                  "statement parse failed persistently (" + error +
                      "); fingerprint quarantined",
                  /*quarantined=*/true);
    return false;
  }
  const size_t before = context_.statements_.size();
  std::vector<sql::StatementPtr> chunk;
  chunk.push_back(std::move(stmt));
  IngestChunk(std::move(chunk));
  if (context_.statements_.size() == before) return false;  // dropped (recorded)
  if (options_.statement_budget_ms > 0) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (elapsed > options_.statement_budget_ms) {
      // The statement landed (its results are valid) but blew its budget:
      // quarantine the fingerprint so its repeats are refused in O(1).
      Quarantine(piece);
      RecordFailure(piece, "deadline_exceeded",
                    "statement took " + std::to_string(elapsed) +
                        "ms against a " +
                        std::to_string(options_.statement_budget_ms) +
                        "ms budget; fingerprint quarantined (statement was "
                        "ingested)",
                    /*quarantined=*/true);
    }
  }
  return true;
}

size_t AnalysisSession::AddQuery(std::string_view sql_text) {
  failures_.clear();
  if (!GateAppend(sql_text.size())) return 0;
  const size_t first = context_.statements_.size();
  if (!HardenedAppend()) {
    std::vector<sql::StatementPtr> stmts;
    stmts.push_back(sql::ParseStatement(sql_text, context_.arena(), &token_buffer_));
    IngestChunk(std::move(stmts));
    TrimScratch();
    return first;
  }
  if (!QuarantineRefused(sql_text)) IngestPiece(sql_text);
  TrimScratch();
  return first;
}

size_t AnalysisSession::AddScript(std::string_view script) {
  failures_.clear();
  if (!GateAppend(script.size())) return 0;
  const size_t first = context_.statements_.size();

  if (!HardenedAppend()) {
    // The historical bulk path, untouched: no deadline, no budget, empty
    // quarantine, no armed failpoints — nothing to probe or recover, so pay
    // zero robustness overhead.
    std::vector<sql::StatementPtr> stmts =
        sql::ParseScript(script, context_.arena(), &token_buffer_);
    IngestChunk(std::move(stmts));
    TrimScratch();
    return context_.statements_.size() - first;
  }

  // Hardened path: statement-at-a-time so every piece gets its own probe,
  // deadline check, retry budget, and wall-clock attribution. Identical
  // output to the bulk path when nothing fires — appending statements in N
  // chunks of 1 reproduces one chunk of N (the chunk-identity contract
  // tests/test_session.cc enforces). Failpoint scopes open only inside the
  // retry-protected regions (the split below, ParseWithRetry, IngestChunk's
  // memo and analysis loops) — an injected fault can never land on
  // bookkeeping that has no recovery story.
  std::vector<std::string_view> pieces;
  {
    std::string split_error;
    bool split_ok = false;
    for (int attempt = 0; attempt < kFaultRetryAttempts && !split_ok; ++attempt) {
      try {
        FailpointScope fault_scope;
        pieces = sql::SplitStatements(script, nullptr, &token_buffer_);
        split_ok = true;
        if (attempt > 0) faults_recovered_.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        split_error = e.what();
      }
    }
    if (!split_ok) {
      RecordFailure(script.substr(0, 256), "internal_error",
                    "script split failed persistently (" + split_error + ")",
                    /*quarantined=*/false);
      return 0;
    }
  }

  for (std::string_view piece : pieces) {
    if (DeadlineExpired()) {
      RecordFailure(piece, "deadline_exceeded",
                    "request deadline expired before this statement",
                    /*quarantined=*/false);
      continue;
    }
    if (QuarantineRefused(piece)) continue;
    IngestPiece(piece);
  }
  TrimScratch();
  return context_.statements_.size() - first;
}

bool AnalysisSession::GateAppend(size_t incoming_bytes) {
  Status quota = CheckQuota(incoming_bytes);
  if (!quota.ok()) {
    quota_status_ = std::move(quota);
    return false;
  }
  ingested_bytes_ += incoming_bytes;
  return true;
}

void AnalysisSession::TrimScratch() {
  if (token_buffer_.reserved_bytes() > kScratchTrimBytes) token_buffer_.Trim();
}

size_t AnalysisSession::IngestChunk(std::vector<sql::StatementPtr> stmts) {
  const size_t first = context_.statements_.size();
  const size_t first_group = context_.query_groups_.unique.size();
  const int threads = ThreadPool::ResolveParallelism(options_.parallelism);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && stmts.size() > 1) pool = std::make_unique<ThreadPool>(threads);
  IngestResult result = context_.Append(std::move(stmts), threads, pool.get(),
                                        /*memo=*/true, token_buffer_);
  faults_recovered_.fetch_add(result.faults_recovered, std::memory_order_relaxed);

  // One cache row per group, filled by EnsureCacheRow. A group whose
  // analysis failed gets a full-but-empty row, so no rule runs on its empty
  // facts.
  const size_t unique_count = context_.query_groups_.unique.size();
  local_cache_.resize(unique_count);
  fix_cache_.resize(unique_count);
  for (const IngestFailure& failure : result.failures) {
    Quarantine(failure.sql);
    if (failure.stage == IngestFailure::Stage::kMemo) {
      RecordFailure(failure.sql, "internal_error",
                    "statement bookkeeping failed persistently (" + failure.error +
                        "); fingerprint quarantined",
                    /*quarantined=*/true);
    } else {
      local_cache_[failure.group].assign(registry_.rules().size(), {});
      RecordFailure(failure.sql, "internal_error",
                    "statement analysis failed persistently (" + failure.error +
                        "); findings unavailable, fingerprint quarantined",
                    /*quarantined=*/true);
    }
  }
  // Fill the new groups' rows now, beside their analysis: left to the first
  // Snapshot, the same evaluation lengthens the report the caller waits for.
  ParallelShards(
      unique_count - first_group, threads,
      [this, first_group](int /*shard*/, size_t begin, size_t end) {
        for (size_t u = first_group + begin; u < first_group + end; ++u) EnsureCacheRow(u);
      },
      pool.get());
  return first;
}

void AnalysisSession::EnsureCacheRow(size_t u) {
  const auto& rules = registry_.rules();
  std::vector<std::vector<Detection>>& row = local_cache_[u];
  if (row.size() >= rules.size()) return;
  const size_t i = context_.query_groups_.unique[u];
  const QueryFacts& facts = context_.query_facts_[i];
  size_t from = row.size();
  row.resize(rules.size());
  for (size_t r = from; r < rules.size(); ++r) {
    if (rules[r]->query_scope() != QueryRuleScope::kStatementLocal) continue;
    rules[r]->CheckQuery(facts, context_, options_.detector, &row[r]);
  }
}

void AnalysisSession::AssembleGroupDetections(size_t u, std::vector<Detection>* out) {
  EnsureCacheRow(u);
  const auto& rules = registry_.rules();
  const size_t i = context_.query_groups_.unique[u];
  const QueryFacts& facts = context_.query_facts_[i];
  const std::vector<std::vector<Detection>>& row = local_cache_[u];
  // Pre-size from the known cache-row counts so replaying the cached
  // statement-local detections never regrows the buffer mid-assembly.
  size_t cached = 0;
  for (const auto& slot : row) cached += slot.size();
  out->reserve(out->size() + cached);
  for (size_t r = 0; r < rules.size(); ++r) {
    if (rules[r]->query_scope() == QueryRuleScope::kStatementLocal) {
      out->insert(out->end(), row[r].begin(), row[r].end());
    } else {
      rules[r]->CheckQuery(facts, context_, options_.detector, out);
    }
  }
}

Report AnalysisSession::Check(std::string_view sql) {
  const size_t first = context_.statements_.size();
  AddScript(sql);
  const size_t n = context_.statements_.size();

  std::vector<Detection> detections;
  const QueryGroups& groups = context_.query_groups_;
  for (size_t i = first; i < n; ++i) {
    size_t rep = groups.representative[i];
    std::vector<Detection> buffer;
    AssembleGroupDetections(groups.group[i], &buffer);
    for (auto& d : buffer) {
      if (rep != i) {
        d = RebaseDetection(std::move(d), context_.query_facts_[rep],
                            context_.query_facts_[i]);
      }
      d.statement = i;
      detections.push_back(std::move(d));
    }
  }
  return MakeReport(std::move(detections));
}

Report AnalysisSession::Snapshot() {
  const size_t unique_count = context_.query_groups_.unique.size();
  int threads = ThreadPool::ResolveParallelism(options_.parallelism);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  // Per-group buffers assemble in shards (cache rows are disjoint, workload
  // rules are stateless/const); the shared fan-out then reproduces the
  // serial batch stream byte-for-byte.
  std::vector<std::vector<Detection>> per_group(unique_count);
  ParallelShards(
      unique_count, threads,
      [this, &per_group](int /*shard*/, size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
          AssembleGroupDetections(u, &per_group[u]);
        }
      },
      pool.get());

  std::vector<Detection> data_detections =
      DetectDataAntiPatterns(context_, registry_, options_.detector);
  return MakeReport(FanOutDetections(context_, context_.query_groups_,
                                     std::move(per_group), std::move(data_detections)));
}

Report AnalysisSession::MakeReport(std::vector<Detection> detections) {
  // ap-rank (§5).
  RankingModel model(options_.ranking_weights, options_.ranking_mode);
  std::vector<RankedDetection> ranked = model.Rank(std::move(detections));

  // ap-fix (§6): per-rule fixers + verification, attached in rank order so
  // fixes surface with the impact model's ordering.
  FixEngine engine(registry_, options_.detector, options_.verify_exec,
                   &verify_memo_, &verify_stats_);
  Report report;
  report.findings.reserve(ranked.size());
  for (auto& r : ranked) {
    Finding finding;
    if (options_.suggest_fixes) finding.fix = FixForDetection(r.detection, engine);
    finding.ranked = std::move(r);
    report.findings.push_back(std::move(finding));
  }
  return report;
}

Fix AnalysisSession::FixForDetection(const Detection& d, const FixEngine& engine) {
  const Fixer* fixer = registry_.FindFixer(d.type);
  const Rule* rule = registry_.FindRule(d.type);
  bool cacheable = !d.query.empty() && fixer != nullptr &&
                   fixer->fix_scope() == QueryRuleScope::kStatementLocal &&
                   rule != nullptr &&
                   rule->query_scope() == QueryRuleScope::kStatementLocal;
  if (!cacheable) return engine.SuggestFix(d, context_);
  // The fan-out stamped the statement index: its group is one array read.
  // A detection whose query is not the text of the statement it is stamped
  // with takes the text lookup.
  const std::vector<QueryFacts>& queries = context_.queries();
  size_t u;
  if (d.statement < queries.size() && queries[d.statement].raw_sql == d.query) {
    u = context_.query_groups_.group[d.statement];
  } else {
    const size_t* group = context_.FindRawGroup(d.query);
    if (group == nullptr) return engine.SuggestFix(d, context_);
    u = *group;
  }
  for (const CachedFix& cached : fix_cache_[u]) {
    if (cached.type == d.type && cached.table == d.table &&
        cached.column == d.column) {
      ++fix_cache_hits_;
      Fix fix = cached.fix;
      fix.original_sql = d.query;  // rebase the anchor onto this occurrence
      return fix;
    }
  }
  ++fix_cache_misses_;
  // The cache row is this proposal's memo: a verdict memo entry for it
  // would never be read.
  Fix fix = engine.SuggestFix(d, context_, /*memoize_verdict=*/false);
  fix_cache_[u].push_back({d.type, d.table, d.column, fix});
  return fix;
}

}  // namespace sqlcheck
