// Incremental session engine: feeding any prefix — or any chunking — of a
// script through AnalysisSession must yield reports byte-identical to one
// batch run over the same statement order, with the pre-session batch
// pipeline (ContextBuilder + DetectAntiPatterns + rank + fix) as the anchor
// so neither path can drift.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "core/session.h"
#include "core/sqlcheck.h"
#include "engine/executor.h"
#include "fix/fix_engine.h"
#include "ranking/model.h"
#include "rules/registry.h"
#include "sql/splitter.h"
#include "workload/corpus.h"

namespace sqlcheck {
namespace {

// Mixed workload: DDL (design rules), duplicate-heavy queries (the memo),
// index DDL (inter-query rules), and data-sensitive predicates.
const char* kScript = R"sql(
CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), password VARCHAR(64),
                    tag_ids TEXT, balance FLOAT, created_at TIMESTAMP);
CREATE TABLE orders (id INT PRIMARY KEY, user_id INT,
                     status VARCHAR(8) CHECK (status IN ('open', 'paid')));
CREATE INDEX idx_orders_user ON orders (user_id);
CREATE INDEX idx_orders_user_status ON orders (user_id, status);
SELECT * FROM users WHERE id = ?;
select * from users where id = ?;
SELECT * FROM users WHERE id = ?  -- comment jitter
;
SELECT u.name, o.status FROM users u JOIN orders o ON u.id = o.user_id;
SELECT name FROM users WHERE tag_ids LIKE '%,7,%';
SELECT name, password FROM users WHERE password = 'hunter2';
SELECT DISTINCT u.name FROM users u JOIN orders o ON u.id = o.user_id
    ORDER BY RAND();
INSERT INTO orders VALUES (1, 1, 'open');
INSERT INTO orders VALUES (1, 1, 'open');
UPDATE users SET balance = 0 WHERE id = 3;
)sql";

/// The pre-session batch pipeline over an identity-grouped build (every
/// statement analyzed and rule-checked on its own) — the reference every
/// incremental feeding order is compared against.
Report ReferencePipeline(const std::vector<std::string>& statements,
                         const SqlCheckOptions& options, const Database* db = nullptr) {
  ContextBuilder builder;
  for (const auto& s : statements) builder.AddQuery(s);
  if (db != nullptr) builder.AttachDatabase(db, options.data_analyzer);
  Context context = builder.Build(1, nullptr, /*dedup_queries=*/false);

  RuleRegistry registry = RuleRegistry::Default();
  EXPECT_TRUE(registry.Disable(options.disabled_rules).ok());
  std::vector<Detection> detections =
      DetectAntiPatterns(context, registry, options.detector);

  RankingModel model(options.ranking_weights, options.ranking_mode);
  std::vector<RankedDetection> ranked = model.Rank(detections);
  FixEngine repair(registry, options.detector);
  Report report;
  for (auto& r : ranked) {
    Finding finding;
    finding.fix = options.suggest_fixes ? repair.SuggestFix(r.detection, context) : Fix{};
    finding.ranked = std::move(r);
    report.findings.push_back(std::move(finding));
  }
  return report;
}

/// Full serialized form — ToText and ToJson together catch every field.
std::string Serialize(const Report& report) {
  return report.ToText() + "\n---\n" + report.ToJson();
}

std::vector<std::string> ScriptStatements() {
  std::vector<std::string> out;
  for (std::string_view piece : sql::SplitStatements(kScript)) out.emplace_back(piece);
  return out;
}

TEST(SessionTest, EveryPrefixMatchesBatch) {
  std::vector<std::string> statements = ScriptStatements();
  ASSERT_GE(statements.size(), 10u);

  AnalysisSession session;  // one long-lived session, statements stream in
  std::vector<std::string> prefix;
  for (const auto& stmt : statements) {
    session.AddQuery(stmt);
    prefix.push_back(stmt);
    EXPECT_EQ(Serialize(session.Snapshot()),
              Serialize(ReferencePipeline(prefix, SqlCheckOptions{})))
        << "prefix length " << prefix.size();
  }
}

TEST(SessionTest, ChunkPermutationsMatchBatchOnSameOrder) {
  std::vector<std::string> statements = ScriptStatements();
  const size_t third = statements.size() / 3;
  std::vector<std::vector<std::string>> chunks = {
      {statements.begin(), statements.begin() + third},
      {statements.begin() + third, statements.begin() + 2 * third},
      {statements.begin() + 2 * third, statements.end()},
  };

  for (const std::vector<size_t>& order :
       std::vector<std::vector<size_t>>{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}}) {
    AnalysisSession session;
    std::vector<std::string> fed_order;
    for (size_t c : order) {
      std::string chunk_script;
      for (const auto& stmt : chunks[c]) {
        chunk_script += stmt;
        // ';' on its own line: a piece ending in a '--' comment must not
        // swallow the separator when the chunk is re-split.
        chunk_script += "\n;\n";
        fed_order.push_back(stmt);
      }
      session.AddScript(chunk_script);
    }
    EXPECT_EQ(Serialize(session.Snapshot()),
              Serialize(ReferencePipeline(fed_order, SqlCheckOptions{})))
        << "chunk order " << order[0] << order[1] << order[2];
  }
}

TEST(SessionTest, SnapshotIsIdempotentAndAppendable) {
  AnalysisSession session;
  session.AddScript(kScript);
  std::string first = Serialize(session.Snapshot());
  EXPECT_EQ(Serialize(session.Snapshot()), first);

  session.AddQuery("SELECT * FROM orders");
  std::string grown = Serialize(session.Snapshot());
  EXPECT_NE(grown, first);
  EXPECT_EQ(grown, Serialize(session.Snapshot()));
}

TEST(SessionTest, MatchesBatchWithDedupOff) {
  // The session always groups; the reference is identity-grouped.
  AnalysisSession session;
  std::vector<std::string> statements = ScriptStatements();
  for (const auto& stmt : statements) session.AddQuery(stmt);
  EXPECT_GT(statements.size(), session.unique_count());
  EXPECT_EQ(Serialize(session.Snapshot()),
            Serialize(ReferencePipeline(statements, SqlCheckOptions{})));
}

TEST(SessionTest, VerbatimRepeatsAfterArenaGrowthHitTheMemo) {
  // The raw memo keys are views into arena-owned statement text. Grow the
  // arena by several chunks of fresh statements, then re-send the first
  // chunk verbatim: every repeat must hit the memo (no new group), and the
  // report must still match the identity-grouped batch build.
  std::vector<std::string> statements = ScriptStatements();
  AnalysisSession session;
  std::string first_chunk;
  for (const auto& stmt : statements) first_chunk += stmt + "\n;\n";
  session.AddScript(first_chunk);
  std::vector<std::string> fed = statements;
  for (int chunk = 0; chunk < 8; ++chunk) {
    std::string script;
    for (int k = 0; k < 200; ++k) {
      std::string stmt = "SELECT c" + std::to_string(k) + ", '" +
                         std::string(64, static_cast<char>('a' + chunk)) +
                         "' FROM growth_" + std::to_string(chunk) + " WHERE id = " +
                         std::to_string(k);
      script += stmt + ";\n";
      fed.push_back(std::move(stmt));
    }
    session.AddScript(script);
  }
  const size_t before = session.unique_count();
  ASSERT_GT(session.Usage().arena_reserved_bytes, size_t{1} << 17);
  session.AddScript(first_chunk);
  fed.insert(fed.end(), statements.begin(), statements.end());
  EXPECT_EQ(session.unique_count(), before);
  EXPECT_EQ(session.statement_count(), fed.size());
  EXPECT_EQ(Serialize(session.Snapshot()),
            Serialize(ReferencePipeline(fed, SqlCheckOptions{})));
}

TEST(SessionTest, MatchesBatchAtEveryParallelism) {
  std::vector<std::string> statements = ScriptStatements();
  std::string reference = Serialize(ReferencePipeline(statements, SqlCheckOptions{}));
  for (int threads : {1, 2, 4, 0}) {
    SqlCheckOptions options;
    options.parallelism = threads;
    AnalysisSession session(options);
    for (const auto& stmt : statements) session.AddQuery(stmt);
    EXPECT_EQ(Serialize(session.Snapshot()), reference) << "threads=" << threads;
  }
}

TEST(SessionTest, CorpusWorkloadWithDatabaseMatchesBatch) {
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 12;
  std::vector<std::string> statements;
  for (const auto& labeled : workload::GenerateCorpus(corpus_options).AllStatements()) {
    statements.push_back(labeled.sql);
  }

  Database db;
  Executor exec(&db);
  exec.ExecuteScript(R"sql(
CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(40), status TEXT,
                    password VARCHAR(32), created_at TEXT);
)sql");
  for (int i = 0; i < 16; ++i) {
    std::string n = std::to_string(i);
    exec.ExecuteSql("INSERT INTO users VALUES (" + n + ", 'user" + n +
                    "', 'active', 'hunter2', '2019-07-04 12:00:00')");
  }

  // Attach-early and attach-late sessions must both match the batch build.
  std::string reference =
      Serialize(ReferencePipeline(statements, SqlCheckOptions{}, &db));

  AnalysisSession early;
  early.AttachDatabase(&db);
  for (const auto& stmt : statements) early.AddQuery(stmt);
  EXPECT_EQ(Serialize(early.Snapshot()), reference);

  AnalysisSession late;
  for (const auto& stmt : statements) late.AddQuery(stmt);
  late.AttachDatabase(&db);
  EXPECT_EQ(Serialize(late.Snapshot()), reference);
}

TEST(SessionTest, RepeatedStatementReusesFingerprintMemo) {
  AnalysisSession session;
  session.AddQuery("SELECT * FROM users WHERE id = ?");
  for (int i = 0; i < 100; ++i) {
    session.AddQuery("SELECT * FROM users WHERE id = ?");
    session.AddQuery("select * from users where id = ?");  // case jitter
  }
  EXPECT_EQ(session.statement_count(), 201u);
  EXPECT_EQ(session.unique_count(), 1u);
}

TEST(SessionTest, CheckReportsFindingsForAppendedStatementOnly) {
  AnalysisSession session;
  session.AddScript(
      "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8));"
      "SELECT * FROM t;");

  Report delta = session.Check("SELECT v FROM t ORDER BY RAND()");
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta.findings[0].ranked.detection.type, AntiPattern::kOrderingByRand);
  // The wildcard finding from the earlier statement is not replayed...
  for (const auto& f : delta.findings) {
    EXPECT_NE(f.ranked.detection.type, AntiPattern::kColumnWildcard);
  }
  // ...but the full snapshot still carries both.
  Report full = session.Snapshot();
  EXPECT_EQ(full.CountsByType().count(AntiPattern::kColumnWildcard), 1u);
  EXPECT_EQ(full.CountsByType().count(AntiPattern::kOrderingByRand), 1u);
}

TEST(SessionTest, CheckOnDuplicateUsesCachedGroup) {
  AnalysisSession session;
  Report first = session.Check("SELECT * FROM users");
  ASSERT_EQ(first.size(), 1u);
  size_t uniques = session.unique_count();

  Report again = session.Check("select  *  from users  -- dup");
  EXPECT_EQ(session.unique_count(), uniques);  // memo hit, no new analysis
  ASSERT_EQ(again.size(), 1u);
  // Rebased onto the duplicate occurrence's own raw text.
  EXPECT_EQ(again.findings[0].ranked.detection.query, "select  *  from users  -- dup");
  EXPECT_EQ(again.findings[0].ranked.detection.type,
            first.findings[0].ranked.detection.type);
}

// ------------------------------ disabled rules ------------------------------

TEST(SessionTest, DisabledRulesAreHonored) {
  SqlCheckOptions options;
  options.disabled_rules = {"Column Wildcard Usage", "ordering by rand"};  // any case
  AnalysisSession session(options);
  EXPECT_TRUE(session.status().ok());
  session.AddScript(kScript);
  Report report = session.Snapshot();
  EXPECT_FALSE(report.empty());
  for (const auto& f : report.findings) {
    EXPECT_NE(f.ranked.detection.type, AntiPattern::kColumnWildcard);
    EXPECT_NE(f.ranked.detection.type, AntiPattern::kOrderingByRand);
  }
  // And the session output still matches a batch run with the same options.
  EXPECT_EQ(Serialize(session.Snapshot()),
            Serialize(ReferencePipeline(ScriptStatements(), options)));
}

TEST(SessionTest, UnknownDisabledRuleSurfacesErrorStatus) {
  SqlCheckOptions options;
  options.disabled_rules = {"Not A Rule"};
  AnalysisSession session(options);
  EXPECT_FALSE(session.status().ok());
  EXPECT_NE(session.status().message().find("Not A Rule"), std::string::npos);
  // The full rule set stays active.
  session.AddQuery("SELECT * FROM users");
  EXPECT_EQ(session.Snapshot().size(), 1u);
}

TEST(RuleRegistryTest, DisableRemovesMatchingRulesOnly) {
  RuleRegistry registry = RuleRegistry::Default();
  size_t all = registry.size();
  EXPECT_TRUE(registry.Disable({"Too Many Joins"}).ok());
  EXPECT_EQ(registry.size(), all - 1);
  for (const auto& rule : registry.rules()) {
    EXPECT_NE(rule->type(), AntiPattern::kTooManyJoins);
  }
  // Unknown names error and leave the registry unchanged.
  EXPECT_FALSE(registry.Disable({"Bogus"}).ok());
  EXPECT_EQ(registry.size(), all - 1);
}

// -------------------------- facade / one-shot paths -------------------------

TEST(SessionTest, FindAntiPatternsMatchesSessionAndFacade) {
  const char* sql = "SELECT DISTINCT a.x FROM a JOIN b ON a.id = b.a_id ORDER BY RAND()";

  AnalysisSession session;
  session.AddQuery(sql);
  std::string via_session = Serialize(session.Snapshot());

  SqlCheck checker;
  checker.AddQuery(sql);
  std::string via_facade = Serialize(checker.Run());

  EXPECT_EQ(Serialize(FindAntiPatterns(sql)), via_session);
  EXPECT_EQ(via_facade, via_session);
  EXPECT_EQ(via_session, Serialize(ReferencePipeline({sql}, SqlCheckOptions{})));
}

TEST(SessionTest, QuotaGatesWholeScript) {
  // A script that would cross the byte cap is refused whole at the gate —
  // not even the statements that would have fit are ingested.
  SqlCheckOptions options;
  options.limits.max_ingest_bytes = std::string_view(kScript).size() / 2;
  AnalysisSession session(options);
  EXPECT_EQ(session.AddScript(kScript), 0u);
  EXPECT_FALSE(session.quota_status().ok());
  EXPECT_EQ(session.statement_count(), 0u);
}

TEST(SessionTest, MidSessionQuotaBreachIsSticky) {
  // The first bulk load fits; the second crosses the byte cap and must be
  // refused whole, leaving the session frozen (but fully queryable) at
  // first-load state. A retry stays refused: quotas only tighten as the
  // session grows.
  const std::string first = kScript;
  const std::string second =
      first + "SELECT note FROM audit_log WHERE actor_id = 7;\n";  // new names
  SqlCheckOptions options;
  options.limits.max_ingest_bytes = first.size() + second.size() / 2;
  AnalysisSession session(options);

  ASSERT_GT(session.AddScript(first), 0u);
  ASSERT_TRUE(session.quota_status().ok());
  const std::string before = Serialize(session.Snapshot());
  const SessionUsage usage_before = session.Usage();

  EXPECT_EQ(session.AddScript(second), 0u);
  EXPECT_FALSE(session.quota_status().ok());
  const SessionUsage usage_after = session.Usage();
  EXPECT_EQ(usage_after.statements, usage_before.statements);
  EXPECT_EQ(usage_after.ingested_bytes, usage_before.ingested_bytes);
  EXPECT_EQ(usage_after.interner_names, usage_before.interner_names);
  EXPECT_EQ(before, Serialize(session.Snapshot()));

  EXPECT_EQ(session.AddScript(second), 0u);  // sticky: the retry is refused too
  EXPECT_EQ(session.statement_count(), usage_before.statements);
}

// --------------------------------- fix path ---------------------------------

// Leading-wildcard LIKEs: Pattern Matching is statement-local on both halves,
// so its fixes go through the per-group fix cache.
const char* kLikeScript = R"sql(
CREATE TABLE users (id INT PRIMARY KEY, email VARCHAR(64), name VARCHAR(64));
SELECT id FROM users WHERE email LIKE '%@example.com';
select id from users where email like '%@example.com';
SELECT  id  FROM users WHERE email LIKE '%@example.com'  -- spaced
;
SELECT id FROM users WHERE name LIKE '%son';
SELECT * FROM users WHERE name LIKE '%ann%';
SELECT id FROM users WHERE email LIKE '%@example.com';
)sql";

TEST(SessionFixPathTest, EverySpellingOfADuplicateGetsItsOwnAnchor) {
  AnalysisSession session;
  session.AddScript(kLikeScript);
  Report report = session.Snapshot();
  const std::vector<QueryFacts>& queries = session.context().queries();
  size_t pattern_rewrites = 0;
  std::set<std::string> anchors;
  for (const Finding& f : report.findings) {
    const Detection& d = f.ranked.detection;
    ASSERT_LT(d.statement, queries.size());
    EXPECT_EQ(d.query, queries[d.statement].raw_sql);
    if (d.type != AntiPattern::kPatternMatching || f.fix.kind != FixKind::kRewrite) {
      continue;
    }
    ++pattern_rewrites;
    EXPECT_EQ(f.fix.original_sql, queries[d.statement].raw_sql);
    if (f.fix.original_sql.find("example.com") != std::string::npos) {
      anchors.insert(f.fix.original_sql);
    }
  }
  EXPECT_EQ(pattern_rewrites, 5u);
  // Three spellings of the same statement (the fourth occurrence repeats
  // the first verbatim), each anchored to itself.
  EXPECT_EQ(anchors.size(), 3u);
  EXPECT_GE(session.fix_cache_hits(), 3u);
  // And the replayed fixes are what the reference pipeline computes cold.
  std::vector<std::string> statements;
  for (std::string_view piece : sql::SplitStatements(kLikeScript)) {
    statements.emplace_back(piece);
  }
  EXPECT_EQ(Serialize(report), Serialize(ReferencePipeline(statements, {})));
}

TEST(SessionFixPathTest, SecondSnapshotServesCachedFixesWithoutVerifying) {
  AnalysisSession session;
  session.AddScript(kScript);
  session.AddScript(kLikeScript);
  Report first = session.Snapshot();
  const size_t hits = session.fix_cache_hits();
  const size_t misses = session.fix_cache_misses();
  const size_t verify_misses = session.verify_stats().memo_misses;
  ASSERT_GT(misses, 0u);

  Report second = session.Snapshot();
  EXPECT_EQ(Serialize(second), Serialize(first));
  // Every cacheable finding of the first report is a cache hit now.
  EXPECT_EQ(session.fix_cache_misses(), misses);
  EXPECT_EQ(session.fix_cache_hits(), hits + hits + misses);
  // Nothing is verified afresh: statement-local fixes come from the fix
  // cache, workload-scope verdicts from the verdict memo.
  EXPECT_EQ(session.verify_stats().memo_misses, verify_misses);
}

TEST(SessionFixPathTest, CheckSuggestsTheFixesSnapshotDoes) {
  const std::string script = std::string(kScript) + kLikeScript;
  AnalysisSession checked;
  Report delta = checked.Check(script);
  AnalysisSession snapshotted;
  snapshotted.AddScript(script);
  // No database is attached, so the snapshot has no data findings either.
  EXPECT_EQ(Serialize(delta), Serialize(snapshotted.Snapshot()));

  // Appended after a history, Check's fixes match the snapshot's for the
  // same statements.
  AnalysisSession session;
  session.AddScript(kScript);
  Report appended = session.Check(kLikeScript);
  Report full = session.Snapshot();
  ASSERT_FALSE(appended.empty());
  for (const Finding& f : appended.findings) {
    const Detection& d = f.ranked.detection;
    bool matched = false;
    for (const Finding& g : full.findings) {
      const Detection& e = g.ranked.detection;
      if (e.statement != d.statement || e.type != d.type || e.table != d.table ||
          e.column != d.column) {
        continue;
      }
      matched = true;
      EXPECT_EQ(f.fix.kind, g.fix.kind) << d.query;
      EXPECT_EQ(f.fix.original_sql, g.fix.original_sql);
      EXPECT_EQ(f.fix.statements, g.fix.statements);
      EXPECT_EQ(f.fix.verify_tier, g.fix.verify_tier);
      EXPECT_EQ(f.fix.explanation, g.fix.explanation);
    }
    EXPECT_TRUE(matched) << d.query;
  }
}

TEST(SessionFixPathTest, QueryThatIsNotTheStatementFallsBackToTextLookup) {
  // A statement-local Pattern Matching rule that reports statement B's
  // finding against statement A's text. Its fix must come from A's group
  // (the text lookup), not from the group of B, the statement it is
  // stamped with — B's group caches a different rewrite under the same key.
  static constexpr const char* kA = "SELECT id FROM users WHERE email LIKE '%@a.com'";
  static constexpr const char* kB = "SELECT id FROM users WHERE email LIKE '%@b.com'";
  class ElsewhereRule final : public Rule {
   public:
    AntiPattern type() const override { return AntiPattern::kPatternMatching; }
    QueryRuleScope query_scope() const override {
      return QueryRuleScope::kStatementLocal;
    }
    void CheckQuery(const QueryFacts& facts, const Context&, const DetectorConfig&,
                    std::vector<Detection>* out) const override {
      if (facts.raw_sql != kB) return;
      Detection d;
      d.type = type();
      d.table = "users";
      d.column = "email";
      d.query = kA;
      d.stmt = facts.stmt;
      d.message = "elsewhere";
      out->push_back(std::move(d));
    }
  };

  AnalysisSession session;
  session.RegisterRule(std::make_unique<ElsewhereRule>());
  session.AddScript(std::string(kA) + ";\n" + kB + ";\n");
  Report report = session.Snapshot();
  const Fix* a_fix = nullptr;
  const Fix* b_fix = nullptr;
  const Finding* elsewhere = nullptr;
  for (const Finding& f : report.findings) {
    const Detection& d = f.ranked.detection;
    if (d.type != AntiPattern::kPatternMatching) continue;
    if (d.message == "elsewhere") {
      elsewhere = &f;
    } else if (d.query == kA) {
      a_fix = &f.fix;
    } else if (d.query == kB) {
      b_fix = &f.fix;
    }
  }
  ASSERT_NE(a_fix, nullptr);
  ASSERT_NE(b_fix, nullptr);
  ASSERT_NE(elsewhere, nullptr);
  ASSERT_EQ(a_fix->kind, FixKind::kRewrite);
  EXPECT_NE(a_fix->statements, b_fix->statements);
  EXPECT_EQ(elsewhere->ranked.detection.statement, 1u);  // stamped with B
  EXPECT_EQ(elsewhere->fix.original_sql, kA);
  EXPECT_EQ(elsewhere->fix.statements, a_fix->statements);
}

TEST(SessionTest, CustomRuleRegisteredLateCoversEarlierStatements) {
  class UpdateEverythingRule final : public Rule {
   public:
    AntiPattern type() const override { return AntiPattern::kImplicitColumns; }
    void CheckQuery(const QueryFacts& facts, const Context& context,
                    const DetectorConfig& config,
                    std::vector<Detection>* out) const override {
      (void)context;
      (void)config;
      if (facts.kind != sql::StatementKind::kUpdate) return;
      Detection d;
      d.type = type();
      d.query = facts.raw_sql;
      d.message = "custom: update spotted";
      out->push_back(d);
    }
  };

  AnalysisSession session;
  session.AddQuery("UPDATE t SET a = 1");  // ingested before the rule exists
  session.RegisterRule(std::make_unique<UpdateEverythingRule>());
  Report report = session.Snapshot();
  bool found = false;
  for (const auto& f : report.findings) {
    if (f.ranked.detection.message == "custom: update spotted") found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace sqlcheck
