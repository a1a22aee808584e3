#include "analysis/context.h"

#include <algorithm>
#include <atomic>
#include <new>
#include <utility>

#include "analysis/query_analyzer.h"
#include "common/failpoint.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

namespace sqlcheck {

std::vector<const QueryFacts*> Context::QueriesReferencing(std::string_view table) const {
  std::vector<const QueryFacts*> out;
  const std::vector<size_t>* refs = stats_.StatementsReferencing(table);
  if (refs != nullptr) {
    out.reserve(refs->size());
    for (size_t i : *refs) out.push_back(&query_facts_[i]);
  }
  return out;
}

int Context::EqualityUseCount(std::string_view table, std::string_view column) const {
  return stats_.EqualityUseCount(table, column);
}

bool Context::TablesJoined(std::string_view left, std::string_view right) const {
  return stats_.TablesJoined(left, right);
}

bool Context::ForeignKeyExists(std::string_view left, std::string_view right) const {
  auto has_fk = [&](std::string_view from, std::string_view to) {
    const TableSchema* schema = catalog_.FindTable(from);
    if (schema == nullptr) return false;
    for (const auto& fk : schema->foreign_keys) {
      if (EqualsIgnoreCase(fk.ref_table, to)) return true;
    }
    return false;
  };
  return has_fk(left, right) || has_fk(right, left);
}

bool Context::ColumnNullable(std::string_view table, std::string_view column) const {
  const TableSchema* schema = catalog_.FindTable(table);
  if (schema == nullptr) return true;
  const ColumnSchema* col = schema->FindColumn(column);
  if (col == nullptr) return true;
  return !col->not_null;
}

void ContextBuilder::AddQuery(std::string_view sql_text) {
  statements_.push_back(sql::ParseStatement(sql_text, arena_.get(), &buffer_));
}

void ContextBuilder::AddScript(std::string_view script) {
  for (auto& stmt : sql::ParseScript(script, arena_.get(), &buffer_)) {
    statements_.push_back(std::move(stmt));
  }
}

void ContextBuilder::AttachDatabase(const Database* db, DataAnalyzerOptions options) {
  database_ = db;
  data_options_ = options;
}

Context ContextBuilder::Build(int parallelism, ThreadPool* pool, bool dedup_queries) {
  Context context;
  // The accumulated statements live in the builder's arena; hand it over
  // (and start a fresh one so the builder stays usable).
  context.arena_ = std::move(arena_);
  arena_ = std::make_unique<Arena>();
  context.database_ = database_;

  // Catalog baseline: live database schema when available, which the
  // append's DDL replay then augments (or, without one, constructs).
  if (database_ != nullptr) {
    context.catalog_ = database_->BuildCatalog();
    context.data_ = AnalyzeDatabase(*database_, data_options_);
  }
  context.Append(std::exchange(statements_, {}), parallelism, pool, dedup_queries,
                 buffer_);
  return context;
}

namespace {

/// Reserves room for `extra` more elements without defeating geometric
/// growth: a bare reserve(size()+1) on every chunk-of-1 append would
/// reallocate the whole container each time, turning a statement-at-a-time
/// session O(n^2).
template <typename Vec>
void GrowFor(Vec& v, size_t extra) {
  const size_t need = v.size() + extra;
  if (need > v.capacity()) v.reserve(std::max(need, v.capacity() * 2));
}

}  // namespace

size_t Context::MemoGroup(std::string_view raw, sql::TokenBuffer& buffer,
                          uint64_t* fingerprint) {
  const QueryGroups& groups = query_groups_;
  auto raw_it = raw_groups_.find(raw);
  if (raw_it != raw_groups_.end()) {
    *fingerprint = groups.fingerprints[groups.unique[raw_it->second]];
    return raw_it->second;
  }
  if (SQLCHECK_SCOPED_FAILPOINT("memo_insert")) throw std::bad_alloc();
  const std::string canonical =
      sql::CanonicalizeSql(raw, sql::FingerprintOptions::Exact(), &buffer);
  *fingerprint = sql::FingerprintCanonical(canonical);
  const size_t fresh = groups.unique.size();
  size_t g = fresh;
  auto [lo, hi] = fingerprint_groups_.equal_range(*fingerprint);
  for (auto it = lo; it != hi && g == fresh; ++it) {
    const std::string_view rep_raw(statements_[groups.unique[it->second]]->raw_sql);
    if (sql::CanonicalizeSql(rep_raw, sql::FingerprintOptions::Exact(), &buffer) ==
        canonical) {
      g = it->second;
    }
  }
  auto fp_it = g == fresh ? fingerprint_groups_.emplace(*fingerprint, g)
                          : fingerprint_groups_.end();
  try {
    raw_groups_.emplace(raw, g);
  } catch (...) {
    if (g == fresh) fingerprint_groups_.erase(fp_it);
    throw;
  }
  return g;
}

IngestResult Context::Append(std::vector<sql::StatementPtr> stmts, int parallelism,
                             ThreadPool* pool, bool memo, sql::TokenBuffer& buffer) {
  IngestResult result;
  if (stmts.empty()) return result;
  const size_t first = statements_.size();
  QueryGroups& groups = query_groups_;
  const size_t first_group = groups.unique.size();

  // Size everything for the whole append up front: the per-statement pushes
  // below then cannot throw, so a memo-step fault (the only fallible step of
  // the serial pass) always observes a consistent context.
  GrowFor(statements_, stmts.size());
  GrowFor(query_facts_, stmts.size());
  GrowFor(groups.representative, stmts.size());
  GrowFor(groups.group, stmts.size());
  GrowFor(groups.unique, stmts.size());
  if (memo) GrowFor(groups.fingerprints, stmts.size());

  // Step 1, serial: memo, DDL replay, slots. A repeated spelling costs one
  // hash probe here; only a raw-memo miss canonicalizes.
  for (auto& stmt : stmts) {
    const size_t i = statements_.size();
    size_t g = groups.unique.size();  // a new group unless the memo finds one
    uint64_t fingerprint = 0;
    if (memo) {
      // The memo step allocates (canonical form, memo nodes), so it can
      // fault: for real under memory pressure, on demand under the
      // memo_insert failpoint. MemoGroup rolls a half-done insert back, so
      // a retry starts from a consistent memo.
      bool memo_ok = false;
      std::string memo_error;
      const std::string_view raw(stmt->raw_sql);
      for (int attempt = 0; attempt < kFaultRetryAttempts && !memo_ok; ++attempt) {
        try {
          FailpointScope fault_scope;  // memo allocations are a chaos seam
          g = MemoGroup(raw, buffer, &fingerprint);
          memo_ok = true;
          if (attempt > 0) ++result.faults_recovered;
        } catch (const std::exception& e) {
          memo_error = e.what();
        }
      }
      if (!memo_ok) {
        // Dropped whole: it never touched the catalog, the groups or the
        // aggregates, so the context is what it would be without it.
        result.failures.push_back(
            {IngestFailure::Stage::kMemo, std::string(raw), std::move(memo_error), 0});
        continue;
      }
      groups.fingerprints.push_back(fingerprint);
    }
    // DDL replays after the fallible memo step on purpose: a dropped
    // statement must leave no catalog effect behind.
    catalog_.ApplyDdl(*stmt);  // ignores DML; duplicate DDL is a no-op
    if (g == groups.unique.size()) groups.unique.push_back(i);
    groups.representative.push_back(groups.unique[g]);
    groups.group.push_back(g);
    statements_.push_back(std::move(stmt));
    query_facts_.emplace_back();
  }

  const size_t n = statements_.size();
  const size_t new_groups = groups.unique.size() - first_group;
  const int threads = ThreadPool::ResolveParallelism(parallelism);
  std::unique_ptr<ThreadPool> transient;
  if (pool == nullptr && threads > 1 && n - first > 1) {
    transient = std::make_unique<ThreadPool>(threads);
    pool = transient.get();
  }

  // Step 2, sharded: analyze each new group's representative into its own
  // slot, so the build order never shows. Pool tasks must not throw, so each
  // analysis retries in the task; a persistent fault leaves empty facts and
  // a failure entry in the shard's buffer, merged in shard order.
  std::vector<std::vector<IngestFailure>> shard_failures(
      static_cast<size_t>(std::max(threads, 1)));
  std::atomic<uint64_t> analysis_recovered{0};
  ParallelShards(
      new_groups, threads,
      [&](int shard, size_t begin, size_t end) {
        for (size_t x = begin; x < end; ++x) {
          const size_t g = first_group + x;
          const size_t i = groups.unique[g];
          for (int attempt = 0;; ++attempt) {
            try {
              FailpointScope fault_scope;  // thread_local: opened per worker
              query_facts_[i] = AnalyzeQuery(*statements_[i]);
              if (attempt > 0) analysis_recovered.fetch_add(1, std::memory_order_relaxed);
              break;
            } catch (const std::exception& e) {
              if (attempt + 1 < kFaultRetryAttempts) continue;
              query_facts_[i] = QueryFacts{};
              shard_failures[static_cast<size_t>(shard)].push_back(
                  {IngestFailure::Stage::kAnalysis, std::string(statements_[i]->raw_sql),
                   e.what(), g});
              break;
            }
          }
        }
      },
      pool);
  result.faults_recovered += analysis_recovered.load(std::memory_order_relaxed);
  for (auto& failures : shard_failures) {
    for (auto& failure : failures) result.failures.push_back(std::move(failure));
  }

  // Step 3, sharded: duplicates take a copy of their group's facts rebased
  // onto their own raw text and parse tree, which is exactly what a fresh
  // analysis would produce. The copies only read representative slots
  // (already final) and write duplicate slots, so they shard race-free.
  ParallelShards(
      n - first, threads,
      [&](int /*shard*/, size_t begin, size_t end) {
        for (size_t i = first + begin; i < first + end; ++i) {
          const size_t rep = groups.representative[i];
          if (rep != i) query_facts_[i] = RebaseFacts(query_facts_[rep], *statements_[i]);
        }
      },
      pool);

  // Step 4, serial: fold every statement into the workload aggregates in
  // workload order; the queryable interface answers from these.
  for (size_t i = first; i < n; ++i) stats_.AddStatementFacts(i, query_facts_[i]);
  return result;
}

}  // namespace sqlcheck
