#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/data_analyzer.h"
#include "analysis/data_context.h"
#include "analysis/query_context.h"
#include "analysis/workload_stats.h"
#include "catalog/catalog.h"
#include "common/arena.h"
#include "sql/ast.h"
#include "sql/lexer.h"
#include "storage/database.h"

namespace sqlcheck {

class ThreadPool;

/// \brief Query fingerprint grouping produced by the statement memo: every
/// statement maps to the first statement with the same exact-canonical form
/// (whitespace/comment/keyword-case folded, literal text preserved — see
/// sql::FingerprintOptions::Exact()). Statements in one group are guaranteed
/// to produce identical QueryFacts modulo their raw text and parse tree, so
/// analysis and rule evaluation run once per group. A context built with
/// ContextBuilder::Build(..., /*dedup_queries=*/false) carries the identity
/// mapping instead: the reference the grouped path is tested against.
struct QueryGroups {
  /// Statement index -> index of its group's representative (first
  /// occurrence). `representative[i] == i` iff statement i leads a group.
  std::vector<size_t> representative;
  /// Statement index -> its group's position in `unique`, so
  /// `unique[group[i]] == representative[i]`.
  std::vector<size_t> group;
  /// Representative indices in ascending statement order.
  std::vector<size_t> unique;
  /// Per-statement exact-canonical 64-bit fingerprint (empty for the
  /// identity grouping).
  std::vector<uint64_t> fingerprints;

  size_t unique_count() const { return unique.size(); }
  bool has_duplicates() const { return unique.size() < representative.size(); }
};

/// \brief A statement the context append could not fully process. Only a
/// fault that outlives every retry produces one (under fault injection, or
/// real allocation failure).
struct IngestFailure {
  enum class Stage {
    kMemo,      ///< Memo step failed: the statement was dropped whole.
    kAnalysis,  ///< Analysis failed: the statement landed with empty facts.
  };
  Stage stage = Stage::kMemo;
  std::string sql;    ///< The statement's raw text.
  std::string error;  ///< What the last attempt threw.
  size_t group = 0;   ///< kAnalysis: the statement's position in unique.
};

/// \brief What one context append reports to its caller.
struct IngestResult {
  std::vector<IngestFailure> failures;  ///< Memo failures, then analysis ones.
  uint64_t faults_recovered = 0;        ///< Faults a retry absorbed.
};

/// \brief The application context of Algorithm 1: the catalog (from DDL or a
/// live database), the analyzed queries, and optional data profiles. It
/// exposes the queryable interface the inter-query and data rules consume.
class Context {
 public:
  const Catalog& catalog() const { return catalog_; }
  const std::vector<QueryFacts>& queries() const { return query_facts_; }
  const DataContext& data() const { return data_; }
  const Database* database() const { return database_; }
  bool has_data() const { return !data_.empty(); }

  /// Fingerprint grouping of the workload. DetectAntiPatterns and the
  /// session use it to evaluate query rules once per group.
  const QueryGroups& query_groups() const { return query_groups_; }

  /// Maintained workload aggregates backing the queryable interface below.
  /// ContextBuilder populates them at Build(); AnalysisSession folds each
  /// statement in as it streams, so the O(1) answers stay current.
  /// Invariant: every statement in queries() has been folded in, i.e.
  /// stats().statement_count() == queries().size(). Append is the only
  /// writer of either, so the queryable interface answers from the
  /// aggregates alone.
  const WorkloadStats& stats() const { return stats_; }

  /// Case-insensitive table/column name table populated as statements fold
  /// into the aggregates (one instance per Context; see NameInterner).
  const NameInterner& names() const { return stats_.names(); }

  /// The arena owning this context's parse trees. Statements placed here
  /// must not outlive the Context. Stable address for the Context's life
  /// (moved Contexts keep the same arena).
  Arena* arena() { return arena_.get(); }

  /// Parse-tree arena accounting (quota checks and SessionUsage).
  size_t arena_reserved_bytes() const { return arena_->bytes_reserved(); }
  size_t arena_used_bytes() const { return arena_->bytes_used(); }

  // ------------------------ queryable interface ----------------------------
  /// Queries referencing a table.
  std::vector<const QueryFacts*> QueriesReferencing(std::string_view table) const;

  /// How many equality predicates/join edges across the workload touch
  /// `table.column` (signals Index Underuse when unindexed).
  int EqualityUseCount(std::string_view table, std::string_view column) const;

  /// True if any query joins `left` and `right` on any columns.
  bool TablesJoined(std::string_view left, std::string_view right) const;

  /// True if the catalog records a foreign key between the two tables (in
  /// either direction).
  bool ForeignKeyExists(std::string_view left, std::string_view right) const;

  /// The table profile for `table`, or nullptr without data analysis.
  const TableProfile* ProfileFor(std::string_view table) const { return data_.Find(table); }

  /// True if the schema column is nullable (unknown tables count as nullable).
  bool ColumnNullable(std::string_view table, std::string_view column) const;

 private:
  friend class ContextBuilder;
  friend class AnalysisSession;

  /// The one ingest behind ContextBuilder::Build and AnalysisSession: appends
  /// `stmts` (parsed into arena()) to the workload in four steps.
  ///  1. Serial: the statement memo assigns each statement its group, DDL
  ///     replays into the catalog, and every slot is allocated.
  ///  2. Sharded: analysis of the groups this append created.
  ///  3. Sharded: each duplicate takes its group's facts, rebased onto its
  ///     own raw text and parse tree.
  ///  4. Serial: every statement folds into the workload stats.
  /// `memo = false` skips the memo and gives every statement its own group
  /// (the identity reference). Fault contract: the memo step and analysis
  /// run in FailpointScopes and retry kFaultRetryAttempts times (the memo
  /// with rollback). A statement whose memo step keeps failing is dropped
  /// with no DDL effect and no memo entry; one whose analysis keeps failing
  /// keeps empty facts. Both are reported in the result.
  /// `buffer` is the caller's parse buffer, reused to lex each canonical
  /// form (its tokens are overwritten).
  IngestResult Append(std::vector<sql::StatementPtr> stmts, int parallelism,
                      ThreadPool* pool, bool memo, sql::TokenBuffer& buffer);

  /// The memo step of Append: the group of the statement spelled `raw`
  /// (whose fingerprint lands in `*fingerprint`), recording a new spelling
  /// or canonical form in the memo. A new group gets position
  /// query_groups().unique.size(). May throw (allocation, or the
  /// memo_insert failpoint on a raw-memo miss); it then leaves the memo as
  /// it found it.
  size_t MemoGroup(std::string_view raw, sql::TokenBuffer& buffer, uint64_t* fingerprint);

  /// The group of the first statement spelled `raw_sql`, or nullptr when
  /// no statement with that raw text has been grouped.
  const size_t* FindRawGroup(std::string_view raw_sql) const {
    auto it = raw_groups_.find(raw_sql);
    return it == raw_groups_.end() ? nullptr : &it->second;
  }

  Catalog catalog_;
  /// Owns every arena-tier parse tree in statements_ (created up front so
  /// incremental sessions can keep parsing into it). Held by pointer so the
  /// arena address survives Context moves.
  std::unique_ptr<Arena> arena_ = std::make_unique<Arena>();
  std::vector<sql::StatementPtr> statements_;  ///< Owned parse trees.
  std::vector<QueryFacts> query_facts_;
  QueryGroups query_groups_;
  /// The statement memo, kept across appends. Raw spelling -> group, keyed
  /// by views into the arena-owned Statement::raw_sql of each spelling's
  /// first occurrence, so no key is a copy of statement text. Fingerprint
  /// -> group for each distinct exact-canonical form; a hit is confirmed by
  /// comparing canonical forms, so a 64-bit collision never merges two
  /// statements.
  std::unordered_map<std::string_view, size_t> raw_groups_;
  std::unordered_multimap<uint64_t, size_t> fingerprint_groups_;
  WorkloadStats stats_;
  DataContext data_;
  const Database* database_ = nullptr;  ///< Non-owning; may be null.
};

/// \brief Builds a Context from queries and (optionally) a database
/// connection, per Algorithm 1. When no database is attached, the catalog is
/// reconstructed purely from the DDL statements in the workload (§4.1).
class ContextBuilder {
 public:
  /// Adds one SQL statement (parsed internally).
  void AddQuery(std::string_view sql_text);

  /// Adds every statement in a script.
  void AddScript(std::string_view script);

  /// Attaches a live database: its schema becomes the catalog baseline and
  /// its tables are profiled by the data analyzer.
  void AttachDatabase(const Database* db, DataAnalyzerOptions options = {});

  /// Builds the context (consumes the builder's accumulated state): attaches
  /// the database, then makes one Context::Append of every statement. With
  /// `parallelism > 1`, per-statement query analysis is sharded across a
  /// ThreadPool; each statement's facts land in their original slot, so the
  /// result is identical to a serial build. `parallelism <= 0` uses every
  /// hardware thread. `pool` (optional) reuses an existing pool instead of
  /// spinning up a transient one.
  ///
  /// Statements are grouped by their exact-canonical form and the query
  /// analyzer runs once per group; duplicates receive a copy of the group's
  /// facts rebased onto their own raw text and parse tree. `dedup_queries =
  /// false` gives every statement its own group instead: the identity
  /// reference that tests and bench_fingerprint_dedup compare the grouped
  /// build against, byte for byte.
  Context Build(int parallelism = 1, ThreadPool* pool = nullptr,
                bool dedup_queries = true);

 private:
  std::unique_ptr<Arena> arena_ = std::make_unique<Arena>();  ///< Parse-tree arena.
  sql::TokenBuffer buffer_;  ///< Reused across AddQuery/AddScript parses.
  std::vector<sql::StatementPtr> statements_;
  const Database* database_ = nullptr;
  DataAnalyzerOptions data_options_;
};

}  // namespace sqlcheck
