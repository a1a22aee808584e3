// The six physical-design rules of Table 1: Rounding Errors, Enumerated
// Types, External Data Storage, Index Overuse, Index Underuse, and Clone
// Table.
#include "rules/builtins.h"

#include <map>
#include <set>

#include "common/strings.h"

namespace sqlcheck {

namespace {

const sql::CreateTableStatement* AsCreateTable(const QueryFacts& facts) {
  if (facts.stmt == nullptr) return nullptr;
  return facts.stmt->As<sql::CreateTableStatement>();
}

// ---------------------------------------------------------------------------
// Rounding Errors
// ---------------------------------------------------------------------------
class RoundingErrorsRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kRoundingErrors; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    const auto* create = AsCreateTable(facts);
    if (create == nullptr) return;
    for (const auto& col : create->columns) {
      DataType t = DataType::FromTypeName(col.type);
      if (!t.IsFiniteBinaryFloat()) continue;
      Detection d;
      d.type = type();
      d.source = DetectionSource::kIntraQuery;
      d.table = create->table;
      d.column = col.name;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "column '" + std::string(col.name) + "' stores fractional data as " + t.ToSql() +
                  "; binary floating point drifts under aggregation — use NUMERIC/DECIMAL";
      out->push_back(std::move(d));
    }
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr) return;
    for (const auto& col : schema->columns) {
      if (!col.type.IsFiniteBinaryFloat()) continue;
      const ColumnStats* stats = profile.stats.FindColumn(col.name);
      if (stats == nullptr || stats->row_count < config.min_rows_for_data_rules) continue;
      Detection d;
      d.type = type();
      d.source = DetectionSource::kDataAnalysis;
      d.table = profile.table;
      d.column = col.name;
      d.message = "column '" + col.name + "' holds fractional values in a " +
                  col.type.ToSql() + " column; sums/equality comparisons will drift";
      out->push_back(std::move(d));
    }
  }
};

// ---------------------------------------------------------------------------
// Enumerated Types
// ---------------------------------------------------------------------------
class EnumeratedTypesRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kEnumeratedTypes; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    if (facts.stmt == nullptr) return;

    if (const auto* create = facts.stmt->As<sql::CreateTableStatement>()) {
      for (const auto& col : create->columns) {
        DataType t = DataType::FromTypeName(col.type);
        if (t.id == TypeId::kEnum) {
          Emit(create->table, col.name, facts, "ENUM type", out);
        } else if (col.check && IsInListCheck(*col.check)) {
          Emit(create->table, col.name, facts, "CHECK (col IN (...)) constraint", out);
        }
      }
      for (const auto& con : create->constraints) {
        if (con.kind == sql::TableConstraintKind::kCheck && con.check != nullptr &&
            IsInListCheck(*con.check)) {
          Emit(create->table, CheckedColumn(*con.check), facts, "CHECK constraint", out);
        }
      }
      return;
    }
    if (const auto* alter = facts.stmt->As<sql::AlterTableStatement>()) {
      if (alter->action == sql::AlterAction::kAddConstraint &&
          alter->constraint.kind == sql::TableConstraintKind::kCheck &&
          alter->constraint.check != nullptr && IsInListCheck(*alter->constraint.check)) {
        Emit(alter->table, CheckedColumn(*alter->constraint.check), facts,
             "CHECK constraint (Example 4 of the paper)", out);
      }
    }
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr) return;
    for (const auto& col : schema->columns) {
      bool declared_enum = col.type.id == TypeId::kEnum;
      bool has_check = false;
      for (const auto& check : schema->checks) {
        if (ContainsIgnoreCase(check.expression_sql, col.name) &&
            ContainsIgnoreCase(check.expression_sql, " IN ")) {
          has_check = true;
        }
      }
      if (!declared_enum && !has_check) continue;
      const ColumnStats* stats = profile.stats.FindColumn(col.name);
      if (stats == nullptr || stats->row_count < config.min_rows_for_data_rules) continue;
      // §4.2 Example 4: ratio of distinct values to tuples below threshold.
      if (stats->DistinctRatio() > config.enum_distinct_ratio) continue;
      Detection d;
      d.type = type();
      d.source = DetectionSource::kDataAnalysis;
      d.table = profile.table;
      d.column = col.name;
      d.message = "column '" + col.name + "' takes only " +
                  std::to_string(stats->distinct_count) + " distinct values over " +
                  std::to_string(stats->row_count - stats->null_count) +
                  " rows and is domain-constrained; use a lookup table instead";
      out->push_back(std::move(d));
    }
  }

 private:
  static bool IsInListCheck(const sql::Expr& check) {
    bool found = false;
    sql::VisitExpr(check, false, [&](const sql::Expr& e) {
      if (e.kind == sql::ExprKind::kIn && !e.children.empty() &&
          e.children[0]->kind == sql::ExprKind::kColumnRef) {
        // All list members must be literals for this to be a domain restriction.
        bool all_literals = e.children.size() > 1;
        for (size_t i = 1; i < e.children.size(); ++i) {
          if (e.children[i]->kind != sql::ExprKind::kStringLiteral &&
              e.children[i]->kind != sql::ExprKind::kNumberLiteral) {
            all_literals = false;
          }
        }
        if (all_literals) found = true;
      }
    });
    return found;
  }

  static std::string CheckedColumn(const sql::Expr& check) {
    std::string column;
    sql::VisitExpr(check, false, [&](const sql::Expr& e) {
      if (column.empty() && e.kind == sql::ExprKind::kIn && !e.children.empty() &&
          e.children[0]->kind == sql::ExprKind::kColumnRef) {
        column = e.children[0]->ColumnName();
      }
    });
    return column;
  }

  void Emit(std::string_view table, std::string_view column, const QueryFacts& facts,
            std::string_view how, std::vector<Detection>* out) const {
    Detection d;
    d.type = type();
    d.source = DetectionSource::kIntraQuery;
    d.table = table;
    d.column = column;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "column '" + std::string(column) + "' restricts its domain via " +
                std::string(how) +
                "; renaming or extending values requires DDL — use a lookup table";
    out->push_back(std::move(d));
  }
};

// ---------------------------------------------------------------------------
// External Data Storage
// ---------------------------------------------------------------------------
class ExternalDataStorageRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kExternalDataStorage; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    const auto* create = AsCreateTable(facts);
    if (create == nullptr) return;
    for (const auto& col : create->columns) {
      DataType t = DataType::FromTypeName(col.type);
      if (!t.IsTextual()) continue;
      if (!SoundsLikePath(col.name)) continue;
      Detection d;
      d.type = type();
      d.source = DetectionSource::kIntraQuery;
      d.table = create->table;
      d.column = col.name;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "column '" + col.name +
                  "' stores file paths instead of content; files escape transactions, "
                  "backups, and access control";
      out->push_back(std::move(d));
    }
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.data_analysis) return;
    if (profile.sample.size() < config.min_rows_for_data_rules) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr) return;
    for (size_t c = 0; c < schema->columns.size(); ++c) {
      if (!schema->columns[c].type.IsTextual()) continue;
      size_t pathlike = 0;
      size_t non_null = 0;
      for (const Row& row : profile.sample) {
        if (c >= row.size() || !row[c].is_string()) continue;
        ++non_null;
        const std::string& s = row[c].AsString();
        if (LooksLikeFilePath(s)) ++pathlike;
      }
      if (non_null >= config.min_rows_for_data_rules &&
          pathlike * 10 >= non_null * 9) {  // >= 90% path-like
        Detection d;
        d.type = type();
        d.source = DetectionSource::kDataAnalysis;
        d.table = profile.table;
        d.column = schema->columns[c].name;
        d.message = "values of '" + schema->columns[c].name +
                    "' are file-system paths; store the content (or use BLOBs) so the "
                    "DBMS manages it";
        out->push_back(std::move(d));
      }
    }
  }

 private:
  static bool SoundsLikePath(std::string_view name) {
    return ContainsIgnoreCase(name, "path") || ContainsIgnoreCase(name, "filename") ||
           EqualsIgnoreCase(name, "file") || EndsWithIgnoreCase(name, "_file") ||
           EndsWithIgnoreCase(name, "_url") || EqualsIgnoreCase(name, "url");
  }
  static bool LooksLikeFilePath(const std::string& s) {
    if (s.size() < 3) return false;
    bool slashy = s.find('/') != std::string::npos || s.find('\\') != std::string::npos;
    bool exty = false;
    size_t dot = s.find_last_of('.');
    if (dot != std::string::npos && s.size() - dot <= 5 && dot > 0) exty = true;
    return (slashy && exty) || s.rfind("/", 0) == 0 || s.rfind("C:\\", 0) == 0;
  }
};

// ---------------------------------------------------------------------------
// Index Overuse
// ---------------------------------------------------------------------------
class IndexOveruseRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kIndexOveruse; }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    // Inter-query by nature (Example 5): whether an index is redundant
    // depends on the other indexes and the whole workload.
    if (!config.inter_query) return;
    if (facts.stmt == nullptr) return;
    const auto* create = facts.stmt->As<sql::CreateIndexStatement>();
    if (create == nullptr) return;

    auto indexes = context.catalog().IndexesOnTable(create->table);
    std::vector<const IndexSchema*> user_indexes;
    for (const auto* index : indexes) {
      if (!index->system) user_indexes.push_back(index);
    }
    if (static_cast<int>(user_indexes.size()) >= config.index_overuse_count) {
      Detection d;
      d.type = type();
      d.source = DetectionSource::kInterQuery;
      d.table = create->table;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "table '" + std::string(create->table) + "' carries " +
                  std::to_string(user_indexes.size()) +
                  " user indexes; every write must maintain all of them";
      out->push_back(std::move(d));
      return;
    }

    // Redundancy: this index's columns are a prefix of another index.
    for (const auto* other : user_indexes) {
      if (EqualsIgnoreCase(other->name, create->index)) continue;
      if (other->columns.size() <= create->columns.size()) continue;
      bool prefix = true;
      for (size_t i = 0; i < create->columns.size(); ++i) {
        if (!EqualsIgnoreCase(other->columns[i], create->columns[i])) prefix = false;
      }
      if (!prefix) continue;
      // Workload check (Example 5): if some query filters the leading column
      // WITHOUT the composite's remaining columns, the narrow index earns its
      // keep and is not redundant (workload 2's shape).
      if (AnyQueryUsesLeadingAlone(context, create->table, create->columns[0],
                                   other->columns)) {
        continue;
      }
      Detection d;
      d.type = type();
      d.source = DetectionSource::kInterQuery;
      d.table = create->table;
      d.column = create->columns.empty() ? "" : create->columns[0];
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "index '" + std::string(create->index) + "' is a prefix of '" + other->name +
                  "' and the workload never needs it separately";
      out->push_back(std::move(d));
      return;
    }
  }

 private:
  static bool AnyQueryUsesLeadingAlone(const Context& context, std::string_view table,
                                       std::string_view leading,
                                       const std::vector<std::string>& composite) {
    for (const QueryFacts* facts : context.QueriesReferencing(table)) {
      bool has_leading = false;
      size_t covered = 0;
      for (const auto& col : composite) {
        for (const auto& p : facts->predicates) {
          if (EqualsIgnoreCase(p.column, col)) {
            if (EqualsIgnoreCase(col, leading)) has_leading = true;
            ++covered;
            break;
          }
        }
      }
      if (has_leading && covered < composite.size()) return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Index Underuse
// ---------------------------------------------------------------------------
class IndexUnderuseRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kIndexUnderuse; }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.inter_query) return;
    // Performance-critical access paths: equality predicates, join keys, and
    // GROUP BY columns without a supporting index.
    auto consider = [&](std::string_view table, std::string_view column,
                        const char* role) {
      if (table.empty() || column.empty()) return;
      const TableSchema* schema = context.catalog().FindTable(table);
      if (schema == nullptr || schema->FindColumn(column) == nullptr) return;
      // A composite index containing the column can still serve conjunctive
      // predicates (its leading columns are filtered alongside) — treat the
      // column as covered rather than flag a false positive.
      for (const auto* index : context.catalog().IndexesOnTable(table)) {
        for (const auto& indexed_col : index->columns) {
          if (EqualsIgnoreCase(indexed_col, column)) return;
        }
      }
      // PK columns get an implicit index.
      for (const auto& pk : schema->primary_key) {
        if (EqualsIgnoreCase(pk, column)) return;
      }
      // Data refinement (Fig. 8c): indexing a low-cardinality column can
      // *hurt*; suppress the detection when the data says so.
      if (config.data_analysis && context.has_data()) {
        const TableProfile* profile = context.ProfileFor(table);
        if (profile != nullptr) {
          const ColumnStats* stats = profile->stats.FindColumn(column);
          if (stats != nullptr && stats->row_count >= config.min_rows_for_data_rules &&
              stats->DistinctRatio() <= config.low_cardinality_ratio) {
            return;
          }
        }
      }
      Detection d;
      d.type = type();
      d.source = DetectionSource::kInterQuery;
      d.table = table;
      d.column = column;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "column '" + std::string(table) + "." + std::string(column) +
                  "' is used as a " + role + " but has no index";
      out->push_back(std::move(d));
    };

    // Early-exit once a filter or left-join-key detection is emitted;
    // right-join keys and grouping keys may still add one each (they surface
    // distinct index candidates).
    const size_t baseline = out->size();
    for (const auto& p : facts.predicates) {
      if (p.op == "=" || p.op == "==" || p.op == "IN") {
        consider(p.table, p.column, "filter");
        if (out->size() > baseline) return;
      }
    }
    for (const auto& j : facts.joins) {
      if (j.expression_join) continue;
      consider(j.left_table, j.left_column, "join key");
      if (out->size() > baseline) return;
      consider(j.right_table, j.right_column, "join key");
    }
    for (const auto& g : facts.group_by_columns) {
      size_t dot = g.find('.');
      if (dot == std::string::npos) continue;
      consider(g.substr(0, dot), g.substr(dot + 1), "grouping key");
    }
  }
};

// ---------------------------------------------------------------------------
// Clone Table
// ---------------------------------------------------------------------------
class CloneTableRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kCloneTable; }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.inter_query) return;  // needs the full catalog
    const auto* create = AsCreateTable(facts);
    if (create == nullptr) return;
    std::string_view stem = Catalog::CloneStem(create->table);
    if (stem.empty()) return;
    // Another table with the same stem and a different suffix?
    for (const auto* other : context.catalog().TablesWithStem(stem)) {
      if (EqualsIgnoreCase(other->name, create->table)) continue;
      Detection d;
      d.type = type();
      d.source = DetectionSource::kInterQuery;
      d.table = create->table;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "tables '" + std::string(create->table) + "' and '" + other->name +
                  "' are clones of '" + std::string(stem) +
                  "_N'; the suffix is data — fold it into a column";
      out->push_back(std::move(d));
      return;
    }
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    std::string_view stem = Catalog::CloneStem(profile.table);
    if (stem.empty()) return;
    for (const auto* other : context.catalog().TablesWithStem(stem)) {
      if (EqualsIgnoreCase(other->name, profile.table)) continue;
      Detection d;
      d.type = type();
      d.source = DetectionSource::kDataAnalysis;
      d.table = profile.table;
      d.message = "table '" + profile.table + "' matches the clone pattern '" +
                  std::string(stem) + "_N'";
      out->push_back(std::move(d));
      return;
    }
  }
};

}  // namespace

std::unique_ptr<Rule> NewRoundingErrorsRule() {
  return std::make_unique<RoundingErrorsRule>();
}
std::unique_ptr<Rule> NewEnumeratedTypesRule() {
  return std::make_unique<EnumeratedTypesRule>();
}
std::unique_ptr<Rule> NewExternalDataStorageRule() {
  return std::make_unique<ExternalDataStorageRule>();
}
std::unique_ptr<Rule> NewIndexOveruseRule() {
  return std::make_unique<IndexOveruseRule>();
}
std::unique_ptr<Rule> NewIndexUnderuseRule() {
  return std::make_unique<IndexUnderuseRule>();
}
std::unique_ptr<Rule> NewCloneTableRule() { return std::make_unique<CloneTableRule>(); }

}  // namespace sqlcheck
