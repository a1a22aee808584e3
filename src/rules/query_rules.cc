// The query-shape rules of Table 1 plus Readable Password: Column Wildcard,
// Concatenate Nulls, Ordering by RAND, Pattern Matching, Implicit Columns,
// DISTINCT and JOIN, Too Many Joins, Readable Password.
#include "rules/builtins.h"

#include "common/strings.h"

namespace sqlcheck {

namespace {

Detection MakeDetection(AntiPattern type, DetectionSource source, const QueryFacts& facts,
                        std::string_view table, std::string_view column, std::string message) {
  Detection d;
  d.type = type;
  d.source = source;
  d.table = table;
  d.column = column;
  d.query = facts.raw_sql;
  d.stmt = facts.stmt;
  d.message = std::move(message);
  return d;
}

// ---------------------------------------------------------------------------
// Column Wildcard Usage
// ---------------------------------------------------------------------------
class ColumnWildcardRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kColumnWildcard; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    if (facts.kind != sql::StatementKind::kSelect || !facts.selects_wildcard) return;
    out->push_back(MakeDetection(
        type(), DetectionSource::kIntraQuery, facts,
        facts.tables.empty() ? "" : facts.tables[0], "",
        "SELECT * couples the application to the table layout; it breaks on "
        "refactoring and fetches columns the caller never reads"));
  }
};

// ---------------------------------------------------------------------------
// Concatenate Nulls
// ---------------------------------------------------------------------------
class ConcatenateNullsRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kConcatenateNulls; }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.intra_query) return;
    for (const auto& qualified : facts.concat_columns) {
      size_t dot = qualified.find('.');
      std::string table = dot == std::string::npos ? "" : qualified.substr(0, dot);
      std::string column = dot == std::string::npos ? qualified : qualified.substr(dot + 1);
      // Inter-query refinement: NOT NULL columns cannot poison the concat.
      if (config.inter_query && !table.empty() &&
          !context.ColumnNullable(table, column)) {
        continue;
      }
      out->push_back(MakeDetection(
          type(),
          config.inter_query ? DetectionSource::kInterQuery : DetectionSource::kIntraQuery,
          facts, table, column,
          "'" + column + "' is concatenated with ||; one NULL nulls the whole result — "
          "wrap it in COALESCE(...)"));
      return;  // one per query
    }
  }
};

// ---------------------------------------------------------------------------
// Ordering by RAND
// ---------------------------------------------------------------------------
class OrderingByRandRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kOrderingByRand; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query || !facts.order_by_rand) return;
    out->push_back(MakeDetection(
        type(), DetectionSource::kIntraQuery, facts,
        facts.tables.empty() ? "" : facts.tables[0], "",
        "ORDER BY RAND() materializes and sorts the entire result to pick random "
        "rows; sample by random key lookup instead"));
  }
};

// ---------------------------------------------------------------------------
// Pattern Matching
// ---------------------------------------------------------------------------
class PatternMatchingRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kPatternMatching; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    for (const auto& p : facts.patterns) {
      bool regex = p.op == "REGEXP" || p.op == "RLIKE" || p.op == "SIMILAR TO";
      bool hostile_like = (p.op == "LIKE" || p.op == "ILIKE") &&
                          (p.leading_wildcard || p.word_boundary || p.computed_pattern);
      if (!regex && !hostile_like) continue;
      out->push_back(MakeDetection(
          type(), DetectionSource::kIntraQuery, facts, p.table, p.column,
          "predicate on '" + std::string(p.column) + "' uses " + std::string(p.op) +
              (p.leading_wildcard ? " with a leading wildcard" : "") +
              "; it defeats indexes and scans every row — consider full-text search"));
      return;
    }
  }
};

// ---------------------------------------------------------------------------
// Implicit Columns
// ---------------------------------------------------------------------------
class ImplicitColumnsRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kImplicitColumns; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    if (facts.kind != sql::StatementKind::kInsert || !facts.insert_without_columns) return;
    out->push_back(MakeDetection(
        type(), DetectionSource::kIntraQuery, facts,
        facts.tables.empty() ? "" : facts.tables[0], "",
        "INSERT without a column list breaks silently when the schema evolves "
        "(Example 2 of the paper); name the target columns explicitly"));
  }
};

// ---------------------------------------------------------------------------
// DISTINCT and JOIN
// ---------------------------------------------------------------------------
class DistinctAndJoinRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kDistinctAndJoin; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    if (facts.kind != sql::StatementKind::kSelect || !facts.distinct ||
        facts.join_count < 1) {
      return;
    }
    out->push_back(MakeDetection(
        type(), DetectionSource::kIntraQuery, facts,
        facts.tables.empty() ? "" : facts.tables[0], "",
        "DISTINCT papering over JOIN fan-out sorts/hashes the whole result; fix the "
        "join cardinality (semi-join/EXISTS) instead"));
  }
};

// ---------------------------------------------------------------------------
// Too Many Joins
// ---------------------------------------------------------------------------
class TooManyJoinsRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kTooManyJoins; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    if (facts.kind != sql::StatementKind::kSelect ||
        facts.join_count < config.too_many_joins) {
      return;
    }
    out->push_back(MakeDetection(
        type(), DetectionSource::kIntraQuery, facts,
        facts.tables.empty() ? "" : facts.tables[0], "",
        "query joins " + std::to_string(facts.join_count + 1) + " tables (threshold " +
            std::to_string(config.too_many_joins) +
            "); the optimizer's search space explodes and plans degrade"));
  }
};

// ---------------------------------------------------------------------------
// Readable Password
// ---------------------------------------------------------------------------
class ReadablePasswordRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kReadablePassword; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query || facts.stmt == nullptr) return;
    if (const auto* create = facts.stmt->As<sql::CreateTableStatement>()) {
      for (const auto& col : create->columns) {
        if (!IsPasswordName(col.name)) continue;
        out->push_back(MakeDetection(
            type(), DetectionSource::kIntraQuery, facts, create->table, col.name,
            "column '" + std::string(col.name) +
                "' appears to store passwords; store salted hashes, never plaintext"));
        return;
      }
    }
    // Predicates comparing a password column against a string literal imply
    // plaintext comparison.
    for (const auto& p : facts.predicates) {
      if ((p.op == "=" || p.op == "==") && IsPasswordName(p.column) && !p.literal.empty()) {
        out->push_back(MakeDetection(
            type(), DetectionSource::kIntraQuery, facts, p.table, p.column,
            "query compares '" + std::string(p.column) +
                "' to a plaintext literal; authenticate against a salted hash"));
        return;
      }
    }
  }

 private:
  static bool IsPasswordName(std::string_view name) {
    return EqualsIgnoreCase(name, "password") || EqualsIgnoreCase(name, "passwd") ||
           EqualsIgnoreCase(name, "pwd") || EndsWithIgnoreCase(name, "_password");
  }
};

}  // namespace

std::unique_ptr<Rule> NewColumnWildcardRule() {
  return std::make_unique<ColumnWildcardRule>();
}
std::unique_ptr<Rule> NewConcatenateNullsRule() {
  return std::make_unique<ConcatenateNullsRule>();
}
std::unique_ptr<Rule> NewOrderingByRandRule() {
  return std::make_unique<OrderingByRandRule>();
}
std::unique_ptr<Rule> NewPatternMatchingRule() {
  return std::make_unique<PatternMatchingRule>();
}
std::unique_ptr<Rule> NewImplicitColumnsRule() {
  return std::make_unique<ImplicitColumnsRule>();
}
std::unique_ptr<Rule> NewDistinctAndJoinRule() {
  return std::make_unique<DistinctAndJoinRule>();
}
std::unique_ptr<Rule> NewTooManyJoinsRule() {
  return std::make_unique<TooManyJoinsRule>();
}
std::unique_ptr<Rule> NewReadablePasswordRule() {
  return std::make_unique<ReadablePasswordRule>();
}

}  // namespace sqlcheck
