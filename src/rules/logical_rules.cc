// The seven logical-design rules of Table 1: Multi-Valued Attribute, No
// Primary Key, No Foreign Key, Generic Primary Key, Data in Metadata,
// Adjacency List, and God Table.
#include "rules/builtins.h"

#include "common/strings.h"

namespace sqlcheck {

namespace {

/// True for column names that usually hold prose, where delimiters are
/// ordinary punctuation rather than value separators (§4.1 "Limitation").
bool IsProseColumnName(std::string_view name) {
  static constexpr std::string_view kProse[] = {
      "address", "description", "comment", "comments", "notes", "note",
      "message", "body",        "text",    "bio",      "summary",
  };
  for (std::string_view p : kProse) {
    if (EqualsIgnoreCase(name, p)) return true;
  }
  return false;
}

/// Column names that *sound* like packed value lists.
bool SoundsLikeValueList(std::string_view name) {
  return name.size() > 3 &&
         (EndsWithIgnoreCase(name, "_ids") || EndsWithIgnoreCase(name, "ids") ||
          EndsWithIgnoreCase(name, "_list") || EndsWithIgnoreCase(name, "_tags") ||
          EqualsIgnoreCase(name, "tags"));
}

const sql::CreateTableStatement* AsCreateTable(const QueryFacts& facts) {
  if (facts.stmt == nullptr) return nullptr;
  return facts.stmt->As<sql::CreateTableStatement>();
}

// ---------------------------------------------------------------------------
// Multi-Valued Attribute
// ---------------------------------------------------------------------------
class MultiValuedAttributeRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kMultiValuedAttribute; }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.intra_query) return;
    // Intra-query signal: LIKE/REGEXP over an id-list-looking column,
    // word-boundary/computed patterns (the string-processing tricks of §2.1),
    // or delimiter-carrying patterns ('%,42,%'). The delimiter variant is the
    // paper's noisy regex — it is exactly what the inter-query context prunes.
    for (const auto& p : facts.patterns) {
      bool id_list_column = SoundsLikeValueList(p.column);
      bool trick_pattern = p.word_boundary || (p.computed_pattern && !p.column.empty());
      bool delimiter_pattern =
          !p.pattern.empty() && (p.pattern.find(',') != std::string::npos ||
                                 p.pattern.find(';') != std::string::npos);
      if (!id_list_column && !trick_pattern && !delimiter_pattern) continue;

      // Inter-query refinement (fewer false positives): prose columns and
      // columns whose data is not delimiter-separated are suppressed.
      if (config.inter_query) {
        if (IsProseColumnName(p.column)) continue;
        if (config.data_analysis && context.has_data() && !p.table.empty()) {
          const TableProfile* profile = context.ProfileFor(p.table);
          if (profile != nullptr) {
            const ColumnStats* stats = profile->stats.FindColumn(p.column);
            if (stats != nullptr && stats->row_count >= config.min_rows_for_data_rules &&
                stats->delimited_fraction < config.delimited_fraction) {
              continue;  // data says this is not a packed list
            }
          }
        }
      }
      Detection d;
      d.type = type();
      d.source = config.inter_query ? DetectionSource::kInterQuery
                                    : DetectionSource::kIntraQuery;
      d.table = p.table;
      d.column = p.column;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "column '" + std::string(p.column) +
                  "' is queried with pattern matching, suggesting a delimiter-separated "
                  "value list (violates 1NF); use an intersection table instead";
      out->push_back(std::move(d));
      return;  // one detection per query is enough
    }

    // DDL signal: a textual column whose name advertises a packed list.
    const auto* create = AsCreateTable(facts);
    if (create != nullptr) {
      for (const auto& col : create->columns) {
        DataType t = DataType::FromTypeName(col.type);
        if (t.IsTextual() && SoundsLikeValueList(col.name)) {
          Detection d;
          d.type = type();
          d.source = DetectionSource::kIntraQuery;
          d.table = create->table;
          d.column = col.name;
          d.query = facts.raw_sql;
          d.stmt = facts.stmt;
          d.message = "textual column '" + col.name +
                      "' looks like a delimiter-separated id list; model the relationship "
                      "with an intersection table";
          out->push_back(std::move(d));
        }
      }
    }
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.data_analysis) return;
    if (profile.stats.row_count < config.min_rows_for_data_rules) return;
    for (const auto& stats : profile.stats.columns) {
      if (stats.delimited_fraction < config.delimited_fraction) continue;
      if (IsProseColumnName(stats.column)) continue;
      Detection d;
      d.type = type();
      d.source = DetectionSource::kDataAnalysis;
      d.table = profile.table;
      d.column = stats.column;
      d.message = "sampled values of '" + stats.column + "' are '" +
                  std::string(1, stats.dominant_delimiter == '\0' ? ','
                                                                  : stats.dominant_delimiter) +
                  "'-separated lists in " +
                  std::to_string(static_cast<int>(stats.delimited_fraction * 100)) +
                  "% of rows (multi-valued attribute)";
      out->push_back(std::move(d));
    }
  }
};

// ---------------------------------------------------------------------------
// No Primary Key
// ---------------------------------------------------------------------------
class NoPrimaryKeyRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kNoPrimaryKey; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    const auto* create = AsCreateTable(facts);
    if (create == nullptr || create->HasPrimaryKey()) return;
    Detection d;
    d.type = type();
    d.source = DetectionSource::kIntraQuery;
    d.table = create->table;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "table '" + create->table +
                "' has no PRIMARY KEY; rows cannot be uniquely identified and duplicates "
                "are silently allowed";
    out->push_back(std::move(d));
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr || schema->HasPrimaryKey()) return;
    Detection d;
    d.type = type();
    d.source = DetectionSource::kDataAnalysis;
    d.table = profile.table;
    d.message = "table '" + profile.table + "' stores " +
                std::to_string(profile.stats.row_count) + " rows without a PRIMARY KEY";
    out->push_back(std::move(d));
  }
};

// ---------------------------------------------------------------------------
// No Foreign Key
// ---------------------------------------------------------------------------
class NoForeignKeyRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kNoForeignKey; }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    // Inherently inter-query (Example 3): needs both DDL statements plus the
    // JOIN that connects them.
    if (!config.inter_query) return;
    for (const auto& j : facts.joins) {
      if (j.expression_join || j.left_table.empty() || j.right_table.empty()) continue;
      if (EqualsIgnoreCase(j.left_table, j.right_table)) continue;
      const TableSchema* left = context.catalog().FindTable(j.left_table);
      const TableSchema* right = context.catalog().FindTable(j.right_table);
      if (left == nullptr || right == nullptr) continue;  // need both DDLs
      if (context.ForeignKeyExists(j.left_table, j.right_table)) continue;
      Detection d;
      d.type = type();
      d.source = DetectionSource::kInterQuery;
      d.table = j.right_table;
      d.column = j.right_column;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "tables '" + std::string(j.left_table) + "' and '" +
                  std::string(j.right_table) + "' are joined on " +
                  std::string(j.left_column) +
                  " but no FOREIGN KEY links them; referential integrity is unenforced";
      out->push_back(std::move(d));
      return;
    }
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr || !schema->foreign_keys.empty()) return;
    // Column named <other_table>_id (or matching another table's PK) with no
    // FK recorded anywhere.
    for (const auto& col : schema->columns) {
      if (!EndsWithIgnoreCase(col.name, "_id") || EqualsIgnoreCase(col.name, "_id")) {
        continue;
      }
      std::string_view target = std::string_view(col.name).substr(0, col.name.size() - 3);
      const TableSchema* parent = context.catalog().FindTable(target);
      if (parent == nullptr) {
        parent = context.catalog().FindTable(std::string(target) + "s");
      }
      if (parent == nullptr || EqualsIgnoreCase(parent->name, profile.table)) continue;
      Detection d;
      d.type = type();
      d.source = DetectionSource::kDataAnalysis;
      d.table = profile.table;
      d.column = col.name;
      d.message = "column '" + col.name + "' appears to reference table '" + parent->name +
                  "' but carries no FOREIGN KEY constraint";
      out->push_back(std::move(d));
      return;
    }
  }
};

// ---------------------------------------------------------------------------
// Generic Primary Key
// ---------------------------------------------------------------------------
class GenericPrimaryKeyRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kGenericPrimaryKey; }
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
      if (col.primary_key && EqualsIgnoreCase(col.name, "id")) {
        Emit(create->table, facts, out);
        return;
      }
    }
    for (const auto& con : create->constraints) {
      if (con.kind == sql::TableConstraintKind::kPrimaryKey && con.columns.size() == 1 &&
          EqualsIgnoreCase(con.columns[0], "id")) {
        Emit(create->table, facts, out);
        return;
      }
    }
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr) return;
    if (schema->primary_key.size() == 1 && EqualsIgnoreCase(schema->primary_key[0], "id")) {
      Detection d;
      d.type = type();
      d.source = DetectionSource::kDataAnalysis;
      d.table = profile.table;
      d.column = "id";
      d.message = "table '" + profile.table +
                  "' uses a generic 'id' primary key; a descriptive key (e.g. " +
                  ToLower(profile.table) + "_id) improves join readability";
      out->push_back(std::move(d));
    }
  }

 private:
  void Emit(std::string_view table, const QueryFacts& facts,
            std::vector<Detection>* out) const {
    Detection d;
    d.type = type();
    d.source = DetectionSource::kIntraQuery;
    d.table = table;
    d.column = "id";
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "table '" + std::string(table) + "' defines a generic primary key column 'id'";
    out->push_back(std::move(d));
  }
};

// ---------------------------------------------------------------------------
// Data in Metadata
// ---------------------------------------------------------------------------
class DataInMetadataRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kDataInMetadata; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    const auto* create = AsCreateTable(facts);
    if (create == nullptr) return;
    // Numbered column series (tag1, tag2, tag3) hard-code a domain dimension
    // into the schema.
    int series = CountNumberedSeries(create);
    if (series >= 3) {
      Detection d;
      d.type = type();
      d.source = DetectionSource::kIntraQuery;
      d.table = create->table;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "table '" + std::string(create->table) + "' defines " + std::to_string(series) +
                  " numbered sibling columns; the series index is data hiding in "
                  "metadata — move it into rows of a child table";
      out->push_back(std::move(d));
    }
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr) return;
    int series = 0;
    for (const auto& col : schema->columns) {
      std::string_view name = col.name;
      size_t digits = 0;
      while (digits < name.size() &&
             std::isdigit(static_cast<unsigned char>(name[name.size() - 1 - digits]))) {
        ++digits;
      }
      if (digits > 0 && digits < name.size()) ++series;
    }
    if (series >= 3) {
      Detection d;
      d.type = type();
      d.source = DetectionSource::kDataAnalysis;
      d.table = profile.table;
      d.message = "table '" + profile.table +
                  "' has a numbered column series; application logic is hard-coded in "
                  "the table's metadata";
      out->push_back(std::move(d));
    }
  }

 private:
  static int CountNumberedSeries(const sql::CreateTableStatement* create) {
    int count = 0;
    for (const auto& col : create->columns) {
      std::string_view name = col.name;
      size_t digits = 0;
      while (digits < name.size() &&
             std::isdigit(static_cast<unsigned char>(name[name.size() - 1 - digits]))) {
        ++digits;
      }
      if (digits > 0 && digits < name.size()) ++count;
    }
    return count;
  }
};

// ---------------------------------------------------------------------------
// Adjacency List
// ---------------------------------------------------------------------------
class AdjacencyListRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kAdjacencyList; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    const auto* create = AsCreateTable(facts);
    if (create == nullptr) return;
    auto emit = [&](std::string_view column) {
      Detection d;
      d.type = type();
      d.source = DetectionSource::kIntraQuery;
      d.table = create->table;
      d.column = column;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "table '" + std::string(create->table) + "' references itself via '" +
                  std::string(column) +
                  "' (adjacency list); hierarchical queries will need recursive "
                  "traversal — consider a path enumeration or closure table";
      out->push_back(std::move(d));
    };
    for (const auto& col : create->columns) {
      if (col.references.has_value() &&
          EqualsIgnoreCase(col.references->table, create->table)) {
        emit(col.name);
        return;
      }
    }
    for (const auto& con : create->constraints) {
      if (con.kind == sql::TableConstraintKind::kForeignKey &&
          EqualsIgnoreCase(con.reference.table, create->table)) {
        emit(con.columns.empty() ? "" : con.columns[0]);
        return;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// God Table
// ---------------------------------------------------------------------------
class GodTableRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kGodTable; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query) return;
    const auto* create = AsCreateTable(facts);
    if (create == nullptr) return;
    if (static_cast<int>(create->columns.size()) < config.god_table_columns) return;
    Detection d;
    d.type = type();
    d.source = DetectionSource::kIntraQuery;
    d.table = create->table;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "table '" + std::string(create->table) + "' defines " +
                std::to_string(create->columns.size()) +
                " columns (threshold " + std::to_string(config.god_table_columns) +
                "); it likely conflates several entities";
    out->push_back(std::move(d));
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr) return;
    if (static_cast<int>(schema->columns.size()) < config.god_table_columns) return;
    Detection d;
    d.type = type();
    d.source = DetectionSource::kDataAnalysis;
    d.table = profile.table;
    d.message = "table '" + profile.table + "' carries " +
                std::to_string(schema->columns.size()) + " columns";
    out->push_back(std::move(d));
  }
};

}  // namespace

std::unique_ptr<Rule> NewMultiValuedAttributeRule() {
  return std::make_unique<MultiValuedAttributeRule>();
}
std::unique_ptr<Rule> NewNoPrimaryKeyRule() {
  return std::make_unique<NoPrimaryKeyRule>();
}
std::unique_ptr<Rule> NewNoForeignKeyRule() {
  return std::make_unique<NoForeignKeyRule>();
}
std::unique_ptr<Rule> NewGenericPrimaryKeyRule() {
  return std::make_unique<GenericPrimaryKeyRule>();
}
std::unique_ptr<Rule> NewDataInMetadataRule() {
  return std::make_unique<DataInMetadataRule>();
}
std::unique_ptr<Rule> NewAdjacencyListRule() {
  return std::make_unique<AdjacencyListRule>();
}
std::unique_ptr<Rule> NewGodTableRule() { return std::make_unique<GodTableRule>(); }

}  // namespace sqlcheck
