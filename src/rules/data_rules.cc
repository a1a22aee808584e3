// The six data rules of Table 1 (detected by analysing the data itself,
// §4.2): Missing Timezone, Incorrect Data Type, Denormalized Table,
// Information Duplication, Redundant Column, No Domain Constraint.
#include "rules/builtins.h"

#include <cmath>
#include <map>

#include "common/strings.h"

namespace sqlcheck {

namespace {

Detection DataDetection(AntiPattern type, std::string table, std::string column,
                        std::string message) {
  Detection d;
  d.type = type;
  d.source = DetectionSource::kDataAnalysis;
  d.table = std::move(table);
  d.column = std::move(column);
  d.message = std::move(message);
  return d;
}

// ---------------------------------------------------------------------------
// Missing Timezone
// ---------------------------------------------------------------------------
class MissingTimezoneRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kMissingTimezone; }
  QueryRuleScope query_scope() const override {
    return QueryRuleScope::kStatementLocal;
  }

  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.intra_query || facts.stmt == nullptr) return;
    const auto* create = facts.stmt->As<sql::CreateTableStatement>();
    if (create == nullptr) return;
    for (const auto& col : create->columns) {
      DataType t = DataType::FromTypeName(col.type);
      if (t.id != TypeId::kTimestamp) continue;  // tz-less timestamp type
      Detection d;
      d.type = type();
      d.source = DetectionSource::kIntraQuery;
      d.table = create->table;
      d.column = col.name;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "column '" + col.name +
                  "' is TIMESTAMP WITHOUT TIME ZONE; instants become ambiguous across "
                  "deployments — use TIMESTAMPTZ";
      out->push_back(std::move(d));
      return;
    }
  }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    for (const auto& stats : profile.stats.columns) {
      if (stats.row_count < config.min_rows_for_data_rules) continue;
      bool schema_tzless = false;
      if (schema != nullptr) {
        const ColumnSchema* col = schema->FindColumn(stats.column);
        if (col != nullptr && col->type.id == TypeId::kTimestamp) schema_tzless = true;
      }
      bool data_tzless =
          stats.date_string_fraction >= 0.9 && stats.timezone_fraction <= 0.1;
      if (!schema_tzless && !data_tzless) continue;
      out->push_back(DataDetection(
          type(), profile.table, stats.column,
          "date-time values in '" + stats.column + "' carry no timezone"));
      return;  // one per table keeps the report readable
    }
  }
};

// ---------------------------------------------------------------------------
// Incorrect Data Type
// ---------------------------------------------------------------------------
class IncorrectDataTypeRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kIncorrectDataType; }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr) return;
    for (const auto& stats : profile.stats.columns) {
      if (stats.row_count - stats.null_count < config.min_rows_for_data_rules) continue;
      const ColumnSchema* col = schema->FindColumn(stats.column);
      if (col == nullptr || !col->type.IsTextual()) continue;
      if (stats.numeric_string_fraction >= config.numeric_string_fraction) {
        out->push_back(DataDetection(
            type(), profile.table, stats.column,
            "column '" + stats.column + "' is " + col->type.ToSql() + " but " +
                std::to_string(static_cast<int>(stats.numeric_string_fraction * 100)) +
                "% of sampled values are numbers; numeric storage is smaller and "
                "comparable"));
        continue;
      }
      if (stats.date_string_fraction >= config.numeric_string_fraction) {
        out->push_back(DataDetection(
            type(), profile.table, stats.column,
            "column '" + stats.column +
                "' stores date-times as text; use a temporal type"));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Denormalized Table
// ---------------------------------------------------------------------------
class DenormalizedTableRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kDenormalizedTable; }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr || profile.sample.size() < config.min_rows_for_data_rules) return;

    // Look for a functional dependency X -> Y between non-key columns where X
    // repeats: the (X, Y) pairs belong in their own table.
    const auto& columns = schema->columns;
    for (size_t x = 0; x < columns.size(); ++x) {
      if (IsKeyColumn(*schema, columns[x].name)) continue;
      const ColumnStats* xs = profile.stats.FindColumn(columns[x].name);
      if (xs == nullptr || xs->distinct_count == 0) continue;
      // X must repeat meaningfully.
      size_t non_null = xs->row_count - xs->null_count;
      if (non_null < 2 * xs->distinct_count) continue;
      for (size_t y = 0; y < columns.size(); ++y) {
        if (x == y || IsKeyColumn(*schema, columns[y].name)) continue;
        if (!columns[y].type.IsTextual()) continue;
        if (!FunctionallyDetermines(profile.sample, x, y)) continue;
        const ColumnStats* ys = profile.stats.FindColumn(columns[y].name);
        if (ys == nullptr || ys->distinct_count < 2) continue;  // constants are a
                                                                // different AP
        out->push_back(DataDetection(
            type(), profile.table, columns[y].name,
            "'" + columns[y].name + "' is functionally determined by '" +
                columns[x].name + "' and duplicated across rows; normalize the pair "
                "into a lookup table"));
        return;
      }
    }
  }

 private:
  static bool IsKeyColumn(const TableSchema& schema, const std::string& column) {
    for (const auto& pk : schema.primary_key) {
      if (EqualsIgnoreCase(pk, column)) return true;
    }
    return false;
  }

  static bool FunctionallyDetermines(const std::vector<Row>& sample, size_t x, size_t y) {
    std::map<std::string, std::string> mapping;
    bool repeats = false;
    for (const Row& row : sample) {
      if (x >= row.size() || y >= row.size()) return false;
      if (row[x].is_null() || row[y].is_null()) continue;
      std::string key = row[x].ToDisplay();
      std::string value = row[y].ToDisplay();
      auto [it, inserted] = mapping.emplace(key, value);
      if (!inserted) {
        if (it->second != value) return false;  // not functional
        repeats = true;
      }
    }
    return repeats && mapping.size() >= 2;
  }
};

// ---------------------------------------------------------------------------
// Information Duplication
// ---------------------------------------------------------------------------
class InformationDuplicationRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kInformationDuplication; }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr || profile.sample.size() < config.min_rows_for_data_rules) return;
    const auto& columns = schema->columns;

    // Name-based pair: an age column next to a birth-date column.
    int age_idx = -1;
    int dob_idx = -1;
    for (size_t c = 0; c < columns.size(); ++c) {
      std::string_view name = columns[c].name;
      if (EqualsIgnoreCase(name, "age")) age_idx = static_cast<int>(c);
      if (ContainsIgnoreCase(name, "birth") || EqualsIgnoreCase(name, "dob")) {
        dob_idx = static_cast<int>(c);
      }
    }
    if (age_idx >= 0 && dob_idx >= 0) {
      out->push_back(DataDetection(
          type(), profile.table, columns[static_cast<size_t>(age_idx)].name,
          "'age' duplicates information derivable from '" +
              columns[static_cast<size_t>(dob_idx)].name +
              "'; it goes stale and must be maintained on every write"));
      return;
    }

    // Arithmetic duplication: numeric Z = X + Y across the whole sample.
    std::vector<size_t> numeric;
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c].type.IsNumeric()) numeric.push_back(c);
    }
    for (size_t zi : numeric) {
      for (size_t xi : numeric) {
        if (xi == zi) continue;
        for (size_t yi : numeric) {
          if (yi == zi || yi < xi) continue;  // yi<xi dedupes (x,y) pairs; x may equal y
          if (SumHolds(profile.sample, xi, yi, zi)) {
            out->push_back(DataDetection(
                type(), profile.table, columns[zi].name,
                "'" + columns[zi].name + "' always equals " + columns[xi].name + " + " +
                    columns[yi].name + " in the sample; derived columns drift when a "
                    "source column changes"));
            return;
          }
        }
      }
    }
  }

 private:
  static bool SumHolds(const std::vector<Row>& sample, size_t x, size_t y, size_t z) {
    int checked = 0;
    for (const Row& row : sample) {
      if (x >= row.size() || y >= row.size() || z >= row.size()) return false;
      if (row[x].is_null() || row[y].is_null() || row[z].is_null()) continue;
      if (std::fabs(row[x].AsReal() + row[y].AsReal() - row[z].AsReal()) > 1e-9) {
        return false;
      }
      ++checked;
    }
    return checked >= 3;
  }
};

// ---------------------------------------------------------------------------
// Redundant Column
// ---------------------------------------------------------------------------
class RedundantColumnRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kRedundantColumn; }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    (void)context;
    if (!config.data_analysis) return;
    for (const auto& stats : profile.stats.columns) {
      if (stats.row_count < config.min_rows_for_data_rules) continue;
      if (stats.NullFraction() >= config.redundant_fraction) {
        out->push_back(DataDetection(
            type(), profile.table, stats.column,
            "column '" + stats.column + "' is NULL in " +
                std::to_string(static_cast<int>(stats.NullFraction() * 100)) +
                "% of rows; it stores nothing"));
        continue;
      }
      size_t non_null = stats.row_count - stats.null_count;
      if (non_null >= config.min_rows_for_data_rules && stats.distinct_count == 1) {
        out->push_back(DataDetection(
            type(), profile.table, stats.column,
            "column '" + stats.column + "' holds the single value '" +
                stats.top_value.ToDisplay() + "' in every row (e.g. a hard-coded "
                "'en-us' locale)"));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// No Domain Constraint
// ---------------------------------------------------------------------------
class NoDomainConstraintRule final : public Rule {
 public:
  AntiPattern type() const override { return AntiPattern::kNoDomainConstraint; }

  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config, std::vector<Detection>* out) const override {
    if (!config.data_analysis) return;
    const TableSchema* schema = context.catalog().FindTable(profile.table);
    if (schema == nullptr) return;
    for (const auto& col : schema->columns) {
      if (!col.type.IsNumeric()) continue;
      if (!SoundsBounded(col.name)) continue;
      if (HasCheckOn(*schema, col.name)) continue;
      const ColumnStats* stats = profile.stats.FindColumn(col.name);
      if (stats == nullptr || stats->row_count - stats->null_count <
                                  config.min_rows_for_data_rules) {
        continue;
      }
      if (!stats->min.has_value() || !stats->max.has_value()) continue;
      double lo = stats->min->AsReal();
      double hi = stats->max->AsReal();
      // Observed values live in a tight conventional range.
      bool tight = (lo >= 0 && hi <= 5) || (lo >= 0 && hi <= 10) || (lo >= 0 && hi <= 100);
      if (!tight) continue;
      out->push_back(DataDetection(
          type(), profile.table, col.name,
          "'" + col.name + "' values span [" + stats->min->ToDisplay() + ", " +
              stats->max->ToDisplay() +
              "] but no CHECK constraint enforces the range; bad writes will pass "
              "silently"));
    }
  }

 private:
  static bool SoundsBounded(std::string_view name) {
    return ContainsIgnoreCase(name, "rating") || ContainsIgnoreCase(name, "score") ||
           ContainsIgnoreCase(name, "percent") || ContainsIgnoreCase(name, "grade") ||
           EqualsIgnoreCase(name, "stars") || EqualsIgnoreCase(name, "priority") ||
           EqualsIgnoreCase(name, "level");
  }
  static bool HasCheckOn(const TableSchema& schema, const std::string& column) {
    for (const auto& check : schema.checks) {
      if (ContainsIgnoreCase(check.expression_sql, column)) return true;
    }
    return false;
  }
};

}  // namespace

std::unique_ptr<Rule> NewMissingTimezoneRule() {
  return std::make_unique<MissingTimezoneRule>();
}
std::unique_ptr<Rule> NewIncorrectDataTypeRule() {
  return std::make_unique<IncorrectDataTypeRule>();
}
std::unique_ptr<Rule> NewDenormalizedTableRule() {
  return std::make_unique<DenormalizedTableRule>();
}
std::unique_ptr<Rule> NewInformationDuplicationRule() {
  return std::make_unique<InformationDuplicationRule>();
}
std::unique_ptr<Rule> NewRedundantColumnRule() {
  return std::make_unique<RedundantColumnRule>();
}
std::unique_ptr<Rule> NewNoDomainConstraintRule() {
  return std::make_unique<NoDomainConstraintRule>();
}

}  // namespace sqlcheck
