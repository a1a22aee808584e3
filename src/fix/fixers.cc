// The built-in action halves of the catalog's rules (Algorithm 4's repair
// table): one <Id>Fixer per anti-pattern. Mechanical transformations go
// through the AST rewriter (fix/rewriter.h); everything else emits
// context-tailored textual guidance, sometimes with sketch DDL attached.
#include <string>
#include <utility>

#include "common/strings.h"
#include "fix/rewriter.h"
#include "rules/builtins.h"
#include "sql/printer.h"

namespace sqlcheck {

namespace {

/// Seeds the common Fix fields from the detection.
Fix BaseFix(const Detection& d) {
  Fix fix;
  fix.type = d.type;
  fix.original_sql = d.query;
  return fix;
}

std::string IndexNameFor(std::string_view table, std::string_view column) {
  return "idx_" + ToLower(table) + "_" + ToLower(column);
}

/// Workload queries (other than `self`) that reference `table` — Algorithm
/// 4's GetImpactedQueries, answered through the WorkloadStats per-table
/// statement index (O(queries-on-table), not O(workload)).
std::vector<std::string> ImpactedQueries(const Context& context, std::string_view table,
                                         std::string_view self) {
  std::vector<std::string> out;
  for (const QueryFacts* facts : context.QueriesReferencing(table)) {
    if (facts->raw_sql.empty() || facts->raw_sql == self) continue;
    if (facts->kind == sql::StatementKind::kCreateTable ||
        facts->kind == sql::StatementKind::kCreateIndex) {
      continue;
    }
    out.emplace_back(facts->raw_sql);
  }
  return out;
}

/// Best-effort primary-key candidate for a table lacking one: a column whose
/// sampled values are unique, preferring id-ish names.
std::string PkCandidate(const Context& context, std::string_view table) {
  const TableSchema* schema = context.catalog().FindTable(table);
  if (schema == nullptr) return "";
  const TableProfile* profile = context.ProfileFor(table);
  std::string fallback;
  for (const auto& col : schema->columns) {
    bool idish = EqualsIgnoreCase(col.name, "id") || EndsWithIgnoreCase(col.name, "_id");
    bool unique_in_data = false;
    if (profile != nullptr) {
      const ColumnStats* stats = profile->stats.FindColumn(col.name);
      if (stats != nullptr && stats->row_count > 0 && stats->null_count == 0 &&
          stats->distinct_count == stats->row_count) {
        unique_in_data = true;
      }
    }
    if (idish && (profile == nullptr || unique_in_data)) return col.name;
    if (unique_in_data && fallback.empty()) fallback = col.name;
  }
  return fallback;
}

// ---------------------------------------------------------------------------
// Query-shape fixers (statement-replacing AST rewrites)
// ---------------------------------------------------------------------------

class ImplicitColumnsFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kImplicitColumns; }
  // Naming the columns of a full-width INSERT must not change what lands in
  // the table: Tier 3 compares the resulting table states exactly.
  EquivalenceContract equivalence() const override {
    return EquivalenceContract::kExactOrdered;
  }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    const auto* insert = d.stmt != nullptr ? d.stmt->As<sql::InsertStatement>() : nullptr;
    sql::StatementPtr rewritten =
        insert != nullptr ? ExpandInsertColumns(*insert, context) : nullptr;
    if (rewritten != nullptr) {
      fix.kind = FixKind::kRewrite;
      fix.replaces_original = true;
      fix.statements.push_back(sql::PrintStatement(*rewritten));
      fix.explanation = "named the target columns explicitly so the INSERT survives "
                        "schema evolution";
    } else {
      fix.kind = FixKind::kTextual;
      fix.explanation = "list the target columns of table '" + d.table +
                        "' explicitly in the INSERT";
    }
    return fix;
  }
};

class ColumnWildcardFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kColumnWildcard; }
  // Expanding * into the concrete column list is a pure spelling change:
  // same rows, same order, same columns.
  EquivalenceContract equivalence() const override {
    return EquivalenceContract::kExactOrdered;
  }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    const auto* select = d.stmt != nullptr ? d.stmt->As<sql::SelectStatement>() : nullptr;
    sql::StatementPtr rewritten =
        select != nullptr ? ExpandWildcard(*select, context) : nullptr;
    if (rewritten != nullptr) {
      fix.kind = FixKind::kRewrite;
      fix.replaces_original = true;
      fix.statements.push_back(sql::PrintStatement(*rewritten));
      fix.explanation = "expanded SELECT * into the concrete column list so schema "
                        "changes cannot silently alter the result shape";
    } else {
      fix.kind = FixKind::kTextual;
      fix.explanation = "replace SELECT * with the columns the caller actually reads";
    }
    return fix;
  }
};

class ConcatenateNullsFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kConcatenateNulls; }
  // The COALESCE wrap is the point of the fix: rows where a nullable operand
  // is NULL change from NULL to the non-null concatenation. Judging this
  // exact-equivalent would demote every correct proposal.
  EquivalenceContract equivalence() const override {
    return EquivalenceContract::kDocumentedDivergence;
  }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    const auto* select = d.stmt != nullptr ? d.stmt->As<sql::SelectStatement>() : nullptr;
    sql::StatementPtr rewritten =
        select != nullptr ? WrapConcatNulls(*select, context) : nullptr;
    if (rewritten != nullptr) {
      fix.kind = FixKind::kRewrite;
      fix.replaces_original = true;
      fix.statements.push_back(sql::PrintStatement(*rewritten));
      fix.explanation = "wrapped nullable operands of || in COALESCE so a NULL field "
                        "no longer voids the whole concatenation";
    } else {
      fix.kind = FixKind::kTextual;
      fix.explanation = "wrap nullable columns in COALESCE(col, '') before "
                        "concatenating";
    }
    return fix;
  }
};

class OrderingByRandFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kOrderingByRand; }
  // Both sides sample at random — identical results are neither possible nor
  // wanted. Tier 3 only requires the pk-probe to execute on populated tables.
  EquivalenceContract equivalence() const override {
    return EquivalenceContract::kDocumentedDivergence;
  }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    const auto* select = d.stmt != nullptr ? d.stmt->As<sql::SelectStatement>() : nullptr;
    sql::StatementPtr rewritten =
        select != nullptr ? ReplaceOrderByRand(*select, context) : nullptr;
    if (rewritten != nullptr) {
      fix.kind = FixKind::kRewrite;
      fix.replaces_original = true;
      fix.statements.push_back(sql::PrintStatement(*rewritten));
      fix.explanation = "replaced ORDER BY RAND() with a random primary-key range "
                        "probe; the DBMS seeks one index range instead of sorting "
                        "the entire result";
    } else {
      fix.kind = FixKind::kTextual;
      fix.explanation =
          "ORDER BY RAND() sorts the entire result; pick a random key instead "
          "(e.g. WHERE key >= <random value in key range> ORDER BY key LIMIT 1) or "
          "sample ids in the application";
    }
    return fix;
  }
};

class PatternMatchingFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kPatternMatching; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }
  // REVERSE(col) LIKE 'liat%' selects the same rows but frees the engine to
  // return them in a different order (the index it enables sorts by the
  // reversed value), so the contract is multiset, not ordered.
  EquivalenceContract equivalence() const override {
    return EquivalenceContract::kMultiset;
  }

  Fix Propose(const Detection& d, const Context& context) const override {
    (void)context;
    Fix fix = BaseFix(d);
    const auto* select = d.stmt != nullptr ? d.stmt->As<sql::SelectStatement>() : nullptr;
    sql::StatementPtr rewritten =
        select != nullptr ? RewriteLeadingWildcards(*select) : nullptr;
    if (rewritten != nullptr) {
      fix.kind = FixKind::kRewrite;
      fix.replaces_original = true;
      fix.statements.push_back(sql::PrintStatement(*rewritten));
      fix.explanation = "reversed the leading-wildcard LIKE into a prefix match on "
                        "REVERSE(column); add a functional index on REVERSE(column) "
                        "and the scan becomes an index range probe";
    } else {
      fix.kind = FixKind::kTextual;
      fix.explanation =
          "pattern predicates on '" + d.column +
          "' cannot use B-tree indexes; add a full-text/trigram index, or restructure "
          "the data so equality predicates suffice";
    }
    return fix;
  }
};

// ---------------------------------------------------------------------------
// Index / schema fixers (additive DDL)
// ---------------------------------------------------------------------------

class IndexUnderuseFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kIndexUnderuse; }

  Fix Propose(const Detection& d, const Context& context) const override {
    (void)context;
    Fix fix = BaseFix(d);
    fix.kind = FixKind::kRewrite;
    fix.statements.push_back("CREATE INDEX " + IndexNameFor(d.table, d.column) + " ON " +
                             d.table + " (" + d.column + ");");
    fix.explanation = "added the missing index on the performance-critical access path";
    return fix;
  }
};

class IndexOveruseFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kIndexOveruse; }

  Fix Propose(const Detection& d, const Context& context) const override {
    (void)context;
    Fix fix = BaseFix(d);
    const auto* create =
        d.stmt != nullptr ? d.stmt->As<sql::CreateIndexStatement>() : nullptr;
    if (create != nullptr) {
      fix.kind = FixKind::kRewrite;
      fix.statements.push_back("DROP INDEX " + std::string(create->index) + ";");
      fix.explanation = "dropped the redundant index; every write was paying its "
                        "maintenance cost (Fig. 8a shows ~10x slower UPDATEs)";
    } else {
      fix.kind = FixKind::kTextual;
      fix.explanation = "drop the indexes on '" + d.table +
                        "' that no query uses, or merge single-column indexes into "
                        "one multi-column index";
    }
    return fix;
  }
};

class NoPrimaryKeyFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kNoPrimaryKey; }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    std::string candidate = PkCandidate(context, d.table);
    if (!candidate.empty()) {
      fix.kind = FixKind::kRewrite;
      fix.statements.push_back("ALTER TABLE " + d.table + " ADD PRIMARY KEY (" +
                               candidate + ");");
      fix.explanation = "'" + candidate +
                        "' is unique across the sampled data, so it can carry the "
                        "primary key";
    } else {
      fix.kind = FixKind::kTextual;
      fix.explanation = "add a PRIMARY KEY to '" + d.table +
                        "' (introduce a surrogate key column if no natural key exists)";
    }
    return fix;
  }
};

class NoForeignKeyFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kNoForeignKey; }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    if (!d.table.empty() && !d.column.empty()) {
      // Detection recorded the join edge's right side; find the other table.
      // Only statements referencing d.table can carry the edge, so the
      // per-table statement index answers this without an O(workload) scan.
      std::string parent;
      for (const QueryFacts* facts : context.QueriesReferencing(d.table)) {
        for (const auto& j : facts->joins) {
          if (EqualsIgnoreCase(j.right_table, d.table) &&
              EqualsIgnoreCase(j.right_column, d.column) && !j.left_table.empty()) {
            parent = j.left_table;
          }
        }
      }
      if (!parent.empty()) {
        fix.kind = FixKind::kRewrite;
        fix.statements.push_back("ALTER TABLE " + d.table + " ADD CONSTRAINT fk_" +
                                 ToLower(d.table) + "_" + ToLower(d.column) +
                                 " FOREIGN KEY (" + d.column + ") REFERENCES " + parent +
                                 " (" + d.column + ");");
        fix.explanation = "declared the foreign key the JOIN already implies, so the "
                          "DBMS enforces referential integrity";
        return fix;
      }
    }
    fix.kind = FixKind::kTextual;
    fix.explanation = "declare FOREIGN KEY constraints for the join relationships of "
                      "table '" + d.table + "'";
    return fix;
  }
};

class RoundingErrorsFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kRoundingErrors; }

  Fix Propose(const Detection& d, const Context& context) const override {
    (void)context;
    Fix fix = BaseFix(d);
    fix.kind = FixKind::kRewrite;
    fix.statements.push_back("ALTER TABLE " + d.table + " ALTER COLUMN " + d.column +
                             " TYPE NUMERIC(12, 2);");
    fix.explanation = "NUMERIC stores exact decimals; FLOAT drifts under aggregation "
                      "and breaks equality predicates";
    return fix;
  }
};

class MissingTimezoneFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kMissingTimezone; }

  Fix Propose(const Detection& d, const Context& context) const override {
    (void)context;
    Fix fix = BaseFix(d);
    if (!d.column.empty()) {
      fix.kind = FixKind::kRewrite;
      fix.statements.push_back("ALTER TABLE " + d.table + " ALTER COLUMN " + d.column +
                               " TYPE TIMESTAMP WITH TIME ZONE;");
      fix.explanation = "timestamps without a zone are ambiguous the moment the "
                        "application crosses regions or DST";
    } else {
      fix.kind = FixKind::kTextual;
      fix.explanation = "store date-times in '" + d.table + "' with explicit timezones";
    }
    return fix;
  }
};

class IncorrectDataTypeFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kIncorrectDataType; }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    const TableProfile* profile = context.ProfileFor(d.table);
    const ColumnStats* stats =
        profile != nullptr ? profile->stats.FindColumn(d.column) : nullptr;
    std::string target = "NUMERIC(12, 2)";
    if (stats != nullptr &&
        stats->date_string_fraction > stats->numeric_string_fraction) {
      target = "TIMESTAMP WITH TIME ZONE";
    } else if (stats != nullptr && stats->numeric_string_fraction >= 0.9) {
      // All-integer strings become INTEGER.
      target = "INTEGER";
    }
    fix.kind = FixKind::kRewrite;
    fix.statements.push_back("ALTER TABLE " + d.table + " ALTER COLUMN " + d.column +
                             " TYPE " + target + ";");
    fix.explanation = "the sampled values are uniformly " +
                      std::string(target == "INTEGER" || target == "NUMERIC(12, 2)"
                                      ? "numeric"
                                      : "temporal") +
                      "; typed storage is smaller, ordered, and index-friendly";
    return fix;
  }
};

class RedundantColumnFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kRedundantColumn; }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    fix.kind = FixKind::kRewrite;
    fix.statements.push_back("ALTER TABLE " + d.table + " DROP COLUMN " + d.column + ";");
    fix.impacted_queries = ImpactedQueries(context, d.table, d.query);
    fix.explanation = "the column stores no information (all NULL or one constant); "
                      "dropping it shrinks every row";
    return fix;
  }
};

class NoDomainConstraintFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kNoDomainConstraint; }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    const TableProfile* profile = context.ProfileFor(d.table);
    const ColumnStats* stats =
        profile != nullptr ? profile->stats.FindColumn(d.column) : nullptr;
    std::string lo = stats != nullptr && stats->min ? stats->min->ToDisplay() : "0";
    std::string hi = stats != nullptr && stats->max ? stats->max->ToDisplay() : "100";
    fix.kind = FixKind::kRewrite;
    fix.statements.push_back("ALTER TABLE " + d.table + " ADD CONSTRAINT chk_" +
                             ToLower(d.column) + " CHECK (" + d.column + " BETWEEN " +
                             lo + " AND " + hi + ");");
    fix.explanation = "added a CHECK matching the observed value range so out-of-range "
                      "writes fail loudly";
    return fix;
  }
};

// ---------------------------------------------------------------------------
// Schema redesigns (DDL + guidance)
// ---------------------------------------------------------------------------

class MultiValuedAttributeFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kMultiValuedAttribute; }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    std::string map_table = d.table + "_" + d.column + "_map";
    std::string parent_pk = "id";
    const TableSchema* schema = context.catalog().FindTable(d.table);
    if (schema != nullptr && !schema->primary_key.empty()) {
      parent_pk = schema->primary_key[0];
    }
    fix.kind = FixKind::kRewrite;
    fix.statements.push_back(
        "CREATE TABLE " + map_table + " (" + parent_pk + " VARCHAR(64) REFERENCES " +
        d.table + " (" + parent_pk + "), value VARCHAR(64), PRIMARY KEY (" + parent_pk +
        ", value));");
    fix.statements.push_back("ALTER TABLE " + d.table + " DROP COLUMN " + d.column + ";");
    fix.impacted_queries = ImpactedQueries(context, d.table, d.query);
    fix.explanation =
        "replaced the delimiter-separated list with intersection table '" + map_table +
        "' (the paper's Hosting-table fix, §2.1.1); rewrite LIKE-based lookups as "
        "indexed joins through it";
    return fix;
  }
};

class EnumeratedTypesFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kEnumeratedTypes; }

  Fix Propose(const Detection& d, const Context& context) const override {
    Fix fix = BaseFix(d);
    std::string lookup = d.column + "_lookup";
    fix.kind = FixKind::kRewrite;
    fix.statements.push_back("CREATE TABLE " + lookup + " (" + d.column +
                             "_id SERIAL PRIMARY KEY, " + d.column +
                             "_name VARCHAR(64) UNIQUE NOT NULL);");
    fix.statements.push_back("ALTER TABLE " + d.table + " ADD COLUMN " + d.column +
                             "_id INTEGER REFERENCES " + lookup + " (" + d.column +
                             "_id);");
    fix.statements.push_back("ALTER TABLE " + d.table + " DROP COLUMN " + d.column + ";");
    fix.impacted_queries = ImpactedQueries(context, d.table, d.query);
    fix.explanation =
        "moved the value domain into lookup table '" + lookup +
        "' (Fig. 5 of the paper); renaming a value becomes one UPDATE instead of "
        "DROP CONSTRAINT + UPDATE + ADD CONSTRAINT";
    return fix;
  }
};

class AdjacencyListFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kAdjacencyList; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

  Fix Propose(const Detection& d, const Context& context) const override {
    (void)context;
    Fix fix = BaseFix(d);
    std::string closure = d.table + "_paths";
    fix.kind = FixKind::kTextual;
    fix.statements.push_back("CREATE TABLE " + closure +
                             " (ancestor VARCHAR(64), descendant VARCHAR(64), depth "
                             "INTEGER, PRIMARY KEY (ancestor, descendant));");
    fix.explanation =
        "self-referencing '" + d.table + "." + d.column +
        "' needs recursive traversal for subtree queries; materialize a closure "
        "table ('" + closure + "') or use recursive CTEs where supported";
    return fix;
  }
};

class GenericPrimaryKeyFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kGenericPrimaryKey; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

  Fix Propose(const Detection& d, const Context& context) const override {
    (void)context;
    Fix fix = BaseFix(d);
    fix.kind = FixKind::kTextual;
    fix.statements.push_back("ALTER TABLE " + d.table + " RENAME COLUMN id TO " +
                             ToLower(d.table) + "_id;");
    fix.explanation = "a descriptive key name disambiguates joins (USING(" +
                      ToLower(d.table) + "_id)) and self-documents foreign keys";
    return fix;
  }
};

// ---------------------------------------------------------------------------
// Textual fixers
// ---------------------------------------------------------------------------

/// Shared shape for the anti-patterns whose repair is inherently a design
/// conversation: a fixed kind/scope plus a detection-tailored explanation.
class TextualFixer : public Fixer {
 public:
  Fix Propose(const Detection& d, const Context& context) const override {
    (void)context;
    Fix fix = BaseFix(d);
    fix.kind = FixKind::kTextual;
    fix.explanation = Explain(d);
    return fix;
  }

 protected:
  virtual std::string Explain(const Detection& d) const = 0;
};

class DistinctAndJoinFixer final : public TextualFixer {
 public:
  AntiPattern type() const override { return AntiPattern::kDistinctAndJoin; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

 protected:
  std::string Explain(const Detection& d) const override {
    (void)d;
    return "DISTINCT is compensating for join fan-out; rewrite the join as a semi-join "
           "(EXISTS / IN) against the many-side, or aggregate before joining";
  }
};

class TooManyJoinsFixer final : public TextualFixer {
 public:
  AntiPattern type() const override { return AntiPattern::kTooManyJoins; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

 protected:
  std::string Explain(const Detection& d) const override {
    (void)d;
    return "split the query, cache the stable dimensions, or materialize a pre-joined "
           "view; if the joins stem from over-normalization, consider a modest "
           "denormalization of read-mostly attributes";
  }
};

class GodTableFixer final : public TextualFixer {
 public:
  AntiPattern type() const override { return AntiPattern::kGodTable; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

 protected:
  std::string Explain(const Detection& d) const override {
    return "vertically partition '" + d.table +
           "' into entity-focused tables; group columns by update cadence and access "
           "pattern, linked by the primary key";
  }
};

class DataInMetadataFixer final : public TextualFixer {
 public:
  AntiPattern type() const override { return AntiPattern::kDataInMetadata; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

 protected:
  std::string Explain(const Detection& d) const override {
    return "the numbered columns/tables of '" + d.table +
           "' encode a data dimension in schema names; fold the series index into a "
           "column of a child table";
  }
};

class CloneTableFixer final : public TextualFixer {
 public:
  AntiPattern type() const override { return AntiPattern::kCloneTable; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

 protected:
  std::string Explain(const Detection& d) const override {
    return "merge the '" + d.table +
           "'-style clones into one table with a discriminator column; the numeric "
           "suffix is data, and cross-clone queries currently need UNIONs";
  }
};

class ExternalDataStorageFixer final : public TextualFixer {
 public:
  AntiPattern type() const override { return AntiPattern::kExternalDataStorage; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

 protected:
  std::string Explain(const Detection& d) const override {
    (void)d;
    return "store the file content in a BLOB column (or at minimum enforce path "
           "integrity at the application edge); external files miss transactions, "
           "backups, and permissions";
  }
};

class ReadablePasswordFixer final : public TextualFixer {
 public:
  AntiPattern type() const override { return AntiPattern::kReadablePassword; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

 protected:
  std::string Explain(const Detection& d) const override {
    (void)d;
    return "store a salted adaptive hash (bcrypt/argon2) instead of the password and "
           "compare hashes in the application layer";
  }
};

class InformationDuplicationFixer final : public TextualFixer {
 public:
  AntiPattern type() const override { return AntiPattern::kInformationDuplication; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

 protected:
  std::string Explain(const Detection& d) const override {
    return "drop derived column '" + d.column +
           "' and compute it at query time (or in a view); stored derivations go stale "
           "when their sources change";
  }
};

class DenormalizedTableFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kDenormalizedTable; }
  QueryRuleScope fix_scope() const override { return QueryRuleScope::kStatementLocal; }

  Fix Propose(const Detection& d, const Context& context) const override {
    (void)context;
    Fix fix = BaseFix(d);
    fix.kind = FixKind::kTextual;
    fix.statements.push_back("CREATE TABLE " + d.column +
                             "_dim (id SERIAL PRIMARY KEY, " + d.column +
                             " VARCHAR(64) UNIQUE);");
    fix.explanation =
        "extract the functionally-dependent pair into a dimension table and "
        "reference it by id; duplicates currently amplify storage and can drift";
    return fix;
  }
};

}  // namespace

#define SQLCHECK_AP(Id, ...) \
  std::unique_ptr<Fixer> New##Id##Fixer() { return std::make_unique<Id##Fixer>(); }
#include "rules/catalog.def"

}  // namespace sqlcheck
