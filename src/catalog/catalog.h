#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "common/strings.h"
#include "sql/ast.h"

namespace sqlcheck {

/// \brief Logical catalog: table + index schemas, buildable either from DDL
/// statements alone (when no database connection exists — §4.1) or from a
/// live Database (§4.2).
///
/// Ordering contract: every enumeration yields lowercased-name order.
/// Tables() and Indexes() order by lowercased table/index name (they sort on
/// demand: name lookups are hashed, and only tests enumerate everything);
/// IndexesOnTable() orders a table's indexes by lowercased index name, and
/// TablesWithStem() orders a stem's tables by lowercased table name. Index
/// Overuse reports the first prefix match in IndexesOnTable() order and
/// Clone Table the first sibling in TablesWithStem() order, so reports
/// depend on this order.
///
/// The per-table index lists and the stem lookup behind those two calls are
/// maintained eagerly by every mutation (never filled lazily: a parallel
/// Snapshot() reads one catalog from several threads). They hold keys, not
/// node pointers, so a copied or moved Catalog stays consistent.
class Catalog {
 public:
  Status AddTable(TableSchema schema);
  Status AddIndex(IndexSchema index);
  Status DropTable(std::string_view name);
  Status DropIndex(std::string_view name);

  /// Applies a DDL statement (CREATE TABLE/INDEX, ALTER TABLE, DROP ...).
  /// Non-DDL statements are ignored with OK status.
  Status ApplyDdl(const sql::Statement& stmt);

  const TableSchema* FindTable(std::string_view name) const;
  TableSchema* FindTableMutable(std::string_view name);
  const IndexSchema* FindIndex(std::string_view name) const;

  std::vector<const TableSchema*> Tables() const;
  std::vector<const IndexSchema*> Indexes() const;
  /// Indexes whose table matches `table` ignoring case; the table need not
  /// be declared. O(indexes on that table).
  std::vector<const IndexSchema*> IndexesOnTable(std::string_view table) const;

  /// True if some index on the table leads with the given column.
  bool HasIndexOnColumn(std::string_view table, std::string_view column) const;

  /// Tables whose CloneStem() equals `stem` ignoring case.
  std::vector<const TableSchema*> TablesWithStem(std::string_view stem) const;

  /// Numeric-suffix stem of a table name, a view into `name`: "orders_2" and
  /// "orders2" -> "orders". Empty when the name has no numeric suffix or is
  /// nothing but one.
  static std::string_view CloneStem(std::string_view name);

  size_t table_count() const { return tables_.size(); }

 private:
  // Keyed by lowercased name; values keep original casing. Probes stack-
  // lower the caller's name (LowerProbe) and hash the view — no ToLower
  // temporary, no per-character case folding. Node-based, so the schema
  // pointers the lookups hand out survive later inserts.
  template <class V>
  using NameMap = std::unordered_map<std::string, V, StringViewHash, std::equal_to<>>;
  NameMap<TableSchema> tables_;
  NameMap<IndexSchema> indexes_;

  using KeySet = std::set<std::string, std::less<>>;
  // Lowercased table name -> keys into indexes_ of the indexes on it.
  std::map<std::string, KeySet, std::less<>> indexes_by_table_;
  // Lowercased CloneStem -> keys into tables_ of the tables with that stem.
  std::map<std::string, KeySet, std::less<>> tables_by_stem_;

  void LinkStem(const std::string& table_key);
  void UnlinkStem(const std::string& table_key);
  Status RenameTable(std::string_view from, std::string_view to);
};

}  // namespace sqlcheck
