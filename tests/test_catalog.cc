#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include <cctype>
#include <random>

#include "common/strings.h"
#include "sql/parser.h"

namespace sqlcheck {
namespace {

sql::StatementPtr Parse(std::string_view text) { return sql::ParseStatement(text); }

TEST(SchemaTest, FromCreateTableExtractsEverything) {
  auto stmt = Parse(
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, email VARCHAR(60) NOT NULL "
      "UNIQUE, role VARCHAR(4) CHECK (role IN ('a','b')), team_id INTEGER REFERENCES "
      "teams(team_id) ON DELETE CASCADE, score INT DEFAULT 10)");
  auto schema = TableSchema::FromCreateTable(
      *stmt->As<sql::CreateTableStatement>());
  EXPECT_EQ(schema.name, "users");
  EXPECT_EQ(schema.primary_key, (std::vector<std::string>{"user_id"}));
  ASSERT_EQ(schema.columns.size(), 5u);
  EXPECT_TRUE(schema.columns[0].not_null);  // PK implies NOT NULL
  EXPECT_TRUE(schema.columns[1].not_null);
  EXPECT_TRUE(schema.columns[1].unique);
  ASSERT_EQ(schema.checks.size(), 1u);
  ASSERT_EQ(schema.foreign_keys.size(), 1u);
  EXPECT_EQ(schema.foreign_keys[0].ref_table, "teams");
  EXPECT_TRUE(schema.foreign_keys[0].on_delete_cascade);
  ASSERT_TRUE(schema.columns[4].default_value.has_value());
  EXPECT_EQ(schema.columns[4].default_value->AsInt(), 10);
}

TEST(SchemaTest, ColumnLookupIsCaseInsensitive) {
  auto stmt = Parse("CREATE TABLE t (Alpha INT, beta INT)");
  auto schema = TableSchema::FromCreateTable(*stmt->As<sql::CreateTableStatement>());
  EXPECT_NE(schema.FindColumn("alpha"), nullptr);
  EXPECT_NE(schema.FindColumn("BETA"), nullptr);
  EXPECT_EQ(schema.FindColumn("gamma"), nullptr);
  EXPECT_EQ(schema.ColumnIndex("ALPHA"), 0);
  EXPECT_EQ(schema.ColumnIndex("nope"), -1);
}

class CatalogTest : public ::testing::Test {
 protected:
  Status Apply(std::string_view ddl) { return catalog_.ApplyDdl(*Parse(ddl)); }
  Catalog catalog_;
};

TEST_F(CatalogTest, CreateAndDropTable) {
  EXPECT_TRUE(Apply("CREATE TABLE t (a INT)").ok());
  EXPECT_NE(catalog_.FindTable("T"), nullptr);
  EXPECT_FALSE(Apply("CREATE TABLE t (a INT)").ok());  // duplicate
  EXPECT_TRUE(Apply("CREATE TABLE IF NOT EXISTS t (a INT)").ok());
  EXPECT_TRUE(Apply("DROP TABLE t").ok());
  EXPECT_EQ(catalog_.FindTable("t"), nullptr);
  EXPECT_FALSE(Apply("DROP TABLE t").ok());
  EXPECT_TRUE(Apply("DROP TABLE IF EXISTS t").ok());
}

TEST_F(CatalogTest, IndexLifecycleFollowsTable) {
  Apply("CREATE TABLE t (a INT, b INT)");
  EXPECT_TRUE(Apply("CREATE INDEX idx_a ON t (a)").ok());
  EXPECT_NE(catalog_.FindIndex("idx_a"), nullptr);
  EXPECT_TRUE(catalog_.HasIndexOnColumn("t", "a"));
  EXPECT_FALSE(catalog_.HasIndexOnColumn("t", "b"));
  EXPECT_EQ(catalog_.IndexesOnTable("t").size(), 1u);
  Apply("DROP TABLE t");
  EXPECT_EQ(catalog_.FindIndex("idx_a"), nullptr);  // dropped with the table
}

TEST_F(CatalogTest, AlterAddAndDropColumn) {
  Apply("CREATE TABLE t (a INT)");
  EXPECT_TRUE(Apply("ALTER TABLE t ADD COLUMN b VARCHAR(10)").ok());
  EXPECT_NE(catalog_.FindTable("t")->FindColumn("b"), nullptr);
  EXPECT_TRUE(Apply("ALTER TABLE t DROP COLUMN a").ok());
  EXPECT_EQ(catalog_.FindTable("t")->FindColumn("a"), nullptr);
  EXPECT_FALSE(Apply("ALTER TABLE t DROP COLUMN nope").ok());
}

TEST_F(CatalogTest, AlterConstraints) {
  Apply("CREATE TABLE t (a INT, b INT)");
  EXPECT_TRUE(Apply("ALTER TABLE t ADD CONSTRAINT chk CHECK (a > 0)").ok());
  EXPECT_EQ(catalog_.FindTable("t")->checks.size(), 1u);
  EXPECT_TRUE(Apply("ALTER TABLE t DROP CONSTRAINT chk").ok());
  EXPECT_TRUE(catalog_.FindTable("t")->checks.empty());
  EXPECT_FALSE(Apply("ALTER TABLE t DROP CONSTRAINT chk").ok());
  EXPECT_TRUE(Apply("ALTER TABLE t DROP CONSTRAINT IF EXISTS chk").ok());

  EXPECT_TRUE(Apply("ALTER TABLE t ADD PRIMARY KEY (a)").ok());
  EXPECT_EQ(catalog_.FindTable("t")->primary_key, (std::vector<std::string>{"a"}));
}

TEST_F(CatalogTest, AlterColumnTypeAndRenames) {
  Apply("CREATE TABLE t (a FLOAT)");
  EXPECT_TRUE(Apply("ALTER TABLE t ALTER COLUMN a TYPE NUMERIC(10, 2)").ok());
  EXPECT_EQ(catalog_.FindTable("t")->FindColumn("a")->type.id, TypeId::kNumeric);
  EXPECT_TRUE(Apply("ALTER TABLE t RENAME COLUMN a TO amount").ok());
  EXPECT_NE(catalog_.FindTable("t")->FindColumn("amount"), nullptr);
  EXPECT_TRUE(Apply("ALTER TABLE t RENAME TO u").ok());
  EXPECT_EQ(catalog_.FindTable("t"), nullptr);
  EXPECT_NE(catalog_.FindTable("u"), nullptr);
}

TEST_F(CatalogTest, DmlIsIgnored) {
  EXPECT_TRUE(Apply("SELECT 1").ok());
  EXPECT_TRUE(Apply("INSERT INTO missing VALUES (1)").ok());
  EXPECT_EQ(catalog_.table_count(), 0u);
}

TEST_F(CatalogTest, TablesEnumeration) {
  Apply("CREATE TABLE a (x INT)");
  Apply("CREATE TABLE b (y INT)");
  EXPECT_EQ(catalog_.Tables().size(), 2u);
}

TEST_F(CatalogTest, RenameTableKeepsItsIndexes) {
  Apply("CREATE TABLE t (id INT PRIMARY KEY, email VARCHAR(64))");
  Apply("CREATE INDEX idx_t_email ON t (email)");
  ASSERT_TRUE(Apply("ALTER TABLE t RENAME TO Users").ok());
  EXPECT_TRUE(catalog_.IndexesOnTable("t").empty());
  auto on_users = catalog_.IndexesOnTable("users");
  ASSERT_EQ(on_users.size(), 1u);
  EXPECT_EQ(on_users[0]->name, "idx_t_email");
  EXPECT_EQ(on_users[0]->table, "Users");
  EXPECT_TRUE(catalog_.HasIndexOnColumn("USERS", "email"));
  // The renamed table's indexes still drop with it.
  Apply("DROP TABLE users");
  EXPECT_EQ(catalog_.FindIndex("idx_t_email"), nullptr);
}

TEST_F(CatalogTest, RenameTableOntoAnExistingTableFails) {
  Apply("CREATE TABLE a (x INT)");
  Apply("CREATE TABLE b (y INT)");
  Apply("CREATE INDEX idx_a_x ON a (x)");
  EXPECT_FALSE(Apply("ALTER TABLE a RENAME TO B").ok());
  ASSERT_NE(catalog_.FindTable("a"), nullptr);
  EXPECT_NE(catalog_.FindTable("b")->FindColumn("y"), nullptr);
  EXPECT_EQ(catalog_.IndexesOnTable("a").size(), 1u);
  EXPECT_TRUE(catalog_.IndexesOnTable("b").empty());
}

TEST_F(CatalogTest, RenameColumnRenamesIndexColumns) {
  Apply("CREATE TABLE users (id INT PRIMARY KEY, email VARCHAR(64), name TEXT)");
  Apply("CREATE INDEX idx_users_name_email ON users (name, EMAIL)");
  Apply("CREATE INDEX idx_other_email ON other (email)");
  ASSERT_TRUE(Apply("ALTER TABLE users RENAME COLUMN email TO mail").ok());
  EXPECT_EQ(catalog_.FindIndex("idx_users_name_email")->columns,
            (std::vector<std::string>{"name", "mail"}));
  // Another table's index on a same-named column is not touched.
  EXPECT_EQ(catalog_.FindIndex("idx_other_email")->columns,
            (std::vector<std::string>{"email"}));
}

TEST(CatalogStemTest, CloneStemStripsNumericSuffix) {
  EXPECT_EQ(Catalog::CloneStem("orders_2"), "orders");
  EXPECT_EQ(Catalog::CloneStem("Orders2019"), "Orders");
  EXPECT_EQ(Catalog::CloneStem("a_b_12"), "a_b");
  EXPECT_EQ(Catalog::CloneStem("orders"), "");
  EXPECT_EQ(Catalog::CloneStem("2019"), "");
  EXPECT_EQ(Catalog::CloneStem("_7"), "");
  EXPECT_EQ(Catalog::CloneStem(""), "");
}

// ---- secondary indexes vs. a linear-scan reference ----

// Reference stemmer, written independently of Catalog::CloneStem so the
// differential test checks that too.
std::string ReferenceStem(std::string_view name) {
  size_t end = name.size();
  while (end > 0 && std::isdigit(static_cast<unsigned char>(name[end - 1]))) --end;
  if (end == name.size() || end == 0) return "";
  if (name[end - 1] == '_') --end;
  return std::string(name.substr(0, end));
}

std::vector<const IndexSchema*> ScanIndexesOnTable(const Catalog& catalog,
                                                   std::string_view table) {
  std::vector<const IndexSchema*> out;
  for (const auto* index : catalog.Indexes()) {
    if (EqualsIgnoreCase(index->table, table)) out.push_back(index);
  }
  return out;
}

bool ScanHasIndexOnColumn(const Catalog& catalog, std::string_view table,
                          std::string_view column) {
  for (const auto* index : catalog.Indexes()) {
    if (EqualsIgnoreCase(index->table, table) && !index->columns.empty() &&
        EqualsIgnoreCase(index->columns[0], column)) {
      return true;
    }
  }
  return false;
}

std::vector<const TableSchema*> ScanTablesWithStem(const Catalog& catalog,
                                                   std::string_view stem) {
  std::vector<const TableSchema*> out;
  for (const auto* table : catalog.Tables()) {
    std::string table_stem = ReferenceStem(table->name);
    if (!table_stem.empty() && EqualsIgnoreCase(table_stem, stem)) out.push_back(table);
  }
  return out;
}

// Mixed-case pools: "t"/"T" and "orders_3"/"Orders_3" name the same object.
const std::vector<std::string> kTables = {"t",      "T",        "t1",      "T_2",
                                          "orders", "Orders_3", "orders4", "ORDERS_10",
                                          "x_1",    "users",    "Users2"};
const std::vector<std::string> kColumns = {"a", "B", "c"};
const std::vector<std::string> kIndexNames = {"i1", "I1", "i2", "ix_a", "IX_B", "i_3"};
const std::vector<std::string> kStems = {"t",     "T",     "orders", "ORDERS",
                                         "x",     "users", "zzz"};

// Describes the first answer where the secondary indexes disagree with the
// linear scan (pointer identity, so contents and order both count), or "".
std::string FirstMismatch(const Catalog& catalog) {
  for (const auto& table : kTables) {
    if (catalog.IndexesOnTable(table) != ScanIndexesOnTable(catalog, table)) {
      return "IndexesOnTable(" + table + ")";
    }
    for (const auto& column : kColumns) {
      if (catalog.HasIndexOnColumn(table, column) !=
          ScanHasIndexOnColumn(catalog, table, column)) {
        return "HasIndexOnColumn(" + table + ", " + column + ")";
      }
    }
  }
  for (const auto& stem : kStems) {
    if (catalog.TablesWithStem(stem) != ScanTablesWithStem(catalog, stem)) {
      return "TablesWithStem(" + stem + ")";
    }
  }
  for (const auto* table : catalog.Tables()) {
    if (Catalog::CloneStem(table->name) != ReferenceStem(table->name)) {
      return "CloneStem(" + table->name + ")";
    }
  }
  return "";
}

// Every answer, by name, so two catalogs can be compared.
std::string Answers(const Catalog& catalog) {
  std::string out;
  for (const auto& table : kTables) {
    out += table + ":";
    for (const auto* index : catalog.IndexesOnTable(table)) {
      out += " " + index->name + "@" + index->table;
      out += "(" + Join(index->columns, ",") + ")";
    }
    for (const auto& column : kColumns) {
      out += catalog.HasIndexOnColumn(table, column) ? " +" : " -";
    }
    out += "\n";
  }
  for (const auto& stem : kStems) {
    out += stem + ":";
    for (const auto* table : catalog.TablesWithStem(stem)) out += " " + table->name;
    out += "\n";
  }
  return out;
}

// Randomly re-cases `name`: lookups must not care how a name is spelled.
std::string Recase(std::string_view name, std::mt19937& rng) {
  std::string out(name);
  for (char& c : out) {
    if (std::uniform_int_distribution<int>(0, 1)(rng) == 1) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

// Describes the first place where the name lookups or the enumeration order
// disagree with a linear scan, or "": Tables() and Indexes() come out in
// lowercased-name order, FindTable/FindIndex under any casing return what
// a scan finds, and a name that was never declared returns null.
std::string LookupMismatch(const Catalog& catalog, std::mt19937& rng) {
  const std::vector<const TableSchema*> tables = catalog.Tables();
  const std::vector<const IndexSchema*> indexes = catalog.Indexes();
  if (tables.size() != catalog.table_count()) return "Tables() size";
  for (size_t k = 1; k < tables.size(); ++k) {
    if (!(ToLower(tables[k - 1]->name) < ToLower(tables[k]->name))) {
      return "Tables() order at " + tables[k]->name;
    }
  }
  for (size_t k = 1; k < indexes.size(); ++k) {
    if (!(ToLower(indexes[k - 1]->name) < ToLower(indexes[k]->name))) {
      return "Indexes() order at " + indexes[k]->name;
    }
  }
  for (const auto& name : kTables) {
    const TableSchema* scanned = nullptr;
    for (const auto* table : tables) {
      if (EqualsIgnoreCase(table->name, name)) scanned = table;
    }
    const std::string probe = Recase(name, rng);
    if (catalog.FindTable(probe) != scanned) return "FindTable(" + probe + ")";
  }
  for (const auto& name : kIndexNames) {
    const IndexSchema* scanned = nullptr;
    for (const auto* index : indexes) {
      if (EqualsIgnoreCase(index->name, name)) scanned = index;
    }
    const std::string probe = Recase(name, rng);
    if (catalog.FindIndex(probe) != scanned) return "FindIndex(" + probe + ")";
  }
  for (const char* missing : {"no_such_name", "T_", "orders_", "ix", ""}) {
    if (catalog.FindTable(missing) != nullptr) {
      return std::string("FindTable(") + missing + ")";
    }
    if (catalog.FindIndex(missing) != nullptr) {
      return std::string("FindIndex(") + missing + ")";
    }
  }
  return "";
}

struct RandomDdl {
  std::string sql;
  sql::StatementKind kind;
};

RandomDdl NextDdl(std::mt19937& rng) {
  auto draw = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  // Every draw happens up front, in a fixed order, so a seed names one sequence.
  const size_t op = draw(6);
  const std::string& table = kTables[draw(kTables.size())];
  const std::string& other_table = kTables[draw(kTables.size())];
  const std::string& index = kIndexNames[draw(kIndexNames.size())];
  const std::string& column = kColumns[draw(kColumns.size())];
  const std::string& other_column = kColumns[draw(kColumns.size())];
  const std::string if_exists = draw(2) == 1 ? "IF EXISTS " : "";
  const std::string if_not_exists = draw(2) == 1 ? "IF NOT EXISTS " : "";
  const std::string unique = draw(2) == 1 ? "UNIQUE " : "";
  const std::string columns = draw(2) == 1 ? column + ", " + other_column : column;
  switch (op) {
    case 0:
      return {"CREATE TABLE " + if_not_exists + table + " (a INT, b INT, c INT)",
              sql::StatementKind::kCreateTable};
    case 1:
      return {"DROP TABLE " + if_exists + table, sql::StatementKind::kDropTable};
    case 2:
      // The table need not be declared: indexes may precede their table.
      return {"CREATE " + unique + "INDEX " + if_not_exists + index + " ON " + table +
                  " (" + columns + ")",
              sql::StatementKind::kCreateIndex};
    case 3:
      return {"DROP INDEX " + if_exists + index, sql::StatementKind::kDropIndex};
    case 4:
      return {"ALTER TABLE " + table + " RENAME TO " + other_table,
              sql::StatementKind::kAlterTable};
    default:
      return {"ALTER TABLE " + table + " RENAME COLUMN " + column + " TO " + other_column,
              sql::StatementKind::kAlterTable};
  }
}

TEST(CatalogIndexDifferentialTest, SecondaryIndexesMatchLinearScan) {
  for (uint32_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    std::mt19937 rng(seed);
    std::mt19937 casing(seed ^ 0xca5eu);
    Catalog catalog;
    std::string trace;
    for (int step = 0; step < 400; ++step) {
      RandomDdl ddl = NextDdl(rng);
      trace += ddl.sql + ";\n";
      auto stmt = Parse(ddl.sql);
      ASSERT_EQ(stmt->kind, ddl.kind) << ddl.sql;

      Catalog before = catalog;
      std::string answers_before = Answers(before);
      catalog.ApplyDdl(*stmt);  // errors (duplicates, missing names) are part of the mix

      ASSERT_EQ(FirstMismatch(catalog), "") << "seed " << seed << " after:\n" << trace;
      ASSERT_EQ(LookupMismatch(catalog, casing), "") << "seed " << seed << " after:\n"
                                                     << trace;
      // A copy taken before the step is unaffected by it.
      ASSERT_EQ(FirstMismatch(before), "") << "seed " << seed << " copy:\n" << trace;
      ASSERT_EQ(LookupMismatch(before, casing), "") << "seed " << seed;
      ASSERT_EQ(Answers(before), answers_before) << "seed " << seed;
      // Copied and moved catalogs answer the same, from their own storage.
      Catalog copy = catalog;
      ASSERT_EQ(FirstMismatch(copy), "") << "seed " << seed;
      ASSERT_EQ(LookupMismatch(copy, casing), "") << "seed " << seed;
      Catalog moved = std::move(copy);
      ASSERT_EQ(FirstMismatch(moved), "") << "seed " << seed;
      ASSERT_EQ(LookupMismatch(moved, casing), "") << "seed " << seed;
      ASSERT_EQ(Answers(moved), Answers(catalog)) << "seed " << seed;
      Catalog assigned;
      assigned = std::move(moved);
      ASSERT_EQ(FirstMismatch(assigned), "") << "seed " << seed;
      ASSERT_EQ(LookupMismatch(assigned, casing), "") << "seed " << seed;
      ASSERT_EQ(Answers(assigned), Answers(catalog)) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace sqlcheck
