#include "sql/fingerprint.h"

#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "workload/corpus.h"

namespace sqlcheck::sql {
namespace {

const FingerprintOptions kTemplate = FingerprintOptions::Template();
const FingerprintOptions kExact = FingerprintOptions::Exact();

TEST(FingerprintTest, CanonicalFormLowercasesKeywordsAndCollapsesLiterals) {
  EXPECT_EQ(CanonicalizeSql("SELECT  *  FROM t WHERE a = 'x' -- note\n", kTemplate),
            "select * from t where a = ?");
}

TEST(FingerprintTest, ExactFormKeepsLiteralText) {
  EXPECT_EQ(CanonicalizeSql("SELECT * FROM t WHERE a = 'x' AND b = 2", kExact),
            "select * from t where a = 'x' and b = 2");
}

TEST(FingerprintTest, LiteralValuesDoNotChangeTemplateFingerprint) {
  uint64_t a = FingerprintSql("SELECT * FROM users WHERE id = 1", kTemplate);
  uint64_t b = FingerprintSql("SELECT * FROM users WHERE id = 42", kTemplate);
  uint64_t c = FingerprintSql("SELECT * FROM users WHERE id = 'abc'", kTemplate);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(FingerprintTest, ParamSpellingsShareATemplateFingerprint) {
  uint64_t q = FingerprintSql("SELECT * FROM t WHERE id = ?", kTemplate);
  EXPECT_EQ(q, FingerprintSql("SELECT * FROM t WHERE id = %s", kTemplate));
  EXPECT_EQ(q, FingerprintSql("SELECT * FROM t WHERE id = :id", kTemplate));
  EXPECT_EQ(q, FingerprintSql("SELECT * FROM t WHERE id = $1", kTemplate));
  // A literal collapses to the same placeholder as a parameter.
  EXPECT_EQ(q, FingerprintSql("SELECT * FROM t WHERE id = 7", kTemplate));
}

TEST(FingerprintTest, WhitespaceCommentsAndKeywordCaseAreInvariant) {
  const char* variants[] = {
      "SELECT name FROM users WHERE id = 3",
      "select name from users where id = 3",
      "SELECT   name\n\tFROM users  WHERE id = 3",
      "SELECT name /* inline */ FROM users WHERE id = 3",
      "SELECT name FROM users -- trailing\n WHERE id = 3",
  };
  uint64_t expected_template = FingerprintSql(variants[0], kTemplate);
  uint64_t expected_exact = FingerprintSql(variants[0], kExact);
  for (const char* v : variants) {
    EXPECT_EQ(FingerprintSql(v, kTemplate), expected_template) << v;
    EXPECT_EQ(FingerprintSql(v, kExact), expected_exact) << v;
  }
}

TEST(FingerprintTest, DistinctStructureYieldsDistinctFingerprints) {
  uint64_t base = FingerprintSql("SELECT a FROM t WHERE x = 1", kTemplate);
  EXPECT_NE(base, FingerprintSql("SELECT b FROM t WHERE x = 1", kTemplate));
  EXPECT_NE(base, FingerprintSql("SELECT a FROM u WHERE x = 1", kTemplate));
  EXPECT_NE(FingerprintSql("SELECT a FROM t WHERE x = 1 AND y = 2", kTemplate),
            FingerprintSql("SELECT a FROM t WHERE x = 1 OR y = 2", kTemplate));
  EXPECT_NE(FingerprintSql("SELECT DISTINCT a FROM t", kTemplate),
            FingerprintSql("SELECT a FROM t", kTemplate));
}

TEST(FingerprintTest, ExactModeDistinguishesLiterals) {
  EXPECT_NE(FingerprintSql("SELECT * FROM t WHERE id = 1", kExact),
            FingerprintSql("SELECT * FROM t WHERE id = 2", kExact));
  // Analysis-relevant literal content: wildcard position in LIKE patterns.
  EXPECT_NE(FingerprintSql("SELECT a FROM t WHERE a LIKE '%x'", kExact),
            FingerprintSql("SELECT a FROM t WHERE a LIKE 'x%'", kExact));
}

TEST(FingerprintTest, IdentifierCaseIsSignificant) {
  // The analyzer reports table/column names as written, so identifier case
  // must stay visible in both modes.
  EXPECT_NE(FingerprintSql("SELECT a FROM Users", kTemplate),
            FingerprintSql("SELECT a FROM users", kTemplate));
  EXPECT_NE(FingerprintSql("SELECT a FROM Users", kExact),
            FingerprintSql("SELECT a FROM users", kExact));
}

TEST(FingerprintTest, CanonicalRenderingIsInjective) {
  // Two adjacent strings vs one string whose text embeds quote-space-quote:
  // doubled-quote escaping keeps the canonical forms distinct.
  EXPECT_NE(CanonicalizeSql("SELECT 'a' 'b'", kExact),
            CanonicalizeSql("SELECT 'a'' ''b'", kExact));
  // A quoted identifier spelled like a keyword is not that keyword.
  EXPECT_NE(CanonicalizeSql("\"select\"", kExact), CanonicalizeSql("select", kExact));
  // A string is not a bare identifier.
  EXPECT_NE(FingerprintSql("SELECT 'a' FROM t", kExact),
            FingerprintSql("SELECT a FROM t", kExact));
}

TEST(FingerprintTest, CanonicalFormsMatchRecordedSpellings) {
  // Byte-exact on purpose: the persistent scan store keys records on
  // exact-canonical fingerprints, so a store written by an older build
  // stays valid only while every spelling is unchanged.
  struct Case {
    const char* sql;
    const char* exact;
    const char* tmpl;
  };
  const Case cases[] = {
      {"SELECT * FROM t WHERE a = 'it''s' AND b = 'a\\'b'",
       "select * from t where a = 'it''s' and b = 'a''b'",
       "select * from t where a = ? and b = ?"},
      {"SELECT \"col\" , `col`, [col], `a``b`, \"a\"\"b\", [a\"b] FROM t",
       "select \"col\" , \"col\" , \"col\" , \"a`b\" , \"a\"\"b\" , \"a\"\"b\" from t",
       "select \"col\" , \"col\" , \"col\" , \"a`b\" , \"a\"\"b\" , \"a\"\"b\" from t"},
      {"$$body$$ $tag$a $$ b$tag$ $unterminated$rest",
       "'body' 'a $$ b' 'rest'",
       "? ? ?"},
      {"$not_a_quote + $1 + ? + %s + :named",
       "$ not_a_quote + $1 + ? + %s + :named",
       "$ not_a_quote + ? + ? + ? + ?"},
      {"id%salary % %s",
       "id % salary % %s",
       "id % salary % ?"},
      {"1 2.5 3e10 4.2E-3 .5 1.e 5e+2",
       "1 2.5 3e10 4.2E-3 .5 1. e 5e+2",
       "? ? ? ? ? ? e ?"},
      {"/* outer /* inner */ still */ SELECT 1 -- tail\n# hash\n2",
       "select 1 2",
       "select ? ?"},
      {"j #>> 'p' #> 'q' @> x <@ y <=> z :: t -> u ->> v ~* w !~* q",
       "j #>> 'p' #> 'q' @> x <@ y <=> z :: t -> u ->> v ~* w !~* q",
       "j #>> ? #> ? @> x <@ y <=> z :: t -> u ->> v ~* w !~* q"},
      {"SeLeCt DiStInCt NaMe FrOm UsErS wHeRe Id In (1,2,3);",
       "select distinct NaMe from UsErS where Id in ( 1 , 2 , 3 ) ;",
       "select distinct NaMe from UsErS where Id in ( ? , ? , ? ) ;"},
      {"'unterminated string",
       "'unterminated string'",
       "?"},
      {"SELECT CASE WHEN a THEN 'x' END FROM t WHERE b LIKE '%y' ESCAPE '!'",
       "select case when a then 'x' end from t where b like '%y' escape '!'",
       "select case when a then ? end from t where b like ? escape ?"},
      {"",
       "",
       ""},
      {"   \t\n  ",
       "",
       ""},
      {"@ # $ ^ & !",
       "@",
       "@"},
      // Keyword letters the inputs above miss, such as the Z of ANALYZE.
      {"VACUUM; ANALYZE Tbl; "
       "CREATE UNIQUE INDEX IF NOT EXISTS Ix ON T (K) WITH RECURSIVE",
       "vacuum ; analyze Tbl ; "
       "create unique index if not exists Ix on T ( K ) with recursive",
       "vacuum ; analyze Tbl ; "
       "create unique index if not exists Ix on T ( K ) with recursive"},
  };
  TokenBuffer buffer;
  for (const Case& c : cases) {
    EXPECT_EQ(CanonicalizeSql(c.sql, kExact), c.exact) << "input: " << c.sql;
    EXPECT_EQ(CanonicalizeSql(c.sql, kTemplate), c.tmpl) << "input: " << c.sql;
    // A reused buffer renders the same bytes as a fresh one.
    EXPECT_EQ(CanonicalizeSql(c.sql, kExact, &buffer), c.exact) << "input: " << c.sql;
    EXPECT_EQ(CanonicalizeSql(c.sql, kTemplate, &buffer), c.tmpl) << "input: " << c.sql;
  }

  // Both forms of every statement of a seeded corpus, digested as
  // "exact\ntemplate\n" per statement.
  workload::CorpusOptions options;
  options.repo_count = 25;
  workload::Corpus corpus = workload::GenerateCorpus(options);
  std::string all;
  size_t statements = 0;
  for (const auto& s : corpus.AllStatements()) {
    all += CanonicalizeSql(s.sql, kExact, &buffer);
    all += '\n';
    all += CanonicalizeSql(s.sql, kTemplate, &buffer);
    all += '\n';
    ++statements;
  }
  EXPECT_EQ(statements, 376u);
  EXPECT_EQ(all.size(), 51549u);
  EXPECT_EQ(FingerprintCanonical(all), 0x672e961f34853fc7ull);
}

TEST(FingerprintTest, FingerprintIsHashOfCanonicalForm) {
  std::string canonical = CanonicalizeSql("SELECT 1", kTemplate);
  EXPECT_EQ(FingerprintSql("SELECT 1", kTemplate), FingerprintCanonical(canonical));
  EXPECT_NE(FingerprintCanonical("a"), FingerprintCanonical("b"));
}

}  // namespace
}  // namespace sqlcheck::sql
