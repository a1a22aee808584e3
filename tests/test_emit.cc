// Structured report emitters: the JSON shape is golden-file tested byte for
// byte (determinism is part of the contract — CI diffs, dashboards, and
// code-scanning uploads all depend on it), and the SARIF rendering is pinned
// to the 2.1.0 required-key set plus the full 27-rule driver catalog.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/random.h"
#include "core/emit.h"
#include "core/sqlcheck.h"
#include "server/wire.h"
#include "workload/corpus.h"

namespace sqlcheck {
namespace {

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(EmitJsonTest, GoldenSingleFinding) {
  Report report = FindAntiPatterns("SELECT * FROM users");
  const char* kGolden = R"json({
  "tool": "sqlcheck",
  "findings": 1,
  "distinct_types": 1,
  "results": [
    {
      "rank": 1,
      "rule": "Column Wildcard Usage",
      "id": "column-wildcard-usage",
      "category": "Query",
      "source": "intra-query",
      "score": 0.212,
      "table": "users",
      "column": "",
      "query": "SELECT * FROM users",
      "message": "SELECT * couples the application to the table layout; it breaks on refactoring and fetches columns the caller never reads",
      "fix": {
        "kind": "textual",
        "explanation": "replace SELECT * with the columns the caller actually reads",
        "statements": [],
        "impacted_queries": 0
      }
    }
  ]
}
)json";
  EXPECT_EQ(report.ToJson(), kGolden);
  EXPECT_EQ(ToJson(report), kGolden);  // member delegates to the free emitter
}

TEST(EmitJsonTest, GoldenEmptyReport) {
  Report report = FindAntiPatterns("SELECT id FROM t WHERE id = 1");
  ASSERT_TRUE(report.empty());
  EXPECT_EQ(report.ToJson(),
            "{\n"
            "  \"tool\": \"sqlcheck\",\n"
            "  \"findings\": 0,\n"
            "  \"distinct_types\": 0,\n"
            "  \"results\": []\n"
            "}\n");
}

TEST(EmitJsonTest, MaxFindingsCapsResultsAndReportsSuppressed) {
  SqlCheck checker;
  checker.AddScript(
      "SELECT * FROM a; SELECT * FROM b; SELECT x FROM c ORDER BY RAND();");
  Report report = checker.Run();
  ASSERT_EQ(report.size(), 3u);

  EmitOptions options;
  options.max_findings = 1;
  std::string json = ToJson(report, options);
  EXPECT_EQ(CountOccurrences(json, "\"rank\":"), 1u);
  EXPECT_NE(json.find("\"findings\": 3"), std::string::npos);  // totals stay honest
  EXPECT_NE(json.find("\"suppressed\": 2"), std::string::npos);
}

TEST(EmitJsonTest, EscapesQuotesNewlinesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line1\nline2\ttab"), "line1\\nline2\\ttab");
  EXPECT_EQ(JsonEscape(std::string("nul\x01", 4)), "nul\\u0001");

  Report report = FindAntiPatterns("SELECT * FROM users WHERE name = 'a\"b\nc'");
  std::string json = report.ToJson();
  EXPECT_NE(json.find("a\\\"b\\nc"), std::string::npos);
  EXPECT_EQ(json.find("a\"b"), std::string::npos);  // raw quote never leaks
  EXPECT_EQ(json.find("b\nc"), std::string::npos);  // raw newline never leaks
}

TEST(EmitSarifTest, CarriesRequiredSarifKeysAndCatalog) {
  Report report = FindAntiPatterns("SELECT * FROM users");
  EmitOptions options;
  options.artifact_uri = "app/queries.sql";
  std::string sarif = ToSarif(report, options);

  // SARIF 2.1.0 required keys.
  EXPECT_NE(sarif.find("\"$schema\": "
                       "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                       "master/Schemata/sarif-schema-2.1.0.json\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"runs\": ["), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"sqlcheck\""), std::string::npos);

  // Full 27-rule driver catalog, one entry per anti-pattern.
  EXPECT_EQ(CountOccurrences(sarif, "\"shortDescription\""),
            static_cast<size_t>(kAntiPatternCount));

  // The result block, pinned exactly.
  const char* kResult = R"json(        {
          "ruleId": "column-wildcard-usage",
          "ruleIndex": 13,
          "level": "warning",
          "message": { "text": "SELECT * couples the application to the table layout; it breaks on refactoring and fetches columns the caller never reads | query: SELECT * FROM users" },
          "locations": [
            {
              "physicalLocation": { "artifactLocation": { "uri": "app/queries.sql" } },
              "logicalLocations": [ { "name": "users", "kind": "member" } ]
            }
          ],
          "properties": { "score": 0.212, "source": "intra-query" }
        })json";
  EXPECT_NE(sarif.find(kResult), std::string::npos) << sarif;
}

TEST(EmitSarifTest, OmitsPhysicalLocationWithoutArtifactUri) {
  Report report = FindAntiPatterns("SELECT * FROM users");
  std::string sarif = report.ToSarif();
  EXPECT_EQ(sarif.find("physicalLocation"), std::string::npos);
  EXPECT_NE(sarif.find("logicalLocations"), std::string::npos);
}

TEST(EmitSarifTest, EmptyReportIsStillAValidRun) {
  Report report;
  std::string sarif = report.ToSarif();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
  EXPECT_EQ(CountOccurrences(sarif, "\"shortDescription\""),
            static_cast<size_t>(kAntiPatternCount));
}

TEST(EmitFixesTest, GoldenJsonWithVerifiedRewrite) {
  // --fixes surface: the fix object gains verification fields and the
  // impacted list; everything before them is byte-identical to the default
  // emission (the baseline shape is golden-tested above).
  SqlCheck checker;
  checker.AddScript(
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, name VARCHAR(10));\n"
      "SELECT * FROM users;\n");
  Report report = checker.Run();
  ASSERT_EQ(report.size(), 1u);

  EmitOptions options;
  options.include_fixes = true;
  const char* kGoldenFix = R"json(      "fix": {
        "kind": "rewrite",
        "explanation": "expanded SELECT * into the concrete column list so schema changes cannot silently alter the result shape",
        "statements": ["SELECT user_id, name FROM users;"],
        "impacted_queries": 0,
        "verified": true,
        "verify_tier": "analysis",
        "replaces_original": true,
        "verify_note": "",
        "anchor": "SELECT * FROM users",
        "impacted": []
      })json";
  std::string json = ToJson(report, options);
  EXPECT_NE(json.find(kGoldenFix), std::string::npos) << json;
  // Severity grading (ranking/model.h thresholds) rides the same surface.
  EXPECT_NE(json.find("\"severity\": \"medium\""), std::string::npos) << json;

  // Without --fixes the very same report emits the baseline fix shape.
  std::string baseline = ToJson(report);
  EXPECT_EQ(baseline.find("\"verified\""), std::string::npos);
  EXPECT_NE(baseline.find("\"impacted_queries\": 0\n"), std::string::npos);
}

TEST(EmitFixesTest, GoldenSarifFixesShape) {
  const char* kWorkload =
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, name VARCHAR(10));\n"
      "SELECT * FROM users;\n";
  SqlCheck checker;
  checker.AddScript(kWorkload);
  Report report = checker.Run();
  ASSERT_EQ(report.size(), 1u);

  EmitOptions options;
  options.include_fixes = true;
  options.artifact_uri = "app/queries.sql";
  options.artifact_content = kWorkload;
  std::string sarif = ToSarif(report, options);

  // SARIF 2.1.0 fixes[] shape, pinned exactly: one fix, one artifactChange,
  // one replacement whose deletedRegion spans the offending statement's
  // bytes inside the artifact.
  const char* kGoldenFixes = R"json(          "fixes": [
            {
              "description": { "text": "expanded SELECT * into the concrete column list so schema changes cannot silently alter the result shape" },
              "properties": { "verify_tier": "analysis" },
              "artifactChanges": [
                {
                  "artifactLocation": { "uri": "app/queries.sql" },
                  "replacements": [
                    {
                      "deletedRegion": { "charOffset": 68, "charLength": 20 },
                      "insertedContent": { "text": "SELECT user_id, name FROM users;" }
                    }
                  ]
                }
              ]
            }
          ],)json";
  EXPECT_NE(sarif.find(kGoldenFixes), std::string::npos) << sarif;

  // The deleted region really is the offending statement, terminator
  // included — applying the ;-terminated rewrite must not double it.
  EXPECT_EQ(std::string(kWorkload).substr(68, 20), "SELECT * FROM users;");

  // Default SARIF emission stays fix-free.
  EmitOptions plain;
  plain.artifact_uri = "app/queries.sql";
  EXPECT_EQ(ToSarif(report, plain).find("\"fixes\""), std::string::npos);
}

TEST(EmitFixesTest, DuplicateOffendersAnchorToSuccessiveOccurrences) {
  const char* kWorkload =
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, name VARCHAR(10));\n"
      "SELECT * FROM users;\n"
      "SELECT * FROM users;\n";
  SqlCheck checker;
  checker.AddScript(kWorkload);
  Report report = checker.Run();
  ASSERT_EQ(report.size(), 2u);

  EmitOptions options;
  options.include_fixes = true;
  options.artifact_uri = "app/queries.sql";
  options.artifact_content = kWorkload;
  std::string sarif = ToSarif(report, options);
  // Two identical offending statements: each result's fix must delete its
  // own occurrence, not both the first.
  std::string content(kWorkload);
  size_t first = content.find("SELECT * FROM users;");
  size_t second = content.find("SELECT * FROM users;", first + 1);
  EXPECT_NE(sarif.find("\"charOffset\": " + std::to_string(first) + ","),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"charOffset\": " + std::to_string(second) + ","),
            std::string::npos)
      << sarif;
}

TEST(EmitFixesTest, AdditiveDdlFixInsertsAtEndOfArtifact) {
  const char* kWorkload =
      "CREATE TABLE t (k INTEGER PRIMARY KEY, owner VARCHAR(10));\n"
      "SELECT k FROM t WHERE owner = 'x';\n";
  SqlCheck checker;
  checker.AddScript(kWorkload);
  Report report = checker.Run();

  EmitOptions options;
  options.include_fixes = true;
  options.artifact_uri = "app/queries.sql";
  options.artifact_content = kWorkload;
  std::string sarif = ToSarif(report, options);
  // Index Underuse proposes CREATE INDEX — an additive fix: zero-length
  // deletion at end-of-artifact.
  std::string expected = "\"deletedRegion\": { \"charOffset\": " +
                         std::to_string(std::string(kWorkload).size()) +
                         ", \"charLength\": 0 }";
  EXPECT_NE(sarif.find(expected), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("CREATE INDEX idx_t_owner ON t (owner);"), std::string::npos);
}

TEST(ReportTextTest, ColorAddsAnsiWithoutChangingDefaultOutput) {
  Report report = FindAntiPatterns("SELECT * FROM users");
  std::string plain = report.ToText();
  std::string colored = report.ToText(0, /*color=*/true);
  EXPECT_EQ(plain.find('\x1b'), std::string::npos);
  EXPECT_NE(colored.find("\x1b[1m"), std::string::npos);
  EXPECT_NE(plain, colored);

  // Stripping the escape codes recovers the plain rendering exactly.
  std::string stripped;
  for (size_t i = 0; i < colored.size(); ++i) {
    if (colored[i] == '\x1b') {
      while (i < colored.size() && colored[i] != 'm') ++i;
      continue;
    }
    stripped.push_back(colored[i]);
  }
  EXPECT_EQ(stripped, plain);
}

/// A `check` request line carrying `sql`, escaped by AppendJsonString.
std::string CheckLine(std::string_view sql) {
  std::string line = R"({"op": "check", "sql": ")";
  AppendJsonString(&line, sql);
  line += "\"}";
  return line;
}

/// Appends `cp` as UTF-8 (cp must be a valid scalar value).
void AppendCodepoint(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

TEST(EmitEscapeTest, EveryAsciiByteRoundTripsThroughTheRequestParser) {
  for (int b = 0; b < 0x80; ++b) {
    const std::string sql = std::string("a") + static_cast<char>(b) + "z";
    server::Request request = server::ParseRequest(CheckLine(sql));
    ASSERT_TRUE(request.ok) << "byte " << b << ": " << request.error_message;
    EXPECT_EQ(request.sql, sql) << "byte " << b;
  }
}

TEST(EmitEscapeTest, RandomUtf8WithQuotesBackslashesAndControlsRoundTrips) {
  Rng rng(20200614);
  const char kSpecial[] = {'"',  '\\', '\n',   '\r',   '\t',
                           '\b', '\f', '\x00', '\x01', '\x1f'};
  for (int i = 0; i < 500; ++i) {
    std::string sql;
    const uint64_t length = rng.NextBelow(64);
    for (uint64_t c = 0; c < length; ++c) {
      // Special bytes, then 2-, 3- and 4-byte sequences (no surrogates),
      // then printable ASCII.
      const uint64_t kind = rng.NextBelow(6);
      if (kind == 0) {
        sql.push_back(kSpecial[rng.NextBelow(sizeof(kSpecial))]);
      } else if (kind == 1) {
        AppendCodepoint(0x80 + static_cast<uint32_t>(rng.NextBelow(0x780)), &sql);
      } else if (kind == 2) {
        AppendCodepoint(0x800 + static_cast<uint32_t>(rng.NextBelow(0xD000)), &sql);
      } else if (kind == 3) {
        AppendCodepoint(0x10000 + static_cast<uint32_t>(rng.NextBelow(0x100000)), &sql);
      } else {
        sql.push_back(static_cast<char>(0x20 + rng.NextBelow(0x60)));
      }
    }
    server::Request request = server::ParseRequest(CheckLine(sql));
    ASSERT_TRUE(request.ok) << "string " << i << ": " << request.error_message;
    EXPECT_EQ(request.sql, sql) << "string " << i;
    // JsonEscape is the same escape into a fresh string, and appending keeps
    // what the buffer already holds.
    std::string appended = "prefix";
    AppendJsonString(&appended, sql);
    EXPECT_EQ(appended, "prefix" + JsonEscape(sql));
  }
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(EmitDigestTest, SeededCorpusReportsKeepTheirBytes) {
  // A 60-repository synthetic corpus through the CLI-default pipeline: 652
  // findings with quotes, newlines and verified rewrites. The FNV-1a digests
  // pin every byte of the three renderings.
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 60;
  corpus_options.seed = 15;
  std::string script;
  for (const auto& repo : workload::GenerateCorpus(corpus_options).repos) {
    for (const auto& statement : repo.statements) {
      script += statement.sql;
      script += ";\n";
    }
  }
  SqlCheck checker;
  checker.AddScript(script);
  Report report = checker.Run();
  ASSERT_EQ(report.size(), 652u);

  EmitOptions fixes;
  fixes.include_fixes = true;
  EmitOptions sarif = fixes;
  sarif.artifact_uri = "corpus.sql";
  sarif.artifact_content = script;
  EXPECT_EQ(Fnv1a(ToJson(report)), 11445377018787573799ull);
  EXPECT_EQ(Fnv1a(ToJson(report, fixes)), 4098979587868157582ull);
  EXPECT_EQ(Fnv1a(ToSarif(report, sarif)), 12925669224436344800ull);
}

}  // namespace
}  // namespace sqlcheck
