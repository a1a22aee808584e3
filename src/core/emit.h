#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/report.h"

namespace sqlcheck {

/// \brief Options for the structured report emitters.
struct EmitOptions {
  /// Cap on emitted findings (0 = all) — the CLI's --top flag.
  size_t max_findings = 0;
  /// Artifact URI recorded in SARIF result locations ("" = omit physical
  /// locations; logical locations — table/column — are always emitted).
  std::string artifact_uri;
  /// Surface the full diagnosis (the CLI's --fixes flag): ToJson adds the
  /// verification fields and impacted-query list to each fix object, and
  /// ToSarif emits SARIF 2.1.0 `fixes[]` with artifactChanges/replacements
  /// whose regions are located inside `artifact_content`. Off by default so
  /// the baseline emission stays byte-stable.
  bool include_fixes = false;
  /// The workload text behind `artifact_uri`; SARIF fix replacement regions
  /// (deletedRegion charOffset/charLength) are computed by locating each
  /// fix's anchor statement in it. Leave empty to omit fixes[] regions.
  std::string artifact_content;
};

/// \brief Renders the report as deterministic, pretty-printed JSON: run
/// totals plus one result object per finding (rule, category, source, score,
/// table/column, offending query, message, and the suggested fix). Byte
/// stability is part of the contract — golden-file tested.
std::string ToJson(const Report& report, const EmitOptions& options = {});

/// \brief Renders the report as a SARIF 2.1.0 log (the GitHub code scanning
/// / IDE interchange format): one run, the full 27-rule driver catalog, and
/// one result per finding with logical (table/column) locations. Validated
/// against the SARIF 2.1.0 required-key set by golden-file tests.
std::string ToSarif(const Report& report, const EmitOptions& options = {});

/// \brief Appends `s` to `*out` escaped for the inside of a JSON string
/// literal (no surrounding quotes): `"` and `\` get a backslash, control
/// bytes below 0x20 get their short escape or `\u00XX`, and every other
/// byte, UTF-8 included, is copied as is. Runs of clean bytes are copied
/// in bulk. Escaping is per byte, so escaping two strings back to back
/// equals escaping their concatenation.
void AppendJsonString(std::string* out, std::string_view s);

/// \brief JsonEscape(s) is AppendJsonString into a fresh string.
std::string JsonEscape(std::string_view s);

/// \brief The append-only JSON writer behind the library's JSON emitters:
/// ToJson, ToSarif and FindingToJsonLine here, the server's response lines
/// and the scan report. Single-writer contract: an emitter appends into one
/// caller-owned `std::string`, reserved once up front, so no field, indent
/// or number becomes a string of its own. `<<` appends bytes that are
/// already valid JSON (punctuation, keys, literals) or a decimal integer
/// (`std::to_chars`); `String` and `Escaped` append text that needs
/// escaping, through AppendJsonString.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& operator<<(std::string_view raw) {
    out_->append(raw);
    return *this;
  }
  JsonWriter& operator<<(char raw) {
    out_->push_back(raw);
    return *this;
  }
  JsonWriter& operator<<(uint64_t value);
  JsonWriter& operator<<(int value);
  /// A finite double with 6 significant digits: printf's %.6g, the
  /// precision of default ostream formatting (scores in ToText).
  JsonWriter& operator<<(double value);

  /// `s` as a quoted JSON string.
  JsonWriter& String(std::string_view s) {
    out_->push_back('"');
    AppendJsonString(out_, s);
    out_->push_back('"');
    return *this;
  }
  /// `s` escaped, without quotes: for one string literal built from pieces.
  JsonWriter& Escaped(std::string_view s) {
    AppendJsonString(out_, s);
    return *this;
  }

 private:
  std::string* out_;
};

/// \brief One finding as a single-line JSON object — the NDJSON unit of the
/// sqlcheck-server wire protocol. Carries exactly the fields of a ToJson
/// result entry (rank, rule, id, category, source, score, table, column,
/// query, message, fix{...}); field parity is structural, not cosmetic: both
/// renderings run through one shared emitter, so the server's streamed
/// findings cannot drift from the batch document format.
std::string FindingToJsonLine(const Finding& finding, size_t rank,
                              bool include_fixes = false);

/// \brief FindingToJsonLine, appended to `*out` instead of returned.
void AppendFindingJsonLine(std::string* out, const Finding& finding, size_t rank,
                           bool include_fixes = false);

}  // namespace sqlcheck
