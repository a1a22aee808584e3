#include "core/emit.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace sqlcheck {

namespace {

const char* SourceName(DetectionSource source) {
  switch (source) {
    case DetectionSource::kIntraQuery: return "intra-query";
    case DetectionSource::kInterQuery: return "inter-query";
    case DetectionSource::kDataAnalysis: return "data-analysis";
  }
  return "unknown";
}

/// %.6g matches the precision ToText's ostream formatting uses, and always
/// yields a valid JSON number for the bounded [0, 1] scores.
std::string FormatScore(double score) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", score);
  return buffer;
}

size_t EmitLimit(const Report& report, const EmitOptions& options) {
  if (options.max_findings == 0) return report.findings.size();
  return std::min(options.max_findings, report.findings.size());
}

void AppendQuoted(std::ostringstream& out, std::string_view s) {
  out << '"' << JsonEscape(s) << '"';
}

/// The one finding serializer behind both renderings: pretty (`pretty` with
/// `pad` as the object's base indent — ToJson's result entries, byte-stable
/// and golden-tested) and compact (single line — the server's NDJSON finding
/// unit). Field set and ordering are identical by construction.
void AppendFindingObject(std::ostringstream& out, const Finding& f, size_t rank,
                         bool include_fixes, bool pretty, std::string_view pad) {
  const Detection& d = f.ranked.detection;
  const std::string nl = pretty ? "\n" : "";
  const std::string ind2 = pretty ? std::string(pad) + "  " : "";
  const std::string ind3 = pretty ? std::string(pad) + "    " : "";
  const char* comma = pretty ? "," : ", ";
  auto key = [&](const std::string& ind, const char* name, bool first) {
    out << (first ? "" : comma) << nl << ind << '"' << name << "\": ";
  };
  out << pad << "{";
  key(ind2, "rank", true);
  out << rank;
  key(ind2, "rule", false);
  AppendQuoted(out, ApName(d.type));
  key(ind2, "id", false);
  AppendQuoted(out, ApSlug(d.type));
  key(ind2, "category", false);
  AppendQuoted(out, CategoryName(InfoFor(d.type).category));
  key(ind2, "source", false);
  AppendQuoted(out, SourceName(d.source));
  key(ind2, "score", false);
  out << FormatScore(f.ranked.score);
  if (include_fixes) {
    key(ind2, "severity", false);
    AppendQuoted(out, SeverityName(ScoreSeverity(f.ranked.score)));
  }
  key(ind2, "table", false);
  AppendQuoted(out, d.table);
  key(ind2, "column", false);
  AppendQuoted(out, d.column);
  key(ind2, "query", false);
  AppendQuoted(out, d.query);
  key(ind2, "message", false);
  AppendQuoted(out, d.message);
  key(ind2, "fix", false);
  out << "{";
  key(ind3, "kind", true);
  out << '"' << (f.fix.kind == FixKind::kRewrite ? "rewrite" : "textual") << '"';
  key(ind3, "explanation", false);
  AppendQuoted(out, f.fix.explanation);
  key(ind3, "statements", false);
  out << "[";
  for (size_t s = 0; s < f.fix.statements.size(); ++s) {
    out << (s == 0 ? "" : ", ");
    AppendQuoted(out, f.fix.statements[s]);
  }
  out << "]";
  key(ind3, "impacted_queries", false);
  out << f.fix.impacted_queries.size();
  if (include_fixes) {
    // Extended diagnosis surface (--fixes): verification status, anchor,
    // and the impacted-query list itself.
    key(ind3, "verified", false);
    out << (f.fix.verified ? "true" : "false");
    key(ind3, "verify_tier", false);
    AppendQuoted(out, VerifyTierName(f.fix.verify_tier));
    key(ind3, "replaces_original", false);
    out << (f.fix.replaces_original ? "true" : "false");
    key(ind3, "verify_note", false);
    AppendQuoted(out, f.fix.verify_note);
    key(ind3, "anchor", false);
    AppendQuoted(out, f.fix.original_sql);
    key(ind3, "impacted", false);
    out << "[";
    for (size_t q = 0; q < f.fix.impacted_queries.size(); ++q) {
      out << (q == 0 ? "" : ", ");
      AppendQuoted(out, f.fix.impacted_queries[q]);
    }
    out << "]";
  }
  out << nl << ind2 << "}";
  out << nl << pad << "}";
}

/// Emits the SARIF 2.1.0 `fixes[]` member for one verified rewrite: one fix
/// with one artifactChange whose replacement region is located inside the
/// workload text. Statement-replacing rewrites delete the offending
/// statement's span (found by its exact bytes — statements are stored as
/// trimmed substrings of the source, so the match is the original span —
/// extended over the trailing `;` so the `;`-terminated rewrite drops in
/// without doubling the terminator); additive DDL inserts at end-of-artifact
/// (charLength 0). `cursors` tracks the next search position per
/// (rule, anchor) so repeated offending statements anchor to successive
/// occurrences instead of all deleting the first one — same-type duplicates
/// rank adjacently in stream order, so sequential assignment matches. Emits
/// nothing when the anchor cannot be located or no content was supplied.
void AppendSarifFixes(std::ostringstream& out, const Fix& fix,
                      const EmitOptions& options,
                      std::unordered_map<std::string, size_t>* cursors) {
  if (!options.include_fixes || fix.kind != FixKind::kRewrite || !fix.verified ||
      fix.statements.empty() || options.artifact_uri.empty() ||
      options.artifact_content.empty()) {
    return;
  }
  const std::string& content = options.artifact_content;
  size_t offset = 0;
  size_t length = 0;
  if (fix.replaces_original) {
    if (fix.original_sql.empty()) return;
    std::string key = std::to_string(static_cast<int>(fix.type));
    key += '\x1f';
    key += fix.original_sql;
    size_t& from = (*cursors)[key];
    offset = content.find(fix.original_sql, from);
    if (offset == std::string::npos) return;
    from = offset + 1;  // the next duplicate anchors to the next occurrence
    length = fix.original_sql.size();
    // Fold the statement's own terminator into the deleted region.
    size_t end = offset + length;
    while (end < content.size() &&
           std::isspace(static_cast<unsigned char>(content[end]))) {
      ++end;
    }
    if (end < content.size() && content[end] == ';') length = end - offset + 1;
  } else {
    offset = content.size();  // insertion point: end of file
  }
  std::string inserted;
  for (size_t s = 0; s < fix.statements.size(); ++s) {
    if (s > 0) inserted += "\n";
    inserted += fix.statements[s];
  }
  out << ",\n          \"fixes\": [\n            {\n";
  out << "              \"description\": { \"text\": ";
  AppendQuoted(out, fix.explanation);
  out << " },\n              \"properties\": { \"verify_tier\": ";
  AppendQuoted(out, VerifyTierName(fix.verify_tier));
  out << " },\n              \"artifactChanges\": [\n                {\n";
  out << "                  \"artifactLocation\": { \"uri\": ";
  AppendQuoted(out, options.artifact_uri);
  out << " },\n                  \"replacements\": [\n                    {\n";
  out << "                      \"deletedRegion\": { \"charOffset\": " << offset
      << ", \"charLength\": " << length << " },\n";
  out << "                      \"insertedContent\": { \"text\": ";
  AppendQuoted(out, inserted);
  out << " }\n                    }\n                  ]\n                }\n"
         "              ]\n            }\n          ]";
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through untouched
        }
    }
  }
  return out;
}

std::string FindingToJsonLine(const Finding& finding, size_t rank, bool include_fixes) {
  std::ostringstream out;
  AppendFindingObject(out, finding, rank, include_fixes, /*pretty=*/false, "");
  return out.str();
}

std::string ToJson(const Report& report, const EmitOptions& options) {
  const size_t limit = EmitLimit(report, options);
  std::ostringstream out;
  out << "{\n";
  out << "  \"tool\": \"sqlcheck\",\n";
  out << "  \"findings\": " << report.findings.size() << ",\n";
  out << "  \"distinct_types\": " << report.DistinctTypes() << ",\n";
  out << "  \"results\": [";
  for (size_t i = 0; i < limit; ++i) {
    out << (i == 0 ? "\n" : ",\n");
    AppendFindingObject(out, report.findings[i], i + 1, options.include_fixes,
                        /*pretty=*/true, "    ");
  }
  out << (limit == 0 ? "]" : "\n  ]");
  if (limit < report.findings.size()) {
    out << ",\n  \"suppressed\": " << (report.findings.size() - limit);
  }
  out << "\n}\n";
  return out.str();
}

std::string ToSarif(const Report& report, const EmitOptions& options) {
  const size_t limit = EmitLimit(report, options);
  std::ostringstream out;
  out << "{\n";
  out << "  \"$schema\": "
         "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
         "Schemata/sarif-schema-2.1.0.json\",\n";
  out << "  \"version\": \"2.1.0\",\n";
  out << "  \"runs\": [\n";
  out << "    {\n";
  out << "      \"tool\": {\n";
  out << "        \"driver\": {\n";
  out << "          \"name\": \"sqlcheck\",\n";
  out << "          \"informationUri\": "
         "\"https://doi.org/10.1145/3318464.3389754\",\n";
  out << "          \"rules\": [";
  // The full catalog, in enum order, so result ruleIndex values are stable.
  for (int t = 0; t < kAntiPatternCount; ++t) {
    AntiPattern type = InfoFor(static_cast<AntiPattern>(t)).type;
    out << (t == 0 ? "\n" : ",\n");
    out << "            {\n";
    out << "              \"id\": ";
    AppendQuoted(out, ApSlug(type));
    out << ",\n              \"name\": ";
    AppendQuoted(out, ApName(type));
    out << ",\n              \"shortDescription\": { \"text\": ";
    AppendQuoted(out, ApName(type));
    out << " },\n              \"properties\": { \"category\": ";
    AppendQuoted(out, CategoryName(InfoFor(type).category));
    out << " }\n            }";
  }
  out << "\n          ]\n";
  out << "        }\n";
  out << "      },\n";
  out << "      \"results\": [";
  std::unordered_map<std::string, size_t> fix_cursors;
  for (size_t i = 0; i < limit; ++i) {
    const Finding& f = report.findings[i];
    const Detection& d = f.ranked.detection;
    out << (i == 0 ? "\n" : ",\n");
    out << "        {\n";
    out << "          \"ruleId\": ";
    AppendQuoted(out, ApSlug(d.type));
    out << ",\n          \"ruleIndex\": " << static_cast<int>(d.type);
    out << ",\n          \"level\": \"warning\"";
    out << ",\n          \"message\": { \"text\": ";
    std::string text = d.message;
    if (!d.query.empty()) text += " | query: " + d.query;
    AppendQuoted(out, text);
    out << " }";
    if (!d.table.empty() || !options.artifact_uri.empty()) {
      out << ",\n          \"locations\": [\n            {";
      bool first = true;
      if (!options.artifact_uri.empty()) {
        out << "\n              \"physicalLocation\": { \"artifactLocation\": "
               "{ \"uri\": ";
        AppendQuoted(out, options.artifact_uri);
        out << " } }";
        first = false;
      }
      if (!d.table.empty()) {
        out << (first ? "\n" : ",\n");
        out << "              \"logicalLocations\": [ { \"name\": ";
        AppendQuoted(out,
                     d.column.empty() ? d.table : d.table + "." + d.column);
        out << ", \"kind\": \"member\" } ]";
      }
      out << "\n            }\n          ]";
    }
    AppendSarifFixes(out, f.fix, options, &fix_cursors);
    out << ",\n          \"properties\": { \"score\": " << FormatScore(f.ranked.score)
        << ", \"source\": ";
    AppendQuoted(out, SourceName(d.source));
    out << " }\n        }";
  }
  out << (limit == 0 ? "]\n" : "\n      ]\n");
  out << "    }\n";
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::string Report::ToJson() const { return sqlcheck::ToJson(*this); }

std::string Report::ToSarif() const { return sqlcheck::ToSarif(*this); }

}  // namespace sqlcheck
