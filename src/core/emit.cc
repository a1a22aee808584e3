#include "core/emit.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
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

/// ApSlug, computed once per anti-pattern instead of once per finding.
std::string_view Slug(AntiPattern type) {
  static const std::array<std::string, kAntiPatternCount> kSlugs = [] {
    std::array<std::string, kAntiPatternCount> slugs;
    for (int t = 0; t < kAntiPatternCount; ++t) {
      slugs[static_cast<size_t>(t)] = ApSlug(static_cast<AntiPattern>(t));
    }
    return slugs;
  }();
  return kSlugs[static_cast<size_t>(type)];
}

size_t EmitLimit(const Report& report, const EmitOptions& options) {
  if (options.max_findings == 0) return report.findings.size();
  return std::min(options.max_findings, report.findings.size());
}

/// A generous estimate of the emitted bytes, so a whole document is written
/// into one allocation: the variable-length fields of each emitted finding
/// plus a fixed allowance for its keys, indentation and numbers. Reserved
/// but unwritten capacity is never touched, so overshooting costs no
/// resident memory.
size_t EstimateBytes(const Report& report, size_t limit, const EmitOptions& options) {
  size_t bytes = 8192;
  for (size_t i = 0; i < limit; ++i) {
    const Finding& f = report.findings[i];
    const Detection& d = f.ranked.detection;
    bytes += 1024 + 2 * options.artifact_uri.size() + d.table.size() + d.column.size() +
             d.query.size() + d.message.size() + f.fix.explanation.size();
    for (const std::string& s : f.fix.statements) bytes += s.size() + 4;
    if (options.include_fixes) {
      bytes += f.fix.verify_note.size() + f.fix.original_sql.size();
      for (const std::string& q : f.fix.impacted_queries) bytes += q.size() + 4;
    }
  }
  return bytes + bytes / 16;  // escapes
}

/// The one finding serializer behind both renderings: pretty (ToJson's
/// result entries at a 4-space base indent, byte-stable and golden-tested)
/// and compact (single line, the server's NDJSON finding unit). Field set
/// and ordering are identical by construction.
void AppendFindingObject(JsonWriter& out, const Finding& f, size_t rank,
                         bool include_fixes, bool pretty) {
  const Detection& d = f.ranked.detection;
  // Separators before a field of the finding (depth 2) and of its fix
  // (depth 3): the first field of an object, then every later one.
  const std::string_view first2 = pretty ? "\n      " : "";
  const std::string_view next2 = pretty ? ",\n      " : ", ";
  const std::string_view first3 = pretty ? "\n        " : "";
  const std::string_view next3 = pretty ? ",\n        " : ", ";
  auto key = [&out](std::string_view sep, std::string_view name) -> JsonWriter& {
    return out << sep << '"' << name << "\": ";
  };
  out << (pretty ? "    {" : "{");
  key(first2, "rank") << static_cast<uint64_t>(rank);
  key(next2, "rule").String(ApName(d.type));
  key(next2, "id").String(Slug(d.type));
  key(next2, "category").String(CategoryName(InfoFor(d.type).category));
  key(next2, "source").String(SourceName(d.source));
  key(next2, "score") << f.ranked.score;
  if (include_fixes) {
    key(next2, "severity").String(SeverityName(ScoreSeverity(f.ranked.score)));
  }
  key(next2, "table").String(d.table);
  key(next2, "column").String(d.column);
  key(next2, "query").String(d.query);
  key(next2, "message").String(d.message);
  key(next2, "fix") << '{';
  key(first3, "kind") << (f.fix.kind == FixKind::kRewrite ? "\"rewrite\""
                                                           : "\"textual\"");
  key(next3, "explanation").String(f.fix.explanation);
  key(next3, "statements") << '[';
  for (size_t s = 0; s < f.fix.statements.size(); ++s) {
    if (s > 0) out << ", ";
    out.String(f.fix.statements[s]);
  }
  out << ']';
  key(next3, "impacted_queries") << static_cast<uint64_t>(f.fix.impacted_queries.size());
  if (include_fixes) {
    // Extended diagnosis surface (--fixes): verification status, anchor,
    // and the impacted-query list itself.
    key(next3, "verified") << (f.fix.verified ? "true" : "false");
    key(next3, "verify_tier").String(VerifyTierName(f.fix.verify_tier));
    key(next3, "replaces_original") << (f.fix.replaces_original ? "true" : "false");
    key(next3, "verify_note").String(f.fix.verify_note);
    key(next3, "anchor").String(f.fix.original_sql);
    key(next3, "impacted") << '[';
    for (size_t q = 0; q < f.fix.impacted_queries.size(); ++q) {
      if (q > 0) out << ", ";
      out.String(f.fix.impacted_queries[q]);
    }
    out << ']';
  }
  out << (pretty ? "\n      }\n    }" : "}}");
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
void AppendSarifFixes(JsonWriter& out, const Fix& fix, const EmitOptions& options,
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
  out << ",\n          \"fixes\": [\n            {\n"
         "              \"description\": { \"text\": ";
  out.String(fix.explanation);
  out << " },\n              \"properties\": { \"verify_tier\": ";
  out.String(VerifyTierName(fix.verify_tier));
  out << " },\n              \"artifactChanges\": [\n                {\n"
         "                  \"artifactLocation\": { \"uri\": ";
  out.String(options.artifact_uri);
  out << " },\n                  \"replacements\": [\n                    {\n"
         "                      \"deletedRegion\": { \"charOffset\": "
      << static_cast<uint64_t>(offset)
      << ", \"charLength\": " << static_cast<uint64_t>(length)
      << " },\n                      \"insertedContent\": { \"text\": \"";
  // The statements joined by newlines, escaped piece by piece.
  for (size_t s = 0; s < fix.statements.size(); ++s) {
    if (s > 0) out << "\\n";
    out.Escaped(fix.statements[s]);
  }
  out << "\" }\n                    }\n                  ]\n                }\n"
         "              ]\n            }\n          ]";
}

// Escape action per byte: 0 copies it as is, 'u' writes \u00XX, any other
// value is the letter of its two-byte escape.
constexpr std::array<char, 256> kJsonEscape = [] {
  std::array<char, 256> table{};
  for (int c = 0; c < 0x20; ++c) table[static_cast<size_t>(c)] = 'u';
  table['"'] = '"';
  table['\\'] = '\\';
  table['\b'] = 'b';
  table['\f'] = 'f';
  table['\n'] = 'n';
  table['\r'] = 'r';
  table['\t'] = 't';
  return table;
}();

}  // namespace

void AppendJsonString(std::string* out, std::string_view s) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p != end) {
    const char* run = p;
    while (p != end && kJsonEscape[static_cast<unsigned char>(*p)] == 0) ++p;
    out->append(run, static_cast<size_t>(p - run));
    if (p == end) break;
    const unsigned char c = static_cast<unsigned char>(*p++);
    const char action = kJsonEscape[c];
    if (action != 'u') {
      const char escape[2] = {'\\', action};
      out->append(escape, 2);
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
      out->append(escape, 6);
    }
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonString(&out, s);
  return out;
}

JsonWriter& JsonWriter::operator<<(uint64_t value) {
  char buf[20];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out_->append(buf, static_cast<size_t>(r.ptr - buf));
  return *this;
}

JsonWriter& JsonWriter::operator<<(int value) {
  char buf[12];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out_->append(buf, static_cast<size_t>(r.ptr - buf));
  return *this;
}

JsonWriter& JsonWriter::operator<<(double value) {
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 6);
  out_->append(buf, static_cast<size_t>(r.ptr - buf));
  return *this;
}

void AppendFindingJsonLine(std::string* out, const Finding& finding, size_t rank,
                           bool include_fixes) {
  JsonWriter writer(out);
  AppendFindingObject(writer, finding, rank, include_fixes, /*pretty=*/false);
}

std::string FindingToJsonLine(const Finding& finding, size_t rank, bool include_fixes) {
  std::string line;
  AppendFindingJsonLine(&line, finding, rank, include_fixes);
  return line;
}

std::string ToJson(const Report& report, const EmitOptions& options) {
  const size_t limit = EmitLimit(report, options);
  std::string doc;
  doc.reserve(EstimateBytes(report, limit, options));
  JsonWriter out(&doc);
  out << "{\n  \"tool\": \"sqlcheck\",\n  \"findings\": "
      << static_cast<uint64_t>(report.findings.size()) << ",\n  \"distinct_types\": "
      << report.DistinctTypes() << ",\n  \"results\": [";
  for (size_t i = 0; i < limit; ++i) {
    out << (i == 0 ? "\n" : ",\n");
    AppendFindingObject(out, report.findings[i], i + 1, options.include_fixes,
                        /*pretty=*/true);
  }
  out << (limit == 0 ? "]" : "\n  ]");
  if (limit < report.findings.size()) {
    out << ",\n  \"suppressed\": "
        << static_cast<uint64_t>(report.findings.size() - limit);
  }
  out << "\n}\n";
  return doc;
}

std::string ToSarif(const Report& report, const EmitOptions& options) {
  const size_t limit = EmitLimit(report, options);
  std::string doc;
  doc.reserve(EstimateBytes(report, limit, options));
  JsonWriter out(&doc);
  out << "{\n"
         "  \"$schema\": "
         "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
         "Schemata/sarif-schema-2.1.0.json\",\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": \"sqlcheck\",\n"
         "          \"informationUri\": "
         "\"https://doi.org/10.1145/3318464.3389754\",\n"
         "          \"rules\": [";
  // The full catalog, in enum order, so result ruleIndex values are stable.
  for (int t = 0; t < kAntiPatternCount; ++t) {
    AntiPattern type = InfoFor(static_cast<AntiPattern>(t)).type;
    out << (t == 0 ? "\n" : ",\n") << "            {\n              \"id\": ";
    out.String(Slug(type));
    out << ",\n              \"name\": ";
    out.String(ApName(type));
    out << ",\n              \"shortDescription\": { \"text\": ";
    out.String(ApName(type));
    out << " },\n              \"properties\": { \"category\": ";
    out.String(CategoryName(InfoFor(type).category));
    out << " }\n            }";
  }
  out << "\n          ]\n        }\n      },\n      \"results\": [";
  std::unordered_map<std::string, size_t> fix_cursors;
  for (size_t i = 0; i < limit; ++i) {
    const Finding& f = report.findings[i];
    const Detection& d = f.ranked.detection;
    out << (i == 0 ? "\n" : ",\n") << "        {\n          \"ruleId\": ";
    out.String(Slug(d.type));
    out << ",\n          \"ruleIndex\": " << static_cast<int>(d.type)
        << ",\n          \"level\": \"warning\",\n          \"message\": { \"text\": \"";
    out.Escaped(d.message);
    if (!d.query.empty()) (out << " | query: ").Escaped(d.query);
    out << "\" }";
    if (!d.table.empty() || !options.artifact_uri.empty()) {
      out << ",\n          \"locations\": [\n            {";
      bool first = true;
      if (!options.artifact_uri.empty()) {
        out << "\n              \"physicalLocation\": { \"artifactLocation\": "
               "{ \"uri\": ";
        out.String(options.artifact_uri);
        out << " } }";
        first = false;
      }
      if (!d.table.empty()) {
        out << (first ? "\n" : ",\n")
            << "              \"logicalLocations\": [ { \"name\": \"";
        out.Escaped(d.table);
        if (!d.column.empty()) (out << '.').Escaped(d.column);
        out << "\", \"kind\": \"member\" } ]";
      }
      out << "\n            }\n          ]";
    }
    AppendSarifFixes(out, f.fix, options, &fix_cursors);
    out << ",\n          \"properties\": { \"score\": "
        << f.ranked.score << ", \"source\": ";
    out.String(SourceName(d.source));
    out << " }\n        }";
  }
  out << (limit == 0 ? "]\n" : "\n      ]\n") << "    }\n  ]\n}\n";
  return doc;
}

std::string Report::ToJson() const { return sqlcheck::ToJson(*this); }

std::string Report::ToSarif() const { return sqlcheck::ToSarif(*this); }

}  // namespace sqlcheck
