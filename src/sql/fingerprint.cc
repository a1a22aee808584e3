#include "sql/fingerprint.h"

#include "sql/lexer.h"

namespace sqlcheck::sql {

namespace {

/// Appends `text` wrapped in `quote` with embedded quotes doubled, so quoted
/// payloads can never collide with the token separator or with each other
/// (e.g. the one string `a' 'b` renders as 'a'' ''b', distinct from the two
/// strings 'a' 'b').
void AppendQuoted(std::string* out, char quote, std::string_view text) {
  out->push_back(quote);
  for (size_t q; (q = text.find(quote)) != std::string_view::npos;
       text.remove_prefix(q + 1)) {
    out->append(text.substr(0, q + 1));
    out->push_back(quote);
  }
  out->append(text);
  out->push_back(quote);
}

/// Keywords are ASCII by construction (the keyword table holds no other
/// bytes), so lowering them in place needs no locale and no temporary.
void AppendLowerAscii(std::string* out, std::string_view word) {
  const size_t at = out->size();
  out->append(word);
  for (size_t i = at; i < out->size(); ++i) {
    char& c = (*out)[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

}  // namespace

std::string CanonicalizeTokens(const std::vector<Token>& tokens,
                               const FingerprintOptions& options) {
  std::string out;
  // A token renders at most its lexeme plus a separator (quote doubling
  // aside), so the source span up to the last token usually fits.
  if (tokens.size() > 1) {
    const Token& last = tokens[tokens.size() - 2];  // the one before kEnd
    out.reserve(last.offset + last.length + tokens.size());
  }
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kComment || t.kind == TokenKind::kEnd) continue;
    if (!out.empty()) out.push_back(' ');
    switch (t.kind) {
      case TokenKind::kKeyword:
        AppendLowerAscii(&out, t.text);
        break;
      case TokenKind::kString:
        if (options.collapse_values) {
          out.push_back('?');
        } else {
          AppendQuoted(&out, '\'', t.text);
        }
        break;
      case TokenKind::kNumber:
      case TokenKind::kParam:
        if (options.collapse_values) {
          out.push_back('?');
        } else {
          out.append(t.text);
        }
        break;
      case TokenKind::kQuotedIdentifier:
        // Re-quoted so `"select"` (an identifier) can't collide with the
        // keyword, and `"a b"` can't collide with two bare identifiers.
        AppendQuoted(&out, '"', t.text);
        break;
      default:
        // Identifiers keep their case: the analyzer reports table/column
        // names as written, so case differences are semantically visible.
        out.append(t.text);
        break;
    }
  }
  return out;
}

std::string CanonicalizeSql(std::string_view sql, const FingerprintOptions& options,
                            TokenBuffer* buffer) {
  TokenBuffer local;
  return CanonicalizeTokens(Lex(sql, buffer != nullptr ? *buffer : local), options);
}

uint64_t FingerprintCanonical(std::string_view canonical) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

uint64_t FingerprintSql(std::string_view sql, const FingerprintOptions& options) {
  return FingerprintCanonical(CanonicalizeSql(sql, options));
}

ScanFingerprints FingerprintForScan(std::string_view sql, std::string* exact_canonical,
                                    TokenBuffer* buffer) {
  TokenBuffer local;
  const std::vector<Token>& tokens = Lex(sql, buffer != nullptr ? *buffer : local);
  *exact_canonical = CanonicalizeTokens(tokens, FingerprintOptions::Exact());
  ScanFingerprints fp;
  fp.exact = FingerprintCanonical(*exact_canonical);
  fp.tmpl =
      FingerprintCanonical(CanonicalizeTokens(tokens, FingerprintOptions::Template()));
  return fp;
}

}  // namespace sqlcheck::sql
