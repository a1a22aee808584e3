#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sql/token.h"

namespace sqlcheck::sql {

class TokenBuffer;

/// \brief Controls how much of a statement the canonical form erases.
///
/// Two presets, one per value of `collapse_values`:
///  - Template() (the default): keyword case, whitespace, and comments are
///    dropped AND every literal/bind-parameter collapses to a `?` placeholder.
///    Statements that differ only in constants share a fingerprint — the
///    "statement template" grouping used for workload statistics.
///  - Exact(): only keyword case, whitespace, and comments are dropped;
///    literal and parameter text is preserved. This is the key the
///    memoized-analysis cache uses, because literal content is
///    analysis-relevant (a leading `%` in a LIKE pattern, a plaintext
///    password literal, the display form of a predicate constant) and two
///    statements must agree on it before their analysis results can be
///    shared byte-for-byte.
struct FingerprintOptions {
  bool collapse_values = true;  ///< Literals and bind parameters -> `?` placeholder.

  static FingerprintOptions Template() { return FingerprintOptions{}; }
  static FingerprintOptions Exact() { return FingerprintOptions{false}; }
};

/// \brief Renders a token stream into its canonical spelling: tokens joined
/// by single spaces, keywords lowercased, identifiers/literals re-quoted with
/// doubled-quote escaping (so the rendering is injective — two different
/// token streams never produce the same canonical string), comments and the
/// end sentinel skipped, literals/params replaced by `?` per `options`. The
/// only canonicalizer: every other entry point below lexes and calls this.
std::string CanonicalizeTokens(const std::vector<Token>& tokens,
                               const FingerprintOptions& options = {});

/// \brief `CanonicalizeTokens(Lex(sql), options)`. Pass a reused `buffer`
/// (as with ParseStatement) to keep the lex allocation-free across calls;
/// it is cleared and refilled, invalidating its earlier tokens. Without
/// one, a local buffer is used.
std::string CanonicalizeSql(std::string_view sql, const FingerprintOptions& options = {},
                            TokenBuffer* buffer = nullptr);

/// \brief 64-bit FNV-1a hash of a canonical form — the stable statement
/// fingerprint. Equal canonical strings always hash equal; the dedup cache
/// additionally compares canonical strings so a hash collision can never
/// merge two distinct statements.
uint64_t FingerprintCanonical(std::string_view canonical);

/// \brief Fingerprint of a SQL statement under `options`.
uint64_t FingerprintSql(std::string_view sql, const FingerprintOptions& options = {});

/// \brief Both fingerprints the corpus scanner keys on, from one lex.
struct ScanFingerprints {
  uint64_t exact = 0;     ///< FingerprintSql(sql, Exact()) — the store key.
  uint64_t tmpl = 0;      ///< FingerprintSql(sql, Template()) — statistics.
};

/// \brief Lexes `sql` once (into `buffer` when given, as CanonicalizeSql)
/// and renders both canonical forms from the same tokens: the exact form is
/// returned via `exact_canonical`, and each form's fingerprint lands in the
/// result.
ScanFingerprints FingerprintForScan(std::string_view sql, std::string* exact_canonical,
                                    TokenBuffer* buffer = nullptr);

}  // namespace sqlcheck::sql
