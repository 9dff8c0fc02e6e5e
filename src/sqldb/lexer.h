// SQL lexer.
//
// Postgres-compatible where it matters to the exploits: single-quoted
// strings with '' escaping (the DVWA injection depends on exact quote
// semantics), $n parameters, dollar-quoted bodies ($$...$$), line comments
// (--), and multi-character operator symbols so user-defined operators like
// `>>>` and `<<<` lex as single tokens.
//
// Tokens own no strings. `lex_sql` copies the input once into a block
// owned by the returned `TokenList`, normalizes that copy in place
// (unquoted identifiers lowercased, '' escapes resolved) and hands out
// `string_view`s into it; the same block holds the token array. Lifetime
// rule: a token's `text` is valid exactly as long as the `TokenList` that
// produced it. Moving the list keeps every view valid (the block never
// moves); destroying it invalidates them all, so copy a view into a
// `std::string` before keeping it past the list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "common/result.h"

namespace rddr::sqldb {

enum class TokKind : uint8_t {
  kEnd,
  kIdent,     // unquoted identifier (lowercased) or "quoted" (verbatim)
  kNumber,    // integer or decimal literal text
  kString,    // string literal (unescaped content)
  kOperator,  // symbol built from +-*/<>=~!@#%^&|?
  kParam,     // $n (text holds the digits)
  kLParen, kRParen, kComma, kSemicolon, kDot,
};

struct Token {
  std::string_view text;  // normalized content; empty for punctuation
  uint32_t offset = 0;    // byte offset in the input (error messages)
  TokKind kind = TokKind::kEnd;
};

/// The tokens of one SQL text plus the normalized copy of that text their
/// views point into. A list from `lex_sql` always ends with a kEnd token.
class TokenList {
 public:
  size_t size() const { return size_; }
  const Token& operator[](size_t i) const { return toks_[i]; }
  const Token& back() const { return toks_[size_ - 1]; }

 private:
  friend Result<TokenList> lex_sql(std::string_view sql);

  // The token array (room for an upper bound on the count), then the
  // text; heap-stable, so views survive a move.
  std::unique_ptr<char[]> block_;
  Token* toks_ = nullptr;
  size_t size_ = 0;
};

/// Tokenizes SQL text with one heap allocation, whatever the token count.
/// Fails on unterminated strings/comments, stray characters and texts of
/// 4 GiB or more.
Result<TokenList> lex_sql(std::string_view sql);

}  // namespace rddr::sqldb
