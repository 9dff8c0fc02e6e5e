#include "sqldb/lexer.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>

#include "common/strutil.h"

namespace rddr::sqldb {

namespace {

// Byte classes, matching <cctype> in the "C" locale the repo runs under.
enum : uint8_t { kSpace = 1, kDigit = 2, kAlpha = 4, kOp = 8 };

constexpr std::array<uint8_t, 256> kClass = [] {
  std::array<uint8_t, 256> t{};
  for (char c : std::string_view(" \t\n\v\f\r"))
    t[static_cast<uint8_t>(c)] = kSpace;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = t[c - 'a' + 'A'] = kAlpha;
  t['_'] = kAlpha;
  for (char c : std::string_view("+-*/<>=~!@#%^&|?"))
    t[static_cast<uint8_t>(c)] = kOp;
  return t;
}();

bool is(char c, uint8_t cls) { return kClass[static_cast<uint8_t>(c)] & cls; }

bool is_digit(char c) { return is(c, kDigit); }

/// Whether a token can start at a byte of class `cls` right after a byte of
/// class `prev`. It starts only at a non-space byte, and never at a letter,
/// digit or '_' after a letter or '_', nor at a digit after a digit: the
/// identifier, number or $n before it would have taken that byte (a number
/// never ends in a letter, and quoted forms end in their quote).
constexpr auto kMayStart = [] {
  std::array<std::array<uint8_t, 16>, 16> t{};
  for (int prev = 0; prev < 16; ++prev)
    for (int cls = 0; cls < 16; ++cls)
      t[prev][cls] = !(cls & kSpace) &&
                     !((prev & kAlpha) && (cls & (kAlpha | kDigit))) &&
                     !((prev & kDigit) && (cls & kDigit));
  return t;
}();

/// An upper bound on the tokens `lex_sql` emits for `sql`, kEnd included.
/// Bytes inside literals and comments count too, which only loosens it.
size_t token_bound(std::string_view sql) {
  size_t bound = 1;
  uint8_t prev = kSpace;
  for (char c : sql) {
    uint8_t cls = kClass[static_cast<uint8_t>(c)];
    bound += kMayStart[prev][cls];
    prev = cls;
  }
  return bound;
}

/// ASCII lowercase, branch-free: only 'A'..'Z' change.
char lower(char c) {
  return static_cast<char>(
      c + (static_cast<unsigned char>(c - 'A') < 26 ? 'a' - 'A' : 0));
}

}  // namespace

Result<TokenList> lex_sql(std::string_view sql) {
  const size_t n = sql.size();
  if (n >= UINT32_MAX) return Err("query text too long");
  // Scanning reads `sql`; normalization writes the same offsets of `buf`
  // (or, for '' escapes, lower ones), so it never disturbs unread input.
  // The token array comes first in the block, so it is aligned; sizing
  // it for the bound once means it never grows.
  const size_t bound = token_bound(sql);
  TokenList list;
  list.block_ =
      std::make_unique_for_overwrite<char[]>(bound * sizeof(Token) + n);
  list.toks_ = reinterpret_cast<Token*>(list.block_.get());
  char* buf = list.block_.get() + bound * sizeof(Token);
  if (n) std::memcpy(buf, sql.data(), n);
  auto emplace = [&list]() -> Token& {
    return *new (&list.toks_[list.size_++]) Token{};
  };
  auto view = [buf](size_t start, size_t end) {
    return std::string_view(buf + start, end - start);
  };
  size_t i = 0;
  while (i < n) {
    char c = sql[i];
    if (is(c, kSpace)) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && sql[i + 1] == '*') {
      size_t end = sql.find("*/", i + 2);
      if (end == std::string_view::npos)
        return Err("unterminated block comment");
      i = end + 2;
      continue;
    }
    Token& tok = emplace();
    tok.offset = static_cast<uint32_t>(i);
    if (is(c, kAlpha)) {
      size_t start = i;
      for (; i < n && is(sql[i], kAlpha | kDigit); ++i)
        buf[i] = lower(sql[i]);
      tok.kind = TokKind::kIdent;
      tok.text = view(start, i);
      continue;
    }
    if (c == '"') {
      size_t end = sql.find('"', i + 1);
      if (end == std::string_view::npos)
        return Err("unterminated quoted identifier");
      tok.kind = TokKind::kIdent;
      tok.text = view(i + 1, end);
      i = end + 1;
      continue;
    }
    if (is_digit(c) || (c == '.' && i + 1 < n && is_digit(sql[i + 1]))) {
      size_t start = i;
      bool seen_dot = false, seen_exp = false;
      while (i < n) {
        char d = sql[i];
        if (is_digit(d)) {
          ++i;
        } else if (d == '.' && !seen_dot && !seen_exp) {
          seen_dot = true;
          ++i;
        } else if ((d == 'e' || d == 'E') && !seen_exp && i + 1 < n &&
                   (is_digit(sql[i + 1]) ||
                    ((sql[i + 1] == '+' || sql[i + 1] == '-') && i + 2 < n &&
                     is_digit(sql[i + 2])))) {
          seen_exp = true;
          i += (sql[i + 1] == '+' || sql[i + 1] == '-') ? 2 : 1;
        } else {
          break;
        }
      }
      tok.kind = TokKind::kNumber;
      tok.text = view(start, i);
      continue;
    }
    if (c == '\'') {
      // Standard SQL string: '' is an escaped quote. Unescaping only
      // shortens the content, so it compacts in place behind the scan.
      size_t start = ++i;
      size_t w = start;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            buf[w++] = '\'';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        buf[w++] = sql[i++];
      }
      if (!closed) return Err("unterminated string literal");
      tok.kind = TokKind::kString;
      tok.text = view(start, w);
      continue;
    }
    if (c == '$') {
      // $n parameter or $$dollar-quoted body$$.
      if (i + 1 < n && is_digit(sql[i + 1])) {
        size_t start = ++i;
        while (i < n && is_digit(sql[i])) ++i;
        tok.kind = TokKind::kParam;
        tok.text = view(start, i);
        continue;
      }
      if (i + 1 < n && sql[i + 1] == '$') {
        size_t end = sql.find("$$", i + 2);
        if (end == std::string_view::npos)
          return Err("unterminated dollar-quoted string");
        tok.kind = TokKind::kString;
        tok.text = view(i + 2, end);
        i = end + 2;
        continue;
      }
      return Err("stray '$'");
    }
    switch (c) {
      case '(': tok.kind = TokKind::kLParen; ++i; break;
      case ')': tok.kind = TokKind::kRParen; ++i; break;
      case ',': tok.kind = TokKind::kComma; ++i; break;
      case ';': tok.kind = TokKind::kSemicolon; ++i; break;
      case '.': tok.kind = TokKind::kDot; ++i; break;
      default: {
        if (!is(c, kOp))
          return Err(
              strformat("unexpected character '%c' at offset %zu", c, i));
        size_t start = i;
        while (i < n && is(sql[i], kOp)) {
          // Don't swallow a comment start inside an operator run.
          if (sql[i] == '-' && i + 1 < n && sql[i + 1] == '-') break;
          if (sql[i] == '/' && i + 1 < n && sql[i + 1] == '*') break;
          ++i;
        }
        tok.kind = TokKind::kOperator;
        tok.text = view(start, i);
        break;
      }
    }
  }
  Token& end = emplace();
  end.kind = TokKind::kEnd;
  end.offset = static_cast<uint32_t>(n);
  assert(list.size_ <= bound);
  return list;
}

}  // namespace rddr::sqldb
