// String helpers used throughout the parsers and protocol plugins.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rddr {

/// Splits `s` on the separator character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on a separator string; keeps empty fields. `sep` must be
/// non-empty.
std::vector<std::string> split_str(std::string_view s, std::string_view sep);

/// Splits into lines at '\n', keeping each line without its terminator.
/// A trailing '\r' (CRLF input) is also stripped from each line.
std::vector<std::string> split_lines(std::string_view s);

/// Joins parts with the given separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

/// ASCII uppercase copy.
std::string to_upper(std::string_view s);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Case-insensitive substring search; returns npos when absent.
size_t ifind(std::string_view haystack, std::string_view needle);

/// Parses a decimal integer; rejects trailing junk and overflow.
std::optional<int64_t> parse_i64(std::string_view s);

/// Parses a floating-point number; rejects trailing junk.
std::optional<double> parse_f64(std::string_view s);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// FNV-1a 64 over a byte string. `h` continues a running hash, so
/// fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b). The one string hash behind
/// durable-format checksums, ring placement, volume seeds, trace-id
/// streams and call-site ids — changing it moves every one of them.
inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ULL;
inline uint64_t fnv1a64(std::string_view s, uint64_t h = kFnv1a64Offset) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnv1a64Prime;
  }
  return h;
}

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Decodes %XX escapes and '+' (application/x-www-form-urlencoded).
std::string url_decode(std::string_view s);

/// Percent-encodes everything but unreserved characters.
std::string url_encode(std::string_view s);

/// Parses "a=1&b=2" form bodies (keys/values URL-decoded).
std::vector<std::pair<std::string, std::string>> parse_form(std::string_view body);

}  // namespace rddr
