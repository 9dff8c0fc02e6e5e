// Incremental HTTP/1.1 message parsers.
//
// Framing behaviour is configurable because *disagreement between two
// framers is itself a vulnerability class*: CVE-2019-18277 (HAProxy request
// smuggling) works because HAProxy 1.5.3 did not recognise a
// `Transfer-Encoding` value prefixed with a vertical tab as "chunked" (it
// fell back to Content-Length) while typical backends, trimming with
// isspace(), did. `ParserOptions::te_whitespace` selects which of those two
// framers you get; services/reverse_proxy wires the vulnerable combination.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "proto/http/message.h"

namespace rddr::http {

/// How header values are trimmed when deciding Transfer-Encoding framing.
enum class TeWhitespace {
  /// RFC 7230: only SP and HTAB are optional whitespace. A value like
  /// "\x0bchunked" is NOT recognised as chunked (HAProxy 1.5.3 behaviour).
  kStrictHttp,
  /// Lenient backends: trim with isspace() (includes \x0b, \x0c), so
  /// "\x0bchunked" IS chunked.
  kAnyWhitespace,
};

struct ParserOptions {
  TeWhitespace te_whitespace = TeWhitespace::kStrictHttp;
  /// Reject messages that carry both a chunked Transfer-Encoding and a
  /// Content-Length (RFC 7230 §3.3.3 says the request "ought to be handled
  /// as an error"; hardened proxies do, lax ones don't).
  bool reject_te_and_cl = false;
  /// Reject messages with conflicting duplicate Content-Length headers.
  bool reject_duplicate_cl = true;
  /// Upper bound on header block size; larger blocks are a parse error.
  size_t max_header_bytes = 64 * 1024;
};

namespace detail {

/// Common incremental implementation for requests and responses.
class MessageParserBase {
 public:
  explicit MessageParserBase(bool is_request, ParserOptions opts);

  /// Appends bytes to the internal buffer and parses as far as possible.
  void feed(ByteView data);

  /// True once a framing/syntax error was hit; the parser stops consuming.
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  /// Copy of the not-yet-consumed bytes (pass-through fallback after a
  /// framing failure).
  Bytes unconsumed() const { return buf_.substr(consumed_); }

 protected:
  struct Parsed {
    std::string start_line;
    HeaderMap headers;
    Bytes body;
    Bytes raw;
  };
  std::vector<Parsed> ready_;

 private:
  void parse_loop();
  bool try_parse_one();
  void fail(std::string msg);

  /// Decides body framing from headers. Returns false on error.
  bool decide_framing(const HeaderMap& h, bool& chunked, int64_t& length);

  bool is_request_;
  ParserOptions opts_;
  Bytes buf_;
  size_t consumed_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace detail

/// Incremental request parser. feed() bytes, then drain take().
class RequestParser : public detail::MessageParserBase {
 public:
  explicit RequestParser(ParserOptions opts = {})
      : MessageParserBase(/*is_request=*/true, opts) {}

  /// Removes and returns all fully parsed requests.
  std::vector<Request> take();
};

/// Incremental response parser.
class ResponseParser : public detail::MessageParserBase {
 public:
  explicit ResponseParser(ParserOptions opts = {})
      : MessageParserBase(/*is_request=*/false, opts) {}

  std::vector<Response> take();
};

/// Encodes a body with chunked transfer coding (single data chunk + final).
Bytes chunked_encode(ByteView body, size_t chunk_size = 4096);

}  // namespace rddr::http
