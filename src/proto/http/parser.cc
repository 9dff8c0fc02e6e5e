#include "proto/http/parser.h"

#include <cctype>

#include "common/strutil.h"

namespace rddr::http {

namespace detail {

namespace {

/// Upper bound on body size.
constexpr size_t kMaxBodyBytes = 256 * 1024 * 1024;

// Trims per the configured whitespace model. Strict HTTP optional whitespace
// is SP / HTAB only; lenient backends use isspace().
std::string_view trim_ows(std::string_view s, TeWhitespace mode) {
  auto is_ws = [mode](char c) {
    if (mode == TeWhitespace::kStrictHttp) return c == ' ' || c == '\t';
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  size_t b = 0, e = s.size();
  while (b < e && is_ws(s[b])) ++b;
  while (e > b && is_ws(s[e - 1])) --e;
  return s.substr(b, e - b);
}

// True when a Transfer-Encoding header value denotes chunked framing under
// the given whitespace model. Only the final coding matters (RFC 7230).
bool te_is_chunked(std::string_view value, TeWhitespace mode) {
  auto parts = split(value, ',');
  if (parts.empty()) return false;
  std::string_view last = trim_ows(parts.back(), mode);
  return iequals(last, "chunked");
}

}  // namespace

MessageParserBase::MessageParserBase(bool is_request, ParserOptions opts)
    : is_request_(is_request), opts_(opts) {}

void MessageParserBase::feed(ByteView data) {
  if (failed_) return;
  buf_.append(data);
  parse_loop();
}

void MessageParserBase::fail(std::string msg) {
  failed_ = true;
  error_ = std::move(msg);
}

void MessageParserBase::parse_loop() {
  while (!failed_ && try_parse_one()) {
  }
  if (consumed_ > 64 * 1024) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
}

bool MessageParserBase::decide_framing(const HeaderMap& h, bool& chunked,
                                       int64_t& length) {
  chunked = false;
  length = 0;

  for (const auto& te : h.get_all("Transfer-Encoding")) {
    if (te_is_chunked(te, opts_.te_whitespace)) chunked = true;
  }

  auto cls = h.get_all("Content-Length");
  bool have_cl = false;
  int64_t cl = 0;
  if (!cls.empty()) {
    for (size_t i = 0; i < cls.size(); ++i) {
      auto v = parse_i64(cls[i]);
      if (!v || *v < 0) {
        fail("invalid Content-Length");
        return false;
      }
      if (i == 0) {
        cl = *v;
      } else if (*v != cl && opts_.reject_duplicate_cl) {
        fail("conflicting Content-Length headers");
        return false;
      }
    }
    have_cl = true;
  }

  if (chunked && have_cl && opts_.reject_te_and_cl) {
    fail("both Transfer-Encoding and Content-Length present");
    return false;
  }
  if (!chunked && have_cl) {
    if (static_cast<uint64_t>(cl) > kMaxBodyBytes) {
      fail("body too large");
      return false;
    }
    length = cl;
  }
  return true;
}

bool MessageParserBase::try_parse_one() {
  ByteView rest = ByteView(buf_).substr(consumed_);
  size_t hdr_end = rest.find("\r\n\r\n");
  if (hdr_end == ByteView::npos) {
    if (rest.size() > opts_.max_header_bytes) fail("header block too large");
    return false;
  }
  if (hdr_end + 4 > opts_.max_header_bytes) {
    fail("header block too large");
    return false;
  }

  ByteView head = rest.substr(0, hdr_end);
  size_t line_end = head.find("\r\n");
  ByteView start_line = (line_end == ByteView::npos) ? head : head.substr(0, line_end);

  Parsed msg;
  msg.start_line = std::string(start_line);

  // Minimal start-line validation so garbage fails fast.
  if (is_request_) {
    auto toks = split(start_line, ' ');
    if (toks.size() != 3 || toks[0].empty() || toks[1].empty() ||
        !starts_with(toks[2], "HTTP/")) {
      fail("malformed request line: " + msg.start_line);
      return false;
    }
  } else {
    auto toks = split(start_line, ' ');
    std::optional<int64_t> status;
    if (toks.size() >= 2) status = parse_i64(toks[1]);
    if (toks.size() < 2 || !starts_with(toks[0], "HTTP/") || !status) {
      fail("malformed status line: " + msg.start_line);
      return false;
    }
    // Status codes are exactly three digits; parse_i64 alone would let
    // ResponseParser::take() truncate an arbitrarily wide value to int.
    if (*status < 100 || *status > 999) {
      fail("status code out of range: " + msg.start_line);
      return false;
    }
  }

  // Header lines.
  size_t pos = (line_end == ByteView::npos) ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    ByteView line = (eol == ByteView::npos) ? head.substr(pos)
                                            : head.substr(pos, eol - pos);
    pos = (eol == ByteView::npos) ? head.size() : eol + 2;
    size_t colon = line.find(':');
    if (colon == ByteView::npos || colon == 0) {
      fail("malformed header line");
      return false;
    }
    std::string name(line.substr(0, colon));
    // Keep SP/HTAB-trimmed value; preserve exotic whitespace (e.g. \x0b)
    // because framing decisions and RDDR diffing must both see it.
    std::string value(trim_ows(line.substr(colon + 1), TeWhitespace::kStrictHttp));
    msg.headers.add(std::move(name), std::move(value));
  }

  bool chunked = false;
  int64_t length = 0;
  if (!decide_framing(msg.headers, chunked, length)) return false;

  size_t body_start = hdr_end + 4;
  size_t total_consumed = 0;

  if (!chunked) {
    if (rest.size() < body_start + static_cast<size_t>(length)) return false;
    msg.body = Bytes(rest.substr(body_start, static_cast<size_t>(length)));
    total_consumed = body_start + static_cast<size_t>(length);
  } else {
    // Chunked decoding over the buffered stream. Chunk-size lines are a
    // hex count plus optional extensions; bound them so a sender that
    // never terminates the line cannot grow the buffer without limit
    // while we wait for its CRLF.
    constexpr size_t kMaxChunkLineBytes = 256;
    size_t p = body_start;
    Bytes body;
    while (true) {
      size_t eol = rest.find("\r\n", p);
      if (eol == ByteView::npos) {
        if (rest.size() - p > kMaxChunkLineBytes)
          fail("chunk size line too long");
        return false;  // need more data
      }
      if (eol - p > kMaxChunkLineBytes) {
        fail("chunk size line too long");
        return false;
      }
      ByteView size_line = rest.substr(p, eol - p);
      size_t semi = size_line.find(';');
      if (semi != ByteView::npos) size_line = size_line.substr(0, semi);
      size_line = trim(size_line);
      uint64_t chunk_len = 0;
      if (size_line.empty()) {
        fail("empty chunk size");
        return false;
      }
      for (char c : size_line) {
        int d;
        if (c >= '0' && c <= '9') d = c - '0';
        else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
        else {
          fail("bad chunk size");
          return false;
        }
        chunk_len = chunk_len * 16 + static_cast<uint64_t>(d);
        if (chunk_len > kMaxBodyBytes) {
          fail("chunk too large");
          return false;
        }
      }
      p = eol + 2;
      if (chunk_len == 0) {
        // Trailer section: skip lines until the empty line, bounded like
        // the header block — an endless trailer must not buffer forever.
        size_t trailer_start = p;
        while (true) {
          size_t teol = rest.find("\r\n", p);
          if (teol == ByteView::npos) {
            if (rest.size() - trailer_start > opts_.max_header_bytes)
              fail("trailer section too large");
            return false;  // need more data
          }
          if (teol - trailer_start > opts_.max_header_bytes) {
            fail("trailer section too large");
            return false;
          }
          if (teol == p) {
            p = teol + 2;
            break;
          }
          p = teol + 2;
        }
        break;
      }
      if (rest.size() < p + chunk_len + 2) return false;  // need more data
      body.append(rest.substr(p, chunk_len));
      if (body.size() > kMaxBodyBytes) {
        fail("body too large");
        return false;
      }
      p += chunk_len;
      if (rest.substr(p, 2) != "\r\n") {
        fail("missing chunk terminator");
        return false;
      }
      p += 2;
    }
    msg.body = std::move(body);
    total_consumed = p;
  }

  msg.raw = Bytes(rest.substr(0, total_consumed));
  consumed_ += total_consumed;
  ready_.push_back(std::move(msg));
  return true;
}

}  // namespace detail

std::vector<Request> RequestParser::take() {
  std::vector<Request> out;
  for (auto& p : ready_) {
    Request r;
    auto toks = split(p.start_line, ' ');
    r.method = toks[0];
    r.target = toks[1];
    r.version = toks[2];
    r.headers = std::move(p.headers);
    r.body = std::move(p.body);
    r.raw = std::move(p.raw);
    out.push_back(std::move(r));
  }
  ready_.clear();
  return out;
}

std::vector<Response> ResponseParser::take() {
  std::vector<Response> out;
  for (auto& p : ready_) {
    Response r;
    auto toks = split(p.start_line, ' ');
    r.version = toks[0];
    r.status = static_cast<int>(*parse_i64(toks[1]));
    if (toks.size() > 2) {
      std::vector<std::string> reason(toks.begin() + 2, toks.end());
      r.reason = join(reason, " ");
    }
    r.headers = std::move(p.headers);
    r.body = std::move(p.body);
    r.raw = std::move(p.raw);
    out.push_back(std::move(r));
  }
  ready_.clear();
  return out;
}

Bytes chunked_encode(ByteView body, size_t chunk_size) {
  Bytes out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t n = std::min(chunk_size, body.size() - pos);
    char size_buf[32];
    std::snprintf(size_buf, sizeof(size_buf), "%zx\r\n", n);
    out += size_buf;
    out.append(body.substr(pos, n));
    out += "\r\n";
    pos += n;
  }
  out += "0\r\n\r\n";
  return out;
}

}  // namespace rddr::http
