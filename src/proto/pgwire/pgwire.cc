#include "proto/pgwire/pgwire.h"

#include "common/strutil.h"

namespace rddr::pg {

namespace {

constexpr uint32_t kProtocolVersion = 0x00030000;  // 3.0
constexpr size_t kMaxMessageBytes = 64 * 1024 * 1024;

void put_cstring(Bytes& out, std::string_view s) {
  out.append(s);
  out.push_back('\0');
}

/// Reserves a length field at the end of `out`; returns its offset.
size_t open_length(Bytes& out) {
  out.append(4, '\0');
  return out.size() - 4;
}

void put_u32_be_at(Bytes& out, size_t at, uint32_t v) {
  out[at] = static_cast<char>(v >> 24);
  out[at + 1] = static_cast<char>(v >> 16);
  out[at + 2] = static_cast<char>(v >> 8);
  out[at + 3] = static_cast<char>(v);
}

/// Fills the length field at `at`: itself plus everything after it.
void close_length(Bytes& out, size_t at) {
  put_u32_be_at(out, at, static_cast<uint32_t>(out.size() - at));
}

/// Opens a typed message: its type byte and length field.
size_t open_message(Bytes& out, char type) {
  out.push_back(type);
  return open_length(out);
}

/// Reads a NUL-terminated string starting at `pos`; advances pos past NUL.
std::optional<std::string> read_cstring(ByteView b, size_t& pos) {
  size_t nul = b.find('\0', pos);
  if (nul == ByteView::npos) return std::nullopt;
  std::string s(b.substr(pos, nul - pos));
  pos = nul + 1;
  return s;
}

}  // namespace

MessageReader::MessageReader(bool expect_startup)
    : expect_startup_(expect_startup) {}

void MessageReader::feed(ByteView data) {
  if (failed_) return;
  if (taken_ > 0) {
    // The messages taken so far die here; keep what follows them.
    buf_.erase(0, taken_);
    framed_ -= taken_;
    taken_ = 0;
  }
  buf_.append(data);
  parse();
}

void MessageReader::fail(std::string error) {
  failed_ = true;
  error_ = std::move(error);
}

void MessageReader::parse() {
  while (!failed_) {
    const ByteView rest = ByteView(buf_).substr(framed_);
    size_t len;  // the whole frame
    if (expect_startup_) {
      if (rest.size() < 4) return;
      const uint32_t n = get_u32_be(rest, 0);
      if (n < 8 || n > kMaxMessageBytes) {
        fail("bad startup packet length");
        return;
      }
      len = n;
    } else {
      if (rest.empty()) return;
      const char type = rest[0];
      // Validate the type byte before trusting the length that follows it:
      // real pgwire message types are printable ASCII, and a garbage type
      // byte would otherwise have its attacker-controlled declared length
      // honoured — silently buffering up to the 64MB cap.
      if (static_cast<unsigned char>(type) < 0x20 ||
          static_cast<unsigned char>(type) > 0x7e) {
        fail(strformat("invalid message type byte 0x%02x",
                       static_cast<unsigned char>(type)));
        return;
      }
      if (rest.size() < 5) return;
      const uint32_t n = get_u32_be(rest, 1);
      if (n < 4 || n > kMaxMessageBytes) {
        fail(std::string("bad message length for type '") + type + "'");
        return;
      }
      len = 1 + size_t{n};
    }
    if (rest.size() < len) return;
    framed_ += len;
    ++untaken_;
    startup_untaken_ = startup_untaken_ || expect_startup_;
    expect_startup_ = false;
  }
}

Message MessageReader::next_message() {
  // parse() validated this frame; only its header is read again.
  const ByteView rest = ByteView(buf_).substr(taken_);
  Message m;
  if (startup_untaken_) {
    startup_untaken_ = false;
    m.wire = rest.substr(0, get_u32_be(rest, 0));
    m.payload = m.wire.substr(4);
  } else {
    m.type = rest[0];
    m.wire = rest.substr(0, 1 + size_t{get_u32_be(rest, 1)});
    m.payload = m.wire.substr(5);
  }
  taken_ += m.wire.size();
  --untaken_;
  return m;
}

void append_startup(Bytes& out,
                    const std::map<std::string, std::string>& params) {
  const size_t at = open_length(out);
  put_u32_be(out, kProtocolVersion);
  for (const auto& [k, v] : params) {
    put_cstring(out, k);
    put_cstring(out, v);
  }
  out.push_back('\0');
  close_length(out, at);
}

void append_query(Bytes& out, std::string_view sql) {
  const size_t at = open_message(out, 'Q');
  put_cstring(out, sql);
  close_length(out, at);
}

void append_terminate(Bytes& out) {
  close_length(out, open_message(out, 'X'));
}

void append_auth_ok(Bytes& out) {
  const size_t at = open_message(out, 'R');
  put_u32_be(out, 0);
  close_length(out, at);
}

void append_parameter_status(Bytes& out, std::string_view name,
                             std::string_view value) {
  const size_t at = open_message(out, 'S');
  put_cstring(out, name);
  put_cstring(out, value);
  close_length(out, at);
}

void append_backend_key_data(Bytes& out, uint32_t pid, uint32_t secret) {
  const size_t at = open_message(out, 'K');
  put_u32_be(out, pid);
  put_u32_be(out, secret);
  close_length(out, at);
}

void append_ready_for_query(Bytes& out, char txn_status) {
  const size_t at = open_message(out, 'Z');
  out.push_back(txn_status);
  close_length(out, at);
}

void append_row_description(Bytes& out,
                            const std::vector<std::string>& column_names) {
  const size_t at = open_message(out, 'T');
  put_u16_be(out, static_cast<uint16_t>(column_names.size()));
  for (const auto& name : column_names) {
    put_cstring(out, name);
    // The "unknown/text" defaults the real server uses for computed
    // columns; the type is TEXTOID.
    static constexpr char kTextField[18] = {
        0, 0, 0, 0,                      // table oid
        0, 0,                            // column attnum
        0, 0, 0, 25,                     // type oid
        '\xff', '\xff',                  // type size
        '\xff', '\xff', '\xff', '\xff',  // type mod
        0, 0};                           // format code
    out.append(kTextField, sizeof kTextField);
  }
  close_length(out, at);
}

void append_command_complete(Bytes& out, std::string_view tag) {
  const size_t at = open_message(out, 'C');
  put_cstring(out, tag);
  close_length(out, at);
}

namespace {
void append_error_like(Bytes& out, char type, std::string_view severity,
                       std::string_view sqlstate, std::string_view message) {
  const size_t at = open_message(out, type);
  out.push_back('S');
  put_cstring(out, severity);
  out.push_back('C');
  put_cstring(out, sqlstate);
  out.push_back('M');
  put_cstring(out, message);
  out.push_back('\0');
  close_length(out, at);
}
}  // namespace

void append_error(Bytes& out, std::string_view sqlstate,
                  std::string_view message) {
  append_error_like(out, 'E', "ERROR", sqlstate, message);
}

void append_notice(Bytes& out, std::string_view message) {
  append_error_like(out, 'N', "NOTICE", "00000", message);
}

DataRowWriter::DataRowWriter(Bytes& out, uint16_t columns)
    : out_(out), at_(open_message(out, 'D')) {
  put_u16_be(out_, columns);
}

void DataRowWriter::close_cell() {
  if (cell_ == Bytes::npos) return;
  // A cell's length counts its value only.
  put_u32_be_at(out_, cell_, static_cast<uint32_t>(out_.size() - cell_ - 4));
  cell_ = Bytes::npos;
}

void DataRowWriter::null() {
  close_cell();
  put_u32_be(out_, 0xffffffff);  // -1 = NULL
}

Bytes& DataRowWriter::open_text() {
  close_cell();
  cell_ = open_length(out_);
  return out_;
}

void DataRowWriter::finish() {
  close_cell();
  close_length(out_, at_);
}

namespace {
/// What `append` writes, in a buffer of its own.
template <typename F>
Bytes built(F&& append) {
  Bytes out;
  append(out);
  return out;
}
}  // namespace

Bytes build_startup(const std::map<std::string, std::string>& params) {
  return built([&](Bytes& out) { append_startup(out, params); });
}
Bytes build_query(std::string_view sql) {
  return built([&](Bytes& out) { append_query(out, sql); });
}
Bytes build_terminate() { return built(append_terminate); }
Bytes build_auth_ok() { return built(append_auth_ok); }
Bytes build_parameter_status(std::string_view name, std::string_view value) {
  return built([&](Bytes& out) { append_parameter_status(out, name, value); });
}
Bytes build_backend_key_data(uint32_t pid, uint32_t secret) {
  return built([&](Bytes& out) { append_backend_key_data(out, pid, secret); });
}
Bytes build_ready_for_query(char txn_status) {
  return built([&](Bytes& out) { append_ready_for_query(out, txn_status); });
}
Bytes build_row_description(const std::vector<std::string>& column_names) {
  return built([&](Bytes& out) { append_row_description(out, column_names); });
}
Bytes build_data_row(const std::vector<std::optional<std::string>>& columns) {
  return built([&](Bytes& out) {
    DataRowWriter row(out, static_cast<uint16_t>(columns.size()));
    for (const auto& col : columns) {
      if (col) row.open_text().append(*col);
      else row.null();
    }
    row.finish();
  });
}
Bytes build_command_complete(std::string_view tag) {
  return built([&](Bytes& out) { append_command_complete(out, tag); });
}
Bytes build_error(std::string_view sqlstate, std::string_view message) {
  return built([&](Bytes& out) { append_error(out, sqlstate, message); });
}
Bytes build_notice(std::string_view message) {
  return built([&](Bytes& out) { append_notice(out, message); });
}

std::optional<std::map<std::string, std::string>> parse_startup(
    ByteView payload) {
  if (payload.size() < 4) return std::nullopt;
  std::map<std::string, std::string> params;
  size_t pos = 4;  // skip protocol version
  while (pos < payload.size() && payload[pos] != '\0') {
    auto k = read_cstring(payload, pos);
    if (!k) return std::nullopt;
    auto v = read_cstring(payload, pos);
    if (!v) return std::nullopt;
    params[*k] = *v;
  }
  // The parameter list carries its own trailing NUL; a payload that merely
  // runs out of bytes is a truncated packet, not an empty terminator.
  if (pos >= payload.size()) return std::nullopt;
  return params;
}

std::optional<std::string_view> parse_query(ByteView payload) {
  const size_t nul = payload.find('\0');
  if (nul == ByteView::npos) return std::nullopt;
  return payload.substr(0, nul);
}

std::optional<std::vector<std::string>> parse_row_description(
    ByteView payload) {
  if (payload.size() < 2) return std::nullopt;
  uint16_t n = get_u16_be(payload, 0);
  size_t pos = 2;
  std::vector<std::string> names;
  for (uint16_t i = 0; i < n; ++i) {
    auto name = read_cstring(payload, pos);
    if (!name) return std::nullopt;
    if (pos + 18 > payload.size()) return std::nullopt;
    pos += 18;  // fixed-size field metadata
    names.push_back(std::move(*name));
  }
  return names;
}

std::optional<std::vector<std::optional<std::string>>> parse_data_row(
    ByteView payload) {
  if (payload.size() < 2) return std::nullopt;
  uint16_t n = get_u16_be(payload, 0);
  size_t pos = 2;
  std::vector<std::optional<std::string>> cols;
  for (uint16_t i = 0; i < n; ++i) {
    if (pos + 4 > payload.size()) return std::nullopt;
    uint32_t len = get_u32_be(payload, pos);
    pos += 4;
    if (len == 0xffffffff) {
      cols.push_back(std::nullopt);
      continue;
    }
    if (pos + len > payload.size()) return std::nullopt;
    cols.emplace_back(std::string(payload.substr(pos, len)));
    pos += len;
  }
  return cols;
}

std::optional<ErrorFields> parse_error_fields(ByteView payload) {
  ErrorFields out;
  size_t pos = 0;
  while (pos < payload.size() && payload[pos] != '\0') {
    char field = payload[pos++];
    auto v = read_cstring(payload, pos);
    if (!v) return std::nullopt;
    switch (field) {
      case 'S': out.severity = *v; break;
      case 'C': out.sqlstate = *v; break;
      case 'M': out.message = *v; break;
      default: break;  // unknown fields are legal; skip
    }
  }
  return out;
}

std::string type_name(char type) {
  switch (type) {
    case 0: return "Startup";
    case 'Q': return "Query";
    case 'X': return "Terminate";
    case 'R': return "Authentication";
    case 'S': return "ParameterStatus";
    case 'K': return "BackendKeyData";
    case 'Z': return "ReadyForQuery";
    case 'T': return "RowDescription";
    case 'D': return "DataRow";
    case 'C': return "CommandComplete";
    case 'E': return "ErrorResponse";
    case 'N': return "NoticeResponse";
    default: return strformat("Unknown(%c)", type);
  }
}

}  // namespace rddr::pg
