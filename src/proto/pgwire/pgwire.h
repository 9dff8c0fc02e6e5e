// Postgres-style wire protocol ("pgwire").
//
// Implements the framing and the message subset that the sqldb servers, the
// RDDR pgwire plugin, and the workload drivers need. Framing follows the
// real protocol (PostgreSQL docs ch. "Message Formats", cited by the paper):
// a startup packet without a type byte, then `type(1) + length(4, includes
// itself) + payload` messages in both directions.
//
// Backend message types used: R (Auth), S (ParameterStatus), K
// (BackendKeyData), Z (ReadyForQuery), T (RowDescription), D (DataRow),
// C (CommandComplete), E (ErrorResponse), N (NoticeResponse).
// Frontend: startup, Q (Query), X (Terminate).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace rddr::pg {

/// One framed message, as views into the MessageReader that framed it.
/// `type == 0` denotes the (untyped) startup packet.
struct Message {
  char type = 0;
  /// The whole frame as it crossed the wire: type byte (none for the
  /// startup packet), length, payload.
  ByteView wire;
  /// The bytes after the length.
  ByteView payload;
};

/// Incremental frame reader for one direction of a connection. It keeps
/// one buffer for its lifetime: feed() appends to it and frames by
/// offset, take() hands out views, and the bytes taken are dropped at the
/// next feed(), so a steady stream costs no allocation.
class MessageReader {
 public:
  /// `expect_startup` — true for the server side of a fresh connection,
  /// where the first packet has no type byte.
  explicit MessageReader(bool expect_startup);

  /// Appends `data` and frames every message it completes. Invalidates the
  /// messages taken so far.
  void feed(ByteView data);

  /// Hands each message framed and not yet taken to `f(const Message&)`,
  /// in order, until `f` returns false; the rest wait for the next take().
  /// The views are valid until the next feed(). Nothing of the reader is
  /// touched after `f` returns false, so `f` may then have destroyed it.
  template <typename F>
  void take(F&& f) {
    while (untaken_ > 0)
      if (!f(next_message())) return;
  }
  /// How many messages take() would hand out, and their bytes.
  size_t untaken() const { return untaken_; }
  ByteView untaken_bytes() const {
    return ByteView(buf_).substr(taken_, framed_ - taken_);
  }

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  /// Not-yet-framed bytes (pass-through fallback after a framing failure).
  ByteView unconsumed() const { return ByteView(buf_).substr(framed_); }

 private:
  void parse();
  void fail(std::string error);
  /// The first untaken message, which it marks taken.
  Message next_message();

  bool expect_startup_;
  bool startup_untaken_ = false;  // the first untaken message is the startup
  bool failed_ = false;
  std::string error_;
  Bytes buf_;
  size_t taken_ = 0;   // buf_[0, taken_) went out through take()
  size_t framed_ = 0;  // buf_[0, framed_) is framed
  size_t untaken_ = 0;  // messages in buf_[taken_, framed_)
};

// ---- Encoders ----
//
// Each message has one encoder, which appends it to `out` and writes its
// length last. The build_* forms return it in a buffer of its own.

/// Startup packet: protocol 3.0 + parameters (user, database, ...).
void append_startup(Bytes& out, const std::map<std::string, std::string>& params);
/// Simple query ('Q').
void append_query(Bytes& out, std::string_view sql);
/// Terminate ('X').
void append_terminate(Bytes& out);
void append_auth_ok(Bytes& out);
void append_parameter_status(Bytes& out, std::string_view name,
                             std::string_view value);
void append_backend_key_data(Bytes& out, uint32_t pid, uint32_t secret);
void append_ready_for_query(Bytes& out, char txn_status = 'I');
void append_row_description(Bytes& out,
                            const std::vector<std::string>& column_names);
void append_command_complete(Bytes& out, std::string_view tag);
void append_error(Bytes& out, std::string_view sqlstate,
                  std::string_view message);
void append_notice(Bytes& out, std::string_view message);

/// DataRow, cell by cell: construct, then per column either null() or
/// open_text() followed by appending the value's text to the returned
/// buffer (`out` itself, so a value renders straight into the message),
/// then finish().
class DataRowWriter {
 public:
  DataRowWriter(Bytes& out, uint16_t columns);
  void null();
  Bytes& open_text();
  void finish();

 private:
  void close_cell();

  Bytes& out_;
  size_t at_;                // the message's length field
  size_t cell_ = Bytes::npos;  // the open text cell's length field
};

Bytes build_startup(const std::map<std::string, std::string>& params);
Bytes build_query(std::string_view sql);
Bytes build_terminate();
Bytes build_auth_ok();
Bytes build_parameter_status(std::string_view name, std::string_view value);
Bytes build_backend_key_data(uint32_t pid, uint32_t secret);
Bytes build_ready_for_query(char txn_status = 'I');
Bytes build_row_description(const std::vector<std::string>& column_names);
/// DataRow; nullopt = SQL NULL.
Bytes build_data_row(const std::vector<std::optional<std::string>>& columns);
Bytes build_command_complete(std::string_view tag);
Bytes build_error(std::string_view sqlstate, std::string_view message);
Bytes build_notice(std::string_view message);

// ---- Decoders (operate on Message::payload) ----

/// Startup parameters (key/value pairs). Returns nullopt on malformed data.
std::optional<std::map<std::string, std::string>> parse_startup(ByteView payload);

/// SQL text of a Query message (a view into `payload`).
std::optional<std::string_view> parse_query(ByteView payload);

/// Column names from a RowDescription.
std::optional<std::vector<std::string>> parse_row_description(ByteView payload);

/// Column values (nullopt = NULL) from a DataRow.
std::optional<std::vector<std::optional<std::string>>> parse_data_row(
    ByteView payload);

/// Severity/code/message fields of an ErrorResponse or NoticeResponse.
struct ErrorFields {
  std::string severity;
  std::string sqlstate;
  std::string message;
};
std::optional<ErrorFields> parse_error_fields(ByteView payload);

/// Human-readable name for a message type (diagnostics).
std::string type_name(char type);

}  // namespace rddr::pg
