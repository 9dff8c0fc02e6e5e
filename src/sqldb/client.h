// Async pgwire client for simulated services and workload drivers.
//
// Speaks the simple-query protocol: startup, then Query/response cycles
// delimited by ReadyForQuery. Used by the DVWA/GitLab app services (their
// connections flow through RDDR's proxies) and by the pgbench/TPC-H
// drivers.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "netsim/network.h"
#include "proto/pgwire/pgwire.h"

namespace rddr::sqldb {

/// Result of one simple-protocol query round trip (possibly several
/// statements' worth of messages, up to ReadyForQuery).
struct QueryOutcome {
  std::vector<std::string> columns;  // last RowDescription
  std::vector<std::vector<std::optional<std::string>>> rows;
  std::vector<std::string> command_tags;
  std::vector<std::string> notices;
  std::optional<std::string> error_sqlstate;
  std::string error_message;
  /// True when the connection dropped before the cycle completed — the
  /// observable effect of RDDR intervening on a pgwire stream.
  bool connection_lost = false;

  bool failed() const { return error_sqlstate.has_value() || connection_lost; }
};

class PgClient {
 public:
  using QueryCallback = std::function<void(QueryOutcome)>;

  /// Opens the connection and performs the startup handshake. `flow_label`
  /// is stamped on the netsim connection (outgoing-proxy grouping).
  PgClient(sim::Network& net, std::string source, const std::string& address,
           const std::string& user, std::string flow_label = "");

  /// Same, with full connect metadata (trace context included — the
  /// accepting proxy/server parents its spans under meta.parent_span).
  PgClient(sim::Network& net, const std::string& address,
           const std::string& user, sim::ConnectMeta meta);
  ~PgClient();
  PgClient(const PgClient&) = delete;
  PgClient& operator=(const PgClient&) = delete;

  /// Queues a query; callbacks fire in order. Safe to call before the
  /// handshake completes.
  void query(const std::string& sql, QueryCallback cb);

  /// Sends Terminate and closes.
  void close();

  bool broken() const { return broken_; }

  /// ParameterStatus values announced by the server (e.g. server_version).
  const std::map<std::string, std::string>& server_params() const {
    return server_params_;
  }

 private:
  void on_data(ByteView data);
  /// Handles one framed message; false when it ended a query cycle.
  bool on_message(const pg::Message& msg);
  void on_close();
  void maybe_send_next();
  void finish_cycle();

  sim::ConnPtr conn_;
  pg::MessageReader reader_{/*expect_startup=*/false};
  bool ready_ = false;       // saw ReadyForQuery since last send
  bool in_flight_ = false;   // a query cycle is active
  bool broken_ = false;
  std::map<std::string, std::string> server_params_;
  QueryOutcome current_;
  std::deque<std::pair<std::string, QueryCallback>> queue_;
};

}  // namespace rddr::sqldb
