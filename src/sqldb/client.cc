#include "sqldb/client.h"

#include "common/log.h"

namespace rddr::sqldb {

PgClient::PgClient(sim::Network& net, std::string source,
                   const std::string& address, const std::string& user,
                   std::string flow_label)
    : PgClient(net, address, user,
               sim::ConnectMeta{std::move(source),
                                sim::FlowContext{std::move(flow_label)}}) {}

PgClient::PgClient(sim::Network& net, const std::string& address,
                   const std::string& user, sim::ConnectMeta meta) {
  conn_ = net.connect(address, std::move(meta));
  if (!conn_) {
    broken_ = true;
    return;
  }
  conn_->set_on_data([this](ByteView d) { on_data(d); });
  conn_->set_on_close([this] { on_close(); });
  conn_->send(
      SharedBytes(pg::build_startup({{"user", user}, {"database", "app"}})));
}

PgClient::~PgClient() {
  if (conn_ && conn_->is_open()) conn_->close();
}

void PgClient::query(const std::string& sql, QueryCallback cb) {
  if (broken_) {
    QueryOutcome out;
    out.connection_lost = true;
    cb(std::move(out));
    return;
  }
  queue_.emplace_back(sql, std::move(cb));
  maybe_send_next();
}

void PgClient::close() {
  if (conn_ && conn_->is_open()) {
    conn_->send(SharedBytes(pg::build_terminate()));
    conn_->close();
  }
  // Queries still awaiting a response will never get one on a closed
  // connection: fail their callbacks now rather than dropping them.
  on_close();
}

void PgClient::maybe_send_next() {
  if (!ready_ || in_flight_ || queue_.empty() || broken_) return;
  in_flight_ = true;
  ready_ = false;
  current_ = QueryOutcome{};
  conn_->send(SharedBytes(pg::build_query(queue_.front().first)));
}

void PgClient::finish_cycle() {
  in_flight_ = false;
  auto [sql, cb] = std::move(queue_.front());
  queue_.pop_front();
  QueryOutcome out = std::move(current_);
  current_ = QueryOutcome{};
  cb(std::move(out));
  maybe_send_next();
}

void PgClient::on_data(ByteView data) {
  reader_.feed(data);
  if (reader_.failed()) {
    RDDR_LOG_WARN("pg client framing error: %s", reader_.error().c_str());
    broken_ = true;
    conn_->close();
    on_close();
    return;
  }
  reader_.take([this](const pg::Message& msg) { return on_message(msg); });
}

bool PgClient::on_message(const pg::Message& msg) {
  switch (msg.type) {
    case 'R':
      break;  // auth ok
    case 'S': {
      // ParameterStatus: name/value c-strings.
      size_t nul = msg.payload.find('\0');
      if (nul != ByteView::npos && nul + 1 < msg.payload.size()) {
        server_params_[std::string(msg.payload.substr(0, nul))] =
            msg.payload.substr(nul + 1, msg.payload.size() - nul - 2);
      }
      break;
    }
    case 'K':
      break;  // backend key data (instance-local noise)
    case 'T': {
      auto names = pg::parse_row_description(msg.payload);
      if (names) current_.columns = std::move(*names);
      break;
    }
    case 'D': {
      auto row = pg::parse_data_row(msg.payload);
      if (row) current_.rows.push_back(std::move(*row));
      break;
    }
    case 'C': {
      current_.command_tags.emplace_back(
          msg.payload.substr(0, msg.payload.find('\0')));
      break;
    }
    case 'N': {
      auto f = pg::parse_error_fields(msg.payload);
      if (f) current_.notices.push_back(f->message);
      break;
    }
    case 'E': {
      auto f = pg::parse_error_fields(msg.payload);
      if (f) {
        current_.error_sqlstate = f->sqlstate;
        current_.error_message = f->message;
      } else {
        current_.error_sqlstate = "XX000";
      }
      break;
    }
    case 'Z': {
      ready_ = true;
      if (!in_flight_) {
        maybe_send_next();
        break;
      }
      // The cycle's callback may hold the last reference to this client:
      // stop the walk so that nothing of it is touched afterwards.
      finish_cycle();
      return false;
    }
    default:
      RDDR_LOG_WARN("pg client: unexpected message '%c'", msg.type);
  }
  return true;
}

void PgClient::on_close() {
  if (broken_ && queue_.empty()) return;
  broken_ = true;
  // Fail any in-flight and queued queries.
  std::deque<std::pair<std::string, QueryCallback>> pending;
  pending.swap(queue_);
  // An ErrorResponse that arrived before the close (e.g. an admission shed
  // during startup: SQLSTATE 53300, then disconnect) belongs to the first
  // pending query even if it was never sent.
  bool first = in_flight_ || current_.error_sqlstate.has_value();
  in_flight_ = false;
  for (auto& [sql, cb] : pending) {
    QueryOutcome out;
    if (first) {
      out = std::move(current_);
      first = false;
    }
    out.connection_lost = true;
    cb(std::move(out));
  }
}

}  // namespace rddr::sqldb
