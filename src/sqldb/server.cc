#include "sqldb/server.h"

#include "common/log.h"
#include "common/strutil.h"
#include "sqldb/snapshot.h"

namespace rddr::sqldb {

namespace {
/// Container footprint charged to the host at start.
constexpr int64_t kBaseMemoryBytes = 96LL << 20;
}  // namespace

struct SqlServer::Conn {
  sim::ConnPtr conn;
  pg::MessageReader reader{/*expect_startup=*/true};
  std::unique_ptr<Session> session;
  /// A fully-executed query whose response still awaits its host CPU
  /// grant. Responses go out FIFO per connection.
  struct PendingResponse {
    Bytes out;
    double cost = 0;
    sim::Time io = 0;  // modeled storage latency (buffer misses + WAL)
    obs::SpanId span = 0;
    sim::Time started = 0;
  };
  bool busy = false;  // a response task is running on the host
  std::vector<PendingResponse> queued;
};

SqlServer::SqlServer(sim::Network& net, sim::Host& host,
                     std::shared_ptr<Database> db, Options opts)
    : net_(net),
      host_(host),
      db_(std::move(db)),
      opts_(std::move(opts)),
      rng_(opts_.rng_seed),
      alive_(std::make_shared<bool>(true)) {
  if (opts_.metrics) {
    std::string node = sim::Network::node_of(opts_.address);
    query_counter_ = opts_.metrics->counter(node + ".queries");
    query_ms_ = opts_.metrics->histogram(node + ".query_ms");
  }
  host_.charge_memory(kBaseMemoryBytes);
  charged_memory_ = kBaseMemoryBytes;
  recovery_.ok = true;
  sim::Time startup_io = 0;
  if (opts_.storage) {
    if (opts_.storage->has_durable_state()) {
      // Crash recovery replaces whatever the image factory loaded — the
      // durable volume is the truth for a restarted container.
      recovery_ = opts_.storage->recover(*db_);
      startup_io = recovery_.io_time;
    } else {
      startup_io = opts_.storage->bootstrap(*db_, opts_.lineage_seed);
    }
  }
  refresh_memory_charge();
  if (startup_io > 0) {
    // A recovering container is not instantly serving: redo happens
    // before the port opens, exactly like a real DBMS startup.
    net_.simulator().schedule(startup_io, [this, alive = alive_] {
      if (!*alive) return;
      listening_ = true;
      net_.listen(opts_.address,
                  [this](sim::ConnPtr c) { on_accept(std::move(c)); });
    });
  } else {
    listening_ = true;
    net_.listen(opts_.address,
                [this](sim::ConnPtr c) { on_accept(std::move(c)); });
  }
}

SqlServer::~SqlServer() {
  *alive_ = false;
  if (listening_) net_.unlisten(opts_.address);
  if (opts_.storage && opts_.storage->attached()) opts_.storage->detach();
  host_.release_memory(charged_memory_);
}

void SqlServer::refresh_memory_charge() {
  if (!opts_.storage) {
    int64_t rows = db_->total_rows();
    if (rows == last_known_rows_) return;
    last_known_rows_ = rows;
  }
  // With storage the resident set is the buffer pool + staged WAL, not
  // the whole dataset — that bound is the fig6 cache-pressure story.
  int64_t data_bytes = opts_.storage ? opts_.storage->resident_bytes()
                                     : db_->approx_bytes();
  int64_t want = kBaseMemoryBytes + data_bytes;
  if (want == charged_memory_) return;
  host_.charge_memory(want - charged_memory_);
  charged_memory_ = want;
}

std::string SqlServer::dump_snapshot() const { return snapshot_database(*db_); }

bool SqlServer::load_snapshot(std::string_view snapshot, std::string* error,
                              uint64_t source_lsn, uint64_t source_lineage) {
  bool ok = restore_database(*db_, snapshot, error);
  if (opts_.storage) {
    // Rebase even on failure: the database is cleared either way, and the
    // durable image must not resurrect the pre-load contents.
    opts_.storage->rebase(ok ? source_lsn : 0, ok ? source_lineage : 0);
  }
  last_known_rows_ = -1;  // force a re-charge even if row counts match
  refresh_memory_charge();
  return ok;
}

void SqlServer::on_accept(sim::ConnPtr conn) {
  auto c = std::make_shared<Conn>();
  c->conn = std::move(conn);
  // The handler owns the session state; the network drops it, and with it
  // this half, once the close is delivered (netsim/network.h).
  c->conn->set_on_data([this, c](ByteView data) {
    c->reader.feed(data);
    if (c->reader.failed()) {
      RDDR_LOG_WARN("pgwire framing error on %s: %s", opts_.address.c_str(),
                    c->reader.error().c_str());
      c->conn->close();
      return;
    }
    for (const auto& msg : c->reader.take()) on_message(c, msg);
  });
}

void SqlServer::on_message(const std::shared_ptr<Conn>& c,
                           const pg::Message& msg) {
  if (msg.type == 0) {
    auto params = pg::parse_startup(msg.payload);
    std::string user = "postgres";
    if (params) {
      auto it = params->find("user");
      if (it != params->end()) user = it->second;
    }
    c->session = std::make_unique<Session>(*db_, user);
    Bytes out;
    out += pg::build_auth_ok();
    // server_version is deterministic per-build known variance; the
    // backend key is instance-local randomness (filter-pair fodder).
    out += pg::build_parameter_status("server_version", db_->info().version);
    out += pg::build_parameter_status("server_encoding", "UTF8");
    out += pg::build_parameter_status("application_name", db_->info().product);
    for (const auto& [k, v] : opts_.startup_params)
      out += pg::build_parameter_status(k, v);
    out += pg::build_backend_key_data(
        static_cast<uint32_t>(rng_.uniform(1000, 65000)),
        static_cast<uint32_t>(rng_.next() & 0xffffffff));
    out += pg::build_ready_for_query();
    c->conn->send(SharedBytes(std::move(out)));
    return;
  }
  if (msg.type == 'X') {
    c->conn->close();
    return;
  }
  if (msg.type == 'Q') {
    auto sql = pg::parse_query(msg.payload);
    if (!sql || !c->session) {
      c->conn->send(pg::build_error("08P01", "malformed Query message"));
      c->conn->send(pg::build_ready_for_query());
      return;
    }
    handle_query(c, *sql);
    return;
  }
  // Unsupported message type (this subset has no extended protocol).
  c->conn->send(pg::build_error("0A000", std::string("unsupported message: ") +
                                             pg::type_name(msg.type)));
  c->conn->send(pg::build_ready_for_query());
}

void SqlServer::handle_query(const std::shared_ptr<Conn>& c,
                             const std::string& sql) {
  // Execute against the engine immediately: state mutates in network
  // delivery order across *all* connections, pipelined or not, so e.g. a
  // resync journal replay that has been delivered is visible to queries
  // arriving later on other connections. Only the response waits for the
  // host to grant the virtual CPU cost, FIFO per connection.
  if (opts_.storage) opts_.storage->begin_statement();
  ExecResult result = c->session->execute(sql);
  sim::Time storage_io =
      opts_.storage ? opts_.storage->end_statement(c->session->user(), sql)
                    : 0;
  ++queries_served_;
  if (query_counter_) query_counter_->inc();
  refresh_memory_charge();
  bool notices_enabled = true;
  std::string cmm = to_lower(c->session->setting("client_min_messages"));
  if (cmm == "warning" || cmm == "error") notices_enabled = false;

  Conn::PendingResponse p;
  p.cost = opts_.cpu_per_query +
           static_cast<double>(result.rows_scanned) * opts_.cpu_per_row;
  p.io = storage_io;
  p.started = net_.simulator().now();
  if (opts_.tracer) {
    // Parent the span to the connect-time trace context, when the dialing
    // side (a proxy or the workload driver) supplied one.
    obs::TraceId trace = c->conn->flow().trace_id;
    if (!trace) trace = opts_.tracer->id_stream(opts_.address)->next_trace();
    p.span = opts_.tracer->begin(trace, c->conn->flow().parent_span,
                                 "db.query",
                                 sim::Network::node_of(opts_.address));
    opts_.tracer->tag(p.span, "rows_scanned",
                      strformat("%llu", static_cast<unsigned long long>(
                                            result.rows_scanned)));
  }
  for (const auto& sr : result.statements) {
    if (notices_enabled)
      for (const auto& n : sr.notices) p.out += pg::build_notice(n);
    if (sr.failed()) {
      p.out += pg::build_error(*sr.error_sqlstate, sr.error_message);
      break;  // remaining statements were aborted by the engine
    }
    if (sr.is_rowset) {
      p.out += pg::build_row_description(sr.columns);
      for (const auto& row : sr.rows) p.out += pg::build_data_row(row);
    }
    p.out += pg::build_command_complete(sr.command_tag);
  }
  p.out += pg::build_ready_for_query();
  c->queued.push_back(std::move(p));
  if (!c->busy) pump_responses(c);
}

void SqlServer::pump_responses(const std::shared_ptr<Conn>& c) {
  if (c->queued.empty()) return;
  c->busy = true;
  Conn::PendingResponse p = std::move(c->queued.front());
  c->queued.erase(c->queued.begin());
  host_.run_task(p.cost, [this, c, p = std::move(p)]() mutable {
    auto deliver = [this, c](Conn::PendingResponse resp) {
      if (opts_.tracer) opts_.tracer->end(resp.span);
      if (query_ms_)
        query_ms_->observe(
            static_cast<double>(net_.simulator().now() - resp.started) / 1e6);
      // The query already executed at delivery; a response to a closed
      // connection is simply dropped. The response buffer moves into the
      // data plane without a copy.
      if (c->conn->is_open()) c->conn->send(SharedBytes(std::move(resp.out)));
      c->busy = false;
      pump_responses(c);
    };
    if (p.io > 0) {
      // Storage latency (buffer-pool misses, WAL sync) extends the
      // response time past the CPU grant — still FIFO per connection.
      net_.simulator().schedule(
          p.io, [alive = alive_, deliver = std::move(deliver),
                 p = std::move(p)]() mutable {
            if (!*alive) return;
            deliver(std::move(p));
          });
      return;
    }
    deliver(std::move(p));
  });
}

}  // namespace rddr::sqldb
