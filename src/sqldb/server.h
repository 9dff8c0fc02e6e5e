// pgwire server: binds a sqldb::Database to a netsim address + host.
//
// One server == one simulated database container. CPU cost per query is
// charged to the host (base cost + per-row-scanned cost), which is what
// drives the paper's Figures 4-6; memory is charged for the container
// footprint plus the resident dataset.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/pgwire/pgwire.h"
#include "sqldb/engine.h"
#include "sqldb/storage/storage_engine.h"

namespace rddr::sqldb {

class SqlServer {
 public:
  struct Options {
    /// Address to listen on, e.g. "minipg-0:5432".
    std::string address;
    /// CPU seconds charged per query, independent of data touched.
    double cpu_per_query = 200e-6;
    /// CPU seconds per row scanned by the executor.
    double cpu_per_row = 0.5e-6;
    /// Seed for instance-local randomness (backend pid/secret — the
    /// nondeterminism the paper's filter pair must absorb).
    uint64_t rng_seed = 1;
    /// Durable storage engine over this container's volume (optional; the
    /// in-memory-only configuration stays the default). With storage set
    /// the constructor recovers from the volume's durable image when one
    /// exists (deferring listen() by the modeled recovery IO) and
    /// bootstraps it otherwise, each query pays its buffer-miss + WAL
    /// latency, and resident memory is bounded by the frame budget
    /// instead of the full dataset.
    std::shared_ptr<storage::StorageEngine> storage;
    /// Lineage seed forwarded to storage bootstrap: replicas that should
    /// serve each other incremental resync deltas must share it.
    uint64_t lineage_seed = 0;
    /// Extra ParameterStatus pairs announced in the startup handshake
    /// after the standard server_version/server_encoding/application_name
    /// set — how a version build stamps itself (benign divergence the
    /// scenario-factory miner must learn to ignore, paper §IV-B4).
    std::vector<std::pair<std::string, std::string>> startup_params;
    /// Observability sinks (optional, not owned). With a tracer set, each
    /// query becomes a "db.query" span, parented to the trace context the
    /// dialing side put in its ConnectMeta (if any). With metrics set, the
    /// server publishes "<node>.queries" and a "<node>.query_ms" histogram.
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
  };

  /// Starts listening immediately (without storage) or after the modeled
  /// recovery IO (with storage + durable state). The database may be
  /// shared between servers (not done in practice; each instance owns its
  /// replica).
  SqlServer(sim::Network& net, sim::Host& host, std::shared_ptr<Database> db,
            Options opts);
  ~SqlServer();

  SqlServer(const SqlServer&) = delete;
  SqlServer& operator=(const SqlServer&) = delete;

  Database& database() { return *db_; }
  const Options& options() const { return opts_; }

  /// Re-charges host memory from current table sizes (call after bulk
  /// loads that bypass SQL).
  void refresh_memory_charge();

  /// Serializes this instance's database (sqldb/snapshot.h) — the dump
  /// side of replacement warm-up.
  std::string dump_snapshot() const;

  /// Replaces the database contents from a snapshot taken on a healthy
  /// peer and refreshes the host memory charge. Returns false (and leaves
  /// the database cleared) on a malformed snapshot. With storage
  /// attached, the durable image is rebased onto the loaded contents:
  /// pass the source replica's LSN/lineage so incremental resync keeps
  /// working afterwards (0/0 = unknown source, full snapshots only until
  /// the next bootstrap).
  bool load_snapshot(std::string_view snapshot, std::string* error = nullptr,
                     uint64_t source_lsn = 0, uint64_t source_lineage = 0);

  /// The attached storage engine (null without durable storage).
  storage::StorageEngine* storage() { return opts_.storage.get(); }
  const storage::StorageEngine* storage() const {
    return opts_.storage.get();
  }

  /// Result of the constructor's crash recovery (ok=true trivially when
  /// the server bootstrapped fresh or runs without storage).
  const storage::StorageEngine::RecoveryResult& last_recovery() const {
    return recovery_;
  }

  /// Total queries served (diagnostics / tests).
  uint64_t queries_served() const { return queries_served_; }

 private:
  struct Conn;
  void on_accept(sim::ConnPtr conn);
  void on_message(const std::shared_ptr<Conn>& c, const pg::Message& msg);
  void handle_query(const std::shared_ptr<Conn>& c, const std::string& sql);
  void pump_responses(const std::shared_ptr<Conn>& c);

  sim::Network& net_;
  sim::Host& host_;
  std::shared_ptr<Database> db_;
  Options opts_;
  Rng rng_;
  /// Guards simulator events (deferred listen, response IO delays) that
  /// may fire after this server is destroyed.
  std::shared_ptr<bool> alive_;
  storage::StorageEngine::RecoveryResult recovery_;
  bool listening_ = false;
  int64_t charged_memory_ = 0;
  int64_t last_known_rows_ = -1;
  uint64_t queries_served_ = 0;
  obs::Counter* query_counter_ = nullptr;
  obs::Histogram* query_ms_ = nullptr;
};

}  // namespace rddr::sqldb
