// Simulated network: listeners, duplex byte-stream connections, latency.
//
// Substitutes for TCP sockets (see DESIGN.md). The abstraction matches what
// RDDR's proxies need from a transport: ordered 8-bit-clean byte streams,
// connect/accept by address, graceful close, and connection metadata
// (which container opened the connection, and an optional flow label used
// by the outgoing proxy to group the N instances' backend connections).
//
// Guarantees:
//  * Per-direction FIFO: bytes arrive in the order sent.
//  * Close ordering: a peer sees all bytes sent before close() before its
//    on_close fires.
//  * Data sent before the receiving side installs a handler is buffered and
//    delivered when the handler is installed.
//
// Data plane (see DESIGN.md "Data plane & memory"): payloads travel as
// ref-counted SharedBytes. send(SharedBytes) puts a buffer on the wire
// without copying it — the same buffer can be in flight on many
// connections at once (the proxies' N-way fan-out). send(ByteView) is the
// compatibility path that materialises one copy on entry. Every send is
// its own delivery event, so delivery granularity never depends on where
// the island cut falls.
//
// Fault injection: the network additionally models node crashes, refused
// addresses, per-node latency spikes, one-sided egress stalls, and
// partitions (see netsim/fault.h for the virtual-clock scheduling layer).
// A "node" is the part of an address before the ':' — "pg-1" for the
// listener "pg-1:5432" — or a connecting container's ConnectMeta::source.
// Every fault is plain deterministic state on the Network, so seeded runs
// replay byte-identically with faults active.
// Islands (DESIGN.md "Parallel simulation"): every connection half lives
// on the island of the node it runs on (client half: the dialing
// container's island at connect() time; server half: the listener node's
// island, or whatever an installed island router decides). Deliveries
// targeting the peer half are scheduled on the *peer's* island, so a
// cross-island send travels through the executor's mailbox and arrives
// at least one link latency later — which is exactly the conservative
// lookahead the barrier relies on. The semantics are the same at every
// island count, one included, so a 1-island run is the byte-identical
// oracle for any N-island run.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/exec_index.h"
#include "common/shared_bytes.h"
#include "netsim/simulator.h"

namespace rddr::sim {

class Network;

/// Per-flow context carried across a connect(): everything about *why* this
/// connection exists, as opposed to *who* opened it (ConnectMeta::source).
/// Propagated automatically: while a connection's data/close handlers run,
/// that connection is the ambient flow (FlowScope), and any connect() they
/// issue derives its FlowContext from it — trace ids are inherited and the
/// execution index is extended by one (call site, invocation-seq) frame.
/// Explicitly set fields always win over derivation.
struct FlowContext {
  /// Optional flow label: the outgoing proxy groups the N instances'
  /// connections that carry the same label (paper §IV-B: "merge requests to
  /// downstream microservices").
  std::string label;
  /// Optional trace context (obs/trace.h ids; plain integers here so netsim
  /// stays independent of the obs types). 0 means "no trace": the accepting
  /// service starts its own if it traces.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  /// Deterministic call-path index from the originating edge request to
  /// this connection's dial site (common/exec_index.h). Empty for root
  /// dials outside any protected flow.
  ExecutionIndex index;
};

/// Metadata attached to a connection at connect() time.
struct ConnectMeta {
  /// Name of the container/process opening the connection (diagnostics and
  /// outgoing-proxy grouping).
  std::string source;
  /// Flow identity: label, trace ids and execution index. Fields left at
  /// their defaults are auto-derived from the ambient flow (see above).
  FlowContext flow;
};

/// One endpoint of a duplex byte-stream connection. Obtained from
/// Network::connect (client half) or a listener callback (server half).
/// Lifetime is shared between the two halves and any in-flight events.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  using DataHandler = std::function<void(ByteView)>;
  using CloseHandler = std::function<void()>;

  /// Sends bytes to the peer; delivered after the link latency. No-op after
  /// close. This overload copies `data` once into the shared data plane
  /// (counted in Network::payload_bytes_copied) — senders that own their
  /// buffer should wrap it in SharedBytes and use the overload below.
  void send(ByteView data);

  /// Zero-copy send: the connection takes a reference to the buffer, no
  /// bytes move. The same SharedBytes may be sent on any number of
  /// connections simultaneously (proxy fan-out).
  void send(SharedBytes data);

  /// Gracefully closes both directions. The peer receives all bytes already
  /// sent, then its on_close handler fires. Idempotent.
  void close();

  /// True until either side closed.
  bool is_open() const { return open_; }

  /// Installs the data handler; any buffered bytes are delivered
  /// immediately (in a scheduled event, preserving run-to-completion).
  void set_on_data(DataHandler h);

  /// Installs the close handler; fires once, after all data is delivered.
  void set_on_close(CloseHandler h);

  /// Metadata supplied by the connecting side.
  const ConnectMeta& meta() const { return meta_; }

  /// Flow context supplied (or auto-derived) at connect() time.
  const FlowContext& flow() const { return meta_.flow; }

  /// Next invocation ordinal for a child dial from site `site` within this
  /// connection's execution. Deterministic: counts per (connection, site)
  /// in handler execution order, which the simulator fixes independently
  /// of island layout. Used by Network::connect() when deriving a child
  /// execution index from the ambient flow.
  uint32_t next_child_seq(uint64_t site) { return child_seq_[site]++; }

  /// Address the client dialled (both halves see the same value).
  const std::string& dialed_address() const { return dialed_address_; }

  /// Unique id (diagnostics; stable within a simulation).
  uint64_t id() const { return id_; }

  /// Node this half runs on: the dialing container for the client half,
  /// the listener's node for the server half.
  const std::string& local_node() const;

  /// Island this half's events execute on (0 on a 1-island simulator).
  IslandId island() const { return island_; }

  /// Routing decision recorded by an island router at connect() time
  /// (Network::set_island_router); UINT32_MAX when no router ran. The
  /// frontier uses this to trust the dial-time shard choice instead of
  /// re-deriving it at accept time.
  uint32_t route_hint() const { return route_hint_; }

  /// Resets the connection (the client-issued RST): this half sees
  /// on_close "now" and drops anything still in flight to it; the peer
  /// learns of the break one link latency later, like any other transfer,
  /// and drops whatever it had not yet received.
  void abort();

 private:
  friend class Network;

  Connection(Simulator& sim, uint64_t id, Time latency, ConnectMeta meta,
             std::string dialed_address, bool is_client_half);

  void send_shared(SharedBytes data);
  /// Marks this half broken and schedules its close at now() on its own
  /// island; data arriving afterwards is dropped.
  void break_now();
  void deliver(SharedBytes data);  // runs on the *receiving* half
  void deliver_close();            // runs on the *receiving* half
  void flush_pending();
  Time next_arrival(Network* net);  // FIFO watermark + fault adjustments

  Simulator& sim_;
  uint64_t id_;
  Time latency_;
  ConnectMeta meta_;
  std::string dialed_address_;
  bool is_client_half_;
  IslandId island_ = 0;
  uint32_t route_hint_ = UINT32_MAX;
  std::string local_node_;   // cached node name for fault lookups
  Network* net_ = nullptr;   // set by Network; faults consulted per send
  std::weak_ptr<Connection> peer_;
  bool open_ = true;
  bool aborted_ = false;  // break observed "now"; drop same-tick arrivals
  bool close_delivered_ = false;
  bool close_pending_ = false;
  Time last_arrival_ = 0;  // per-direction FIFO watermark (arrivals at peer)
  std::vector<SharedBytes> pending_;  // received, not yet handed to on_data
  // Per-site invocation counters for execution-index derivation.
  std::map<uint64_t, uint32_t> child_seq_;
  DataHandler on_data_;
  CloseHandler on_close_;
};

using ConnPtr = std::shared_ptr<Connection>;

namespace detail {
/// Ambient connection whose handlers are currently executing on this
/// thread (nullptr outside any handler). Thread-local like the island
/// context (common/exec_context.h): islands never migrate a running
/// handler across threads, so the ambient flow is race-free by
/// construction.
inline thread_local Connection* g_current_flow = nullptr;
}  // namespace detail

/// Connection whose handlers the current thread is executing, or nullptr.
/// Network::connect() derives FlowContext defaults from it; services that
/// defer work off the handler stack (e.g. into a host task) re-install the
/// scope around the deferred body with FlowScope.
inline Connection* current_flow() { return detail::g_current_flow; }

/// RAII scope that makes `conn` the ambient flow for the calling thread.
/// Installed by the network around data/close/accept handler delivery;
/// also usable by services that run request handlers outside the delivery
/// event (restoring the previous ambient on destruction).
class FlowScope {
 public:
  explicit FlowScope(Connection* conn)
      : prev_(detail::g_current_flow) {
    detail::g_current_flow = conn;
  }
  ~FlowScope() { detail::g_current_flow = prev_; }
  FlowScope(const FlowScope&) = delete;
  FlowScope& operator=(const FlowScope&) = delete;

 private:
  Connection* prev_;
};

/// Address registry + connection factory.
class Network {
 public:
  using AcceptHandler = std::function<void(ConnPtr)>;

  explicit Network(Simulator& sim, Time default_latency = 50 * kMicrosecond);

  /// Registers a listener for `address` (e.g. "minipg-0:5432"). Replaces any
  /// existing listener for the same address.
  void listen(const std::string& address, AcceptHandler on_accept);

  /// Removes a listener.
  void unlisten(const std::string& address);

  /// True if some listener is registered at `address`.
  bool has_listener(const std::string& address) const;

  /// Dials `address`. Returns the client half, or nullptr if nothing
  /// listens there (connection refused), the address's accept queue is
  /// full, or a fault refuses it. The listener's accept handler is
  /// invoked after one link latency with the server half.
  ConnPtr connect(const std::string& address, ConnectMeta meta = {});

  /// Bounds the listener's accept queue (the SYN-backlog analogue): at
  /// most `depth` connections may be dialed-but-not-yet-accepted at once;
  /// further connects are refused deterministically (connect() returns
  /// nullptr and `accepts_refused()` counts it). 0 (the default) restores
  /// the historical unbounded behaviour. Survives listener replacement.
  void set_accept_queue_depth(const std::string& address, size_t depth);

  /// Connections currently dialed but not yet delivered to the accept
  /// handler of `address`.
  size_t accept_queue_len(const std::string& address) const;

  /// Total connects refused because an accept queue was full.
  uint64_t accepts_refused() const {
    return accepts_refused_.load(std::memory_order_relaxed);
  }

  /// Link latency applied to each direction of new connections.
  void set_default_latency(Time latency) { default_latency_ = latency; }
  Time default_latency() const { return default_latency_; }

  Simulator& simulator() { return sim_; }

  /// Total connections ever opened (diagnostics).
  uint64_t connections_opened() const {
    return conns_opened_.load(std::memory_order_relaxed);
  }

  /// Total payload bytes put on the wire by Connection::send (both
  /// overloads). Diagnostics for the copy-efficiency benchmarks.
  uint64_t payload_bytes_sent() const {
    return payload_bytes_sent_.load(std::memory_order_relaxed);
  }

  /// Payload bytes that were *copied* to enter the data plane — the
  /// send(ByteView) path. send(SharedBytes) moves none. Before the
  /// zero-copy overhaul every sent byte was copied, so
  /// copied/sent measures the fan-out savings directly.
  uint64_t payload_bytes_copied() const {
    return payload_bytes_copied_.load(std::memory_order_relaxed);
  }

  // ---- islands ----

  /// Pins a node name to an island: connection halves on that node and
  /// its accept events execute there. Setup-time only (before running).
  /// Unpinned nodes live on island 0.
  void set_node_island(const std::string& node, IslandId island);

  /// Island a node is pinned to (0 when unpinned).
  IslandId node_island(const std::string& node) const;

  /// Node names of every registered listener (deduplicated, sorted).
  /// Lets a scenario pin its whole service graph to an island without
  /// tracking each listen address itself.
  std::vector<std::string> listener_nodes() const;

  /// Decides the island of the *server half* for one dialed address,
  /// overriding the listener node's pin. `route_hint` (opaque to the
  /// network) is recorded on the connection for the accepting service —
  /// the frontier stores the shard index so routing is decided exactly
  /// once, at dial time. Must be deterministic given the meta. Setup and
  /// teardown only; an empty router removes the address's router.
  using IslandRouter =
      std::function<IslandId(const ConnectMeta& meta, uint32_t& route_hint)>;
  void set_island_router(const std::string& address, IslandRouter router);

  /// Smallest per-direction base latency any connection was created with
  /// (including the current default). Faults only ever *add* latency on
  /// top of this, so it is a valid conservative lookahead for the
  /// parallel executor.
  Time min_link_latency() const {
    Time seen = min_latency_seen_.load(std::memory_order_relaxed);
    return std::min(seen, default_latency_);
  }

  // ---- fault injection (usually driven via FaultPlan, netsim/fault.h) ----

  /// Node name of an address ("pg-1:5432" -> "pg-1") or container name.
  static std::string node_of(const std::string& address_or_name);

  /// Crashes / restarts a node. While down, connects to or from the node
  /// are refused; crash() additionally severs every live connection
  /// touching the node (both halves get on_close, in-flight bytes lost).
  /// Listener registrations survive — a restarted node serves again
  /// immediately, modelling a container restarting on the same address.
  ///
  /// Severing (crash, sever_node, partition) breaks both halves at once,
  /// so nothing in flight can reach a half whose owner is being torn
  /// down. It therefore touches halves on every island and must run from
  /// a sequential context: setup, a schedule_global_at event, or a
  /// 1-island loop.
  void crash_node(const std::string& node);
  void restart_node(const std::string& node);
  bool node_down(const std::string& node) const;

  /// Severs every live connection touching `node` without marking the
  /// node down — the teardown half of crash_node(), for a container that
  /// is stopped deliberately (its sockets die, but the node name is not
  /// refused for reuse).
  void sever_node(const std::string& node);

  /// Refuses new connections to one specific address (listener kept).
  void refuse_address(const std::string& address, bool refuse);

  /// Extra per-direction latency added to traffic touching `node`
  /// (latency spike). 0 clears.
  void set_node_extra_latency(const std::string& node, Time extra);

  /// One-sided stall: bytes *sent by* `node` before `until` are delivered
  /// no earlier than `until` (plus latency). Models a frozen-but-alive
  /// peer. `until <= now` clears.
  void stall_node_egress_until(const std::string& node, Time until);

  /// Partitions `group` from every other node: live cross-boundary
  /// connections are severed and new ones refused until heal_partition().
  /// A single partition is active at a time (the common two-way split).
  void partition(const std::set<std::string>& group);
  void heal_partition();

  /// True when traffic between the two nodes is currently possible.
  bool link_up(const std::string& a, const std::string& b) const;

  /// Fault adjustments applied to one transfer sent by `from_node` (extra
  /// latency of both endpoints plus any egress stall of the sender).
  Time fault_delay(const std::string& from_node,
                   const std::string& to_node) const;

  /// Live connections touching `node` (diagnostics and severing).
  size_t live_connections(const std::string& node);

 private:
  void sever_matching(
      const std::function<bool(const Connection&, const Connection&)>& pred);

  friend class Connection;

  Simulator& sim_;
  Time default_latency_;
  // Per-(caller-)island connection-id spaces keep id allocation
  // deterministic without cross-thread coordination: id =
  // island << 48 | island-local counter. With one island this reproduces
  // the historical dense 1,2,3,... sequence exactly.
  std::array<uint64_t, kMaxIslands> next_conn_local_{};
  std::atomic<uint64_t> conns_opened_{0};
  std::atomic<uint64_t> payload_bytes_sent_{0};
  std::atomic<uint64_t> payload_bytes_copied_{0};
  std::atomic<uint64_t> accepts_refused_{0};
  std::atomic<Time> min_latency_seen_{INT64_MAX};
  // Guards the maps that connect() (any island) and accept/listen events
  // (server islands) both touch. Never held while running user callbacks.
  // The fault-state containers below are NOT guarded: they are only
  // mutated by global events (all workers parked at a barrier) and read
  // during windows, which the barrier's acquire/release edges order.
  mutable std::mutex mu_;
  std::map<std::string, AcceptHandler> listeners_;
  std::map<std::string, size_t> accept_queue_depth_;  // 0/absent = unbounded
  std::map<std::string, size_t> pending_accepts_;
  std::map<std::string, IslandId> node_islands_;     // setup-time only
  std::map<std::string, IslandRouter> island_routers_;  // setup-time only
  std::vector<std::weak_ptr<Connection>> registry_;  // client halves
  std::set<std::string> down_nodes_;
  std::set<std::string> refused_addresses_;
  std::map<std::string, Time> extra_latency_;
  std::map<std::string, Time> stall_until_;
  bool partitioned_ = false;
  std::set<std::string> partition_group_;
};

}  // namespace rddr::sim
