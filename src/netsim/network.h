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
// its own delivery event.
//
// Fault injection: the network additionally models node crashes, refused
// addresses, per-node latency spikes, one-sided egress stalls, and
// partitions (see netsim/fault.h for the virtual-clock scheduling layer).
// A "node" is the part of an address before the ':' — "pg-1" for the
// listener "pg-1:5432" — or a connecting container's ConnectMeta::source.
// Every fault is plain deterministic state on the Network, so seeded runs
// replay byte-identically with faults active.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
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
  ExecutionIndex index{};
};

/// Metadata attached to a connection at connect() time.
struct ConnectMeta {
  /// Name of the container/process opening the connection (diagnostics and
  /// outgoing-proxy grouping).
  std::string source;
  /// Flow identity: label, trace ids and execution index. Fields left at
  /// their defaults are auto-derived from the ambient flow (see above).
  FlowContext flow{};
};

/// One endpoint of a duplex byte-stream connection. Obtained from
/// Network::connect (client half) or a listener callback (server half).
/// Lifetime is shared between the two halves and any in-flight events.
///
/// Handler release: handlers usually capture session state that holds the
/// connection itself, a cycle that would keep both alive forever. So a
/// half drops its handlers once it can never call them again: when its
/// close is delivered (graceful close, the peer's RST from abort(), or a
/// sever), on_data is released after on_close returns; and when the
/// Network is destroyed, every half still alive drops both. Handlers set
/// on a half after its close was delivered are dropped at once. A data
/// handler that is still running when its own half's close is delivered
/// is released by its outermost frame as it unwinds, never mid-call.
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
  /// in handler execution order, which the simulator fixes. Used by
  /// Network::connect() when deriving a child execution index from the
  /// ambient flow.
  uint32_t next_child_seq(uint64_t site) { return child_seq_[site]++; }

  /// Address the client dialled (both halves see the same value).
  const std::string& dialed_address() const { return dialed_address_; }

  /// Unique id (diagnostics; stable within a simulation).
  uint64_t id() const { return id_; }

  /// Node this half runs on: the dialing container for the client half,
  /// the listener's node for the server half.
  const std::string& local_node() const;

  /// Routing decision of the dialed address's route hook, taken at
  /// connect() time (Network::set_route_hook); UINT32_MAX when no hook
  /// ran. The frontier uses this to trust the dial-time shard choice
  /// instead of re-deriving it at accept time.
  uint32_t route_hint() const { return route_hint_; }

  /// Resets the connection (the client-issued RST): this half sees
  /// on_close "now" and drops anything still in flight to it; the peer
  /// learns of the break one link latency later, like any other transfer,
  /// and drops whatever it had not yet received.
  void abort();

 private:
  friend class Network;

  Connection(Network& net, uint64_t id, ConnectMeta meta,
             std::string dialed_address, bool is_client_half);

  void send_shared(SharedBytes data);
  /// Marks this half broken and schedules its close at now(); data
  /// arriving afterwards is dropped.
  void break_now();
  void deliver(SharedBytes data);  // runs on the *receiving* half
  void deliver_close();            // runs on the *receiving* half
  void flush_pending();
  /// Runs on_data on `data`, releasing it afterwards if the close was
  /// delivered meanwhile.
  void hand_over(ByteView data);
  /// Drops both handlers (and whatever they captured).
  void release_handlers();
  Time next_arrival();  // FIFO watermark + fault adjustments

  Simulator& sim_;
  Network& net_;  // faults and byte counters consulted per send
  uint64_t id_;
  ConnectMeta meta_;
  std::string dialed_address_;
  bool is_client_half_;
  uint32_t route_hint_ = UINT32_MAX;
  std::string local_node_;   // cached node name for fault lookups
  std::weak_ptr<Connection> peer_;
  bool open_ = true;
  bool aborted_ = false;  // break observed "now"; drop same-tick arrivals
  bool close_delivered_ = false;
  bool close_pending_ = false;
  int data_frames_ = 0;  // on_data calls of this half now running
  Time last_arrival_ = 0;  // per-direction FIFO watermark (arrivals at peer)
  std::vector<SharedBytes> pending_;  // received, not yet handed to on_data
  // Per-site invocation counters for execution-index derivation.
  std::map<uint64_t, uint32_t> child_seq_;
  DataHandler on_data_;
  CloseHandler on_close_;
};

using ConnPtr = std::shared_ptr<Connection>;

namespace detail {
/// Ambient connection whose handlers are currently executing (nullptr
/// outside any handler).
inline Connection* g_current_flow = nullptr;
}  // namespace detail

/// Connection whose handlers are executing right now, or nullptr.
/// Network::connect() derives FlowContext defaults from it; services that
/// defer work off the handler stack (e.g. into a host task) re-install the
/// scope around the deferred body with FlowScope.
inline Connection* current_flow() { return detail::g_current_flow; }

/// RAII scope that makes `conn` the ambient flow.
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

  /// Releases the handlers of every connection half still alive, which
  /// frees the halves that only their own handlers kept alive.
  ~Network();

  /// Registers a listener for `address` (e.g. "minipg-0:5432"). Replaces any
  /// existing listener for the same address.
  void listen(const std::string& address, AcceptHandler on_accept);

  /// Removes a listener.
  void unlisten(const std::string& address);

  /// True if some listener is registered at `address`.
  bool has_listener(const std::string& address) const;

  /// Dials `address`. Returns the client half, or nullptr if nothing
  /// listens there (connection refused) or a fault refuses it. The
  /// listener's accept handler is invoked after one link latency with the
  /// server half; the accept backlog is unbounded.
  ConnPtr connect(const std::string& address, ConnectMeta meta = {});

  /// Link latency of each direction of every connection, fixed for the
  /// network's lifetime. Faults only ever add to it.
  Time default_latency() const { return default_latency_; }

  Simulator& simulator() { return sim_; }

  /// Total connections ever opened (diagnostics).
  uint64_t connections_opened() const { return conns_opened_; }

  /// Total payload bytes put on the wire by Connection::send (both
  /// overloads). Diagnostics for the copy-efficiency benchmarks.
  uint64_t payload_bytes_sent() const { return payload_bytes_sent_; }

  /// Payload bytes that were *copied* to enter the data plane — the
  /// send(ByteView) path. send(SharedBytes) moves none. Before the
  /// zero-copy overhaul every sent byte was copied, so
  /// copied/sent measures the fan-out savings directly.
  uint64_t payload_bytes_copied() const { return payload_bytes_copied_; }

  /// Dial-time route hook for one address: connect() calls it with the
  /// dial's (flow-derived) meta and records what it returns on both
  /// halves as Connection::route_hint(), opaque to the network. The
  /// frontier stores the shard index, so routing is decided exactly once,
  /// at dial time, against the health of that instant. Must be
  /// deterministic given the meta. An empty hook removes the address's.
  using RouteHook = std::function<uint32_t(const ConnectMeta& meta)>;
  void set_route_hook(const std::string& address, RouteHook hook);

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
  /// down.
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
  const Time default_latency_;
  uint64_t conns_opened_ = 0;  // also the last connection id (dense 1, 2, ...)
  uint64_t payload_bytes_sent_ = 0;
  uint64_t payload_bytes_copied_ = 0;
  std::map<std::string, AcceptHandler> listeners_;
  std::map<std::string, RouteHook> route_hooks_;
  // Both halves of every connection opened, pruned in connect() each time
  // the registry doubles (amortised O(1)). Order is connect order, which
  // fixes the order sever_matching breaks connections in.
  struct Registered {
    std::weak_ptr<Connection> client;
    std::weak_ptr<Connection> server;
  };
  std::vector<Registered> registry_;
  size_t registry_pruned_size_ = 0;  // registry_.size() after the last prune
  std::set<std::string> down_nodes_;
  std::set<std::string> refused_addresses_;
  std::map<std::string, Time> extra_latency_;
  std::map<std::string, Time> stall_until_;
  bool partitioned_ = false;
  std::set<std::string> partition_group_;
};

}  // namespace rddr::sim
