#include "netsim/network.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace rddr::sim {

Connection::Connection(Network& net, uint64_t id, ConnectMeta meta,
                       std::string dialed_address, bool is_client_half)
    : sim_(net.simulator()),
      net_(net),
      id_(id),
      meta_(std::move(meta)),
      dialed_address_(std::move(dialed_address)),
      is_client_half_(is_client_half) {
  local_node_ = is_client_half_ ? Network::node_of(meta_.source)
                                : Network::node_of(dialed_address_);
}

const std::string& Connection::local_node() const { return local_node_; }

Time Connection::next_arrival() {
  auto peer = peer_.lock();
  const std::string& remote = peer ? peer->local_node_ : local_node_;
  Time lat = net_.default_latency() + net_.fault_delay(local_node_, remote);
  Time arrival = std::max(last_arrival_, sim_.now() + lat);
  last_arrival_ = arrival;
  return arrival;
}

void Connection::send(ByteView data) {
  if (!open_ || data.empty()) return;
  net_.payload_bytes_copied_.fetch_add(data.size(), std::memory_order_relaxed);
  send_shared(SharedBytes(data));
}

void Connection::send(SharedBytes data) {
  if (!open_ || data.empty()) return;
  send_shared(std::move(data));
}

void Connection::send_shared(SharedBytes data) {
  auto peer = peer_.lock();
  if (!peer) return;
  // Crashed or partitioned-away endpoints blackhole traffic. The
  // connection itself is severed separately; this guards the window
  // between the fault firing and the close delivery.
  if (!net_.link_up(local_node_, peer->local_node_)) return;
  net_.payload_bytes_sent_.fetch_add(data.size(), std::memory_order_relaxed);
  // FIFO per direction: never deliver earlier than a previous delivery.
  Time arrival = next_arrival();
  sim_.schedule_on(peer->island_, arrival,
                   [peer, data = std::move(data)]() mutable {
                     peer->deliver(std::move(data));
                   });
}

void Connection::close() {
  if (!open_) return;
  open_ = false;
  auto peer = peer_.lock();
  if (!peer) return;
  Time arrival = next_arrival();
  sim_.schedule_on(peer->island_, arrival, [peer] { peer->deliver_close(); });
}

void Connection::break_now() {
  open_ = false;
  aborted_ = true;
  pending_.clear();
  // deliver() drops data once aborted_ is set — even a delivery already
  // queued for this very tick, which would otherwise run before the
  // deliver_close scheduled here.
  auto self = shared_from_this();
  sim_.schedule_on(island_, sim_.now(), [self] { self->deliver_close(); });
}

void Connection::abort() {
  break_now();
  auto peer = peer_.lock();
  if (!peer) return;
  // The RST travels like data: one link latency later, after anything
  // already on the wire (FIFO watermark). That keeps the notification
  // outside the conservative window when the peer is on another island.
  Time arrival = next_arrival();
  sim_.schedule_on(peer->island_, arrival, [peer] {
    peer->open_ = false;
    peer->aborted_ = true;
    peer->pending_.clear();
    peer->deliver_close();
  });
}

void Connection::set_on_data(DataHandler h) {
  if (close_delivered_) return;  // never called again: drop it now
  on_data_ = std::move(h);
  if (!pending_.empty() || close_pending_) {
    auto self = shared_from_this();
    sim_.schedule_on(island_, sim_.now(), [self] { self->flush_pending(); });
  }
}

void Connection::set_on_close(CloseHandler h) {
  if (close_delivered_) return;
  on_close_ = std::move(h);
  if (close_pending_ && pending_.empty()) {
    auto self = shared_from_this();
    sim_.schedule_on(island_, sim_.now(), [self] { self->flush_pending(); });
  }
}

void Connection::deliver(SharedBytes data) {
  if (close_delivered_ || aborted_) return;
  if (pending_.empty() && on_data_) {
    // Nothing is queued ahead of it: straight to the handler.
    FlowScope flow_scope(this);
    hand_over(data.view());
    return;
  }
  pending_.push_back(std::move(data));
  flush_pending();
}

void Connection::deliver_close() {
  if (close_delivered_) return;
  open_ = false;
  close_pending_ = true;
  flush_pending();
}

void Connection::flush_pending() {
  if (close_delivered_) return;
  // While this half's handlers run, it is the ambient flow: connects they
  // issue derive their FlowContext (trace ids, execution index) from it.
  FlowScope flow_scope(this);
  if (!pending_.empty() && on_data_) {
    // Handler may re-enter (e.g. respond synchronously); keep state sane by
    // swapping out first.
    std::vector<SharedBytes> chunks;
    chunks.swap(pending_);
    if (chunks.size() == 1) {
      hand_over(chunks.front().view());  // zero-copy handoff
    } else {
      Bytes joined;
      size_t total = 0;
      for (const auto& c : chunks) total += c.size();
      joined.reserve(total);
      for (const auto& c : chunks) joined.append(c.view());
      hand_over(joined);
    }
  }
  if (!close_delivered_ && close_pending_ && pending_.empty()) {
    close_delivered_ = true;
    open_ = false;
    // Nothing is delivered to this half again, so it lets go of both
    // handlers. on_data is dropped only after on_close returns, and only
    // when no on_data frame of this half is running.
    CloseHandler on_close = std::exchange(on_close_, nullptr);
    DataHandler on_data;
    if (data_frames_ == 0) on_data = std::exchange(on_data_, nullptr);
    if (on_close) on_close();
  }
}

void Connection::hand_over(ByteView data) {
  ++data_frames_;
  on_data_(data);
  --data_frames_;
  // A nested frame delivered the close but could not release the handler
  // this frame was running; the outermost frame does.
  if (close_delivered_ && data_frames_ == 0) std::exchange(on_data_, nullptr);
}

void Connection::release_handlers() {
  // Each is emptied before its closure is destroyed, so a destructor that
  // reaches back into this half finds no handler.
  std::exchange(on_close_, nullptr);
  std::exchange(on_data_, nullptr);
}

Network::Network(Simulator& sim, Time default_latency)
    : sim_(sim), default_latency_(default_latency) {}

Network::~Network() {
  // Halves still open here (keep-alive sessions, proxy lanes) hold
  // handlers that hold the halves. Take the registry out first: dropping a
  // handler may run destructors that close other connections.
  std::vector<Registered> registry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry.swap(registry_);
  }
  for (const Registered& r : registry) {
    if (auto client = r.client.lock()) client->release_handlers();
    if (auto server = r.server.lock()) server->release_handlers();
  }
}

void Network::listen(const std::string& address, AcceptHandler on_accept) {
  std::lock_guard<std::mutex> lock(mu_);
  listeners_[address] = std::move(on_accept);
}

void Network::unlisten(const std::string& address) {
  std::lock_guard<std::mutex> lock(mu_);
  listeners_.erase(address);
}

bool Network::has_listener(const std::string& address) const {
  std::lock_guard<std::mutex> lock(mu_);
  return listeners_.count(address) > 0;
}

void Network::set_node_island(const std::string& node, IslandId island) {
  node_islands_[node] = island;
}

IslandId Network::node_island(const std::string& node) const {
  auto it = node_islands_.find(node);
  return it == node_islands_.end() ? 0 : it->second;
}

std::vector<std::string> Network::listener_nodes() const {
  std::vector<std::string> nodes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    nodes.reserve(listeners_.size());
    for (const auto& [address, fn] : listeners_) nodes.push_back(node_of(address));
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

void Network::set_island_router(const std::string& address,
                                IslandRouter router) {
  if (router) island_routers_[address] = std::move(router);
  else island_routers_.erase(address);
}

ConnPtr Network::connect(const std::string& address, ConnectMeta meta) {
  if (refused_addresses_.count(address) > 0) {
    RDDR_LOG_DEBUG("connect to %s refused (fault injected)", address.c_str());
    return nullptr;
  }
  std::string src_node = node_of(meta.source);
  std::string dst_node = node_of(address);
  if (node_down(src_node) || node_down(dst_node) ||
      !link_up(src_node, dst_node)) {
    RDDR_LOG_DEBUG("connect %s -> %s refused (node down or partitioned)",
                   src_node.c_str(), address.c_str());
    return nullptr;
  }
  // Ambient flow derivation: a connect() issued from inside another
  // connection's handlers (or a FlowScope a service re-installed around
  // deferred work) inherits that flow. Explicit fields win; only unset
  // ones are derived. The execution index is extended by one frame —
  // call site = (dialing node, dialed address), seq = that site's
  // invocation ordinal within the ambient connection's execution — which
  // is a pure function of simulated execution order, so the derived index
  // is byte-identical across island layouts and thread counts.
  if (Connection* amb = current_flow()) {
    const FlowContext& in = amb->flow();
    if (meta.flow.trace_id == 0) {
      meta.flow.trace_id = in.trace_id;
      meta.flow.parent_span = in.parent_span;
    }
    if (meta.flow.index.empty()) {
      const uint64_t site = ExecutionIndex::site_id(src_node, address);
      meta.flow.index = in.index.child(site, amb->next_child_seq(site));
    }
  }
  // Island placement (outside the lock: routers are user code). The
  // client half joins the dialing context's island; the server half
  // joins the listener node's island unless a router overrides it —
  // routing is decided here, at dial time, so both halves are born on
  // their final islands and never migrate.
  IslandId client_island = current_island();
  if (client_island >= sim_.island_count()) client_island = 0;
  IslandId server_island = node_island(dst_node);
  uint32_t route_hint = UINT32_MAX;
  auto rit = island_routers_.find(address);
  if (rit != island_routers_.end())
    server_island = rit->second(meta, route_hint);
  if (server_island >= sim_.island_count()) server_island = 0;
  if (!has_listener(address)) {
    RDDR_LOG_DEBUG("connect to %s refused (no listener)", address.c_str());
    return nullptr;
  }
  // Per-island id spaces (no cross-thread coordination; dense ids when
  // only island 0 exists).
  uint64_t id = (static_cast<uint64_t>(client_island) << 48) |
                ++next_conn_local_[client_island];
  conns_opened_.fetch_add(1, std::memory_order_relaxed);
  auto client = std::shared_ptr<Connection>(
      new Connection(*this, id, meta, address, /*is_client_half=*/true));
  auto server = std::shared_ptr<Connection>(
      new Connection(*this, id, meta, address, /*is_client_half=*/false));
  client->peer_ = server;
  server->peer_ = client;
  client->island_ = client_island;
  server->island_ = server_island;
  client->route_hint_ = route_hint;
  server->route_hint_ = route_hint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_.push_back({client, server});
    if (registry_.size() >= 2 * std::max<size_t>(registry_pruned_size_, 64)) {
      registry_.erase(std::remove_if(registry_.begin(), registry_.end(),
                                     [](const Registered& r) {
                                       return r.client.expired() &&
                                              r.server.expired();
                                     }),
                      registry_.end());
      registry_pruned_size_ = registry_.size();
    }
  }
  // Accept fires after one link latency, on the server half's island;
  // re-check the listener and fault state then so a service that stopped
  // (or crashed) in the meantime refuses cleanly.
  sim_.schedule_on(server_island, sim_.now() + default_latency_, [server] {
    Network& net = server->net_;
    const std::string& addr = server->dialed_address();
    AcceptHandler handler;
    {
      std::lock_guard<std::mutex> lock(net.mu_);
      auto lit = net.listeners_.find(addr);
      if (lit != net.listeners_.end()) handler = lit->second;
    }
    if (!handler || net.node_down(node_of(addr))) {
      server->close();
      return;
    }
    // Accept handlers run under the new connection's flow: dials they
    // issue while accepting nest under the inbound execution index.
    FlowScope flow_scope(server.get());
    handler(server);
  });
  return client;
}

// ---- fault injection ----

std::string Network::node_of(const std::string& address_or_name) {
  size_t colon = address_or_name.find(':');
  return colon == std::string::npos ? address_or_name
                                    : address_or_name.substr(0, colon);
}

void Network::sever_matching(
    const std::function<bool(const Connection&, const Connection&)>& pred) {
  // Collect first, break after: the pass below only schedules events, but
  // keeping it outside the registry walk leaves the walk side-effect free.
  // Only connections with both halves alive are severed; an entry is
  // pruned once both are gone (one live half still needs ~Network).
  std::vector<std::pair<ConnPtr, ConnPtr>> doomed;
  std::lock_guard<std::mutex> lock(mu_);
  registry_.erase(
      std::remove_if(registry_.begin(), registry_.end(),
                     [&](const Registered& r) {
                       auto c = r.client.lock();
                       auto peer = r.server.lock();
                       if (c && peer && pred(*c, *peer))
                         doomed.emplace_back(c, peer);
                       return !c && !peer;
                     }),
      registry_.end());
  // Both halves break now, unlike a client RST (abort()), whose peer hears
  // one latency later: the node being severed is going away, and a byte
  // still in flight toward its half must not be delivered into whatever
  // its handlers captured. Sequential contexts only (see network.h), so
  // touching a half on another island is safe.
  for (auto& [client, server] : doomed) {
    client->break_now();
    server->break_now();
  }
}

void Network::crash_node(const std::string& node) {
  down_nodes_.insert(node);
  RDDR_LOG_INFO("fault: node %s crashed", node.c_str());
  sever_node(node);
}

void Network::sever_node(const std::string& node) {
  sever_matching([&](const Connection& a, const Connection& b) {
    return a.local_node() == node || b.local_node() == node;
  });
}

void Network::restart_node(const std::string& node) {
  down_nodes_.erase(node);
  RDDR_LOG_INFO("fault: node %s restarted", node.c_str());
}

bool Network::node_down(const std::string& node) const {
  return down_nodes_.count(node) > 0;
}

void Network::refuse_address(const std::string& address, bool refuse) {
  if (refuse) refused_addresses_.insert(address);
  else refused_addresses_.erase(address);
}

void Network::set_node_extra_latency(const std::string& node, Time extra) {
  if (extra > 0) extra_latency_[node] = extra;
  else extra_latency_.erase(node);
}

void Network::stall_node_egress_until(const std::string& node, Time until) {
  if (until > sim_.now()) stall_until_[node] = until;
  else stall_until_.erase(node);
}

void Network::partition(const std::set<std::string>& group) {
  partitioned_ = true;
  partition_group_ = group;
  RDDR_LOG_INFO("fault: partition isolating %zu node(s)", group.size());
  sever_matching([&](const Connection& a, const Connection& b) {
    return group.count(a.local_node()) != group.count(b.local_node());
  });
}

void Network::heal_partition() {
  partitioned_ = false;
  partition_group_.clear();
  RDDR_LOG_INFO("fault: partition healed");
}

bool Network::link_up(const std::string& a, const std::string& b) const {
  if (node_down(a) || node_down(b)) return false;
  if (partitioned_ &&
      partition_group_.count(a) != partition_group_.count(b))
    return false;
  return true;
}

Time Network::fault_delay(const std::string& from_node,
                          const std::string& to_node) const {
  // No fault injected: every send of an unfaulted run takes this exit.
  if (extra_latency_.empty() && stall_until_.empty()) return 0;
  Time delay = 0;
  auto it = extra_latency_.find(from_node);
  if (it != extra_latency_.end()) delay += it->second;
  it = extra_latency_.find(to_node);
  if (it != extra_latency_.end()) delay += it->second;
  auto st = stall_until_.find(from_node);
  if (st != stall_until_.end() && st->second > sim_.now())
    delay += st->second - sim_.now();
  return delay;
}

size_t Network::live_connections(const std::string& node) {
  size_t n = 0;
  std::lock_guard<std::mutex> lock(mu_);
  registry_.erase(std::remove_if(registry_.begin(), registry_.end(),
                                 [&](const Registered& r) {
                                   auto c = r.client.lock();
                                   auto peer = r.server.lock();
                                   if (!c) return !peer;
                                   bool touches =
                                       c->local_node() == node ||
                                       (peer && peer->local_node() == node);
                                   if (touches && (c->is_open() ||
                                                   (peer && peer->is_open())))
                                     ++n;
                                   return false;
                                 }),
                  registry_.end());
  return n;
}

}  // namespace rddr::sim
