#include "rddr/frontier.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/strutil.h"

namespace rddr::core {

uint64_t hash_key(const std::string& key) {
  uint64_t h = fnv1a64(key);
  // Raw FNV-1a clusters badly on short structured keys ("shard-1#42",
  // "open-client-7"): ring arcs collapse and one shard can end up with no
  // keyspace at all. A 64-bit avalanche finalizer fixes the spread.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// ---- ConsistentHash ----

ConsistentHash::ConsistentHash(size_t shards, size_t vnodes_per_shard)
    : nshards_(shards), enabled_(shards, true) {
  ring_.reserve(shards * vnodes_per_shard);
  for (size_t s = 0; s < shards; ++s) {
    for (size_t v = 0; v < vnodes_per_shard; ++v) {
      ring_.emplace_back(
          hash_key("shard-" + std::to_string(s) + "#" + std::to_string(v)), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t ConsistentHash::route(const std::string& key) const {
  if (ring_.empty()) return nshards_;
  uint64_t h = hash_key(key);
  // First ring point clockwise from h (wrapping).
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<uint64_t, size_t>& e, uint64_t v) {
        return e.first < v;
      });
  size_t start = static_cast<size_t>(it - ring_.begin()) % ring_.size();
  for (size_t walked = 0; walked < ring_.size(); ++walked) {
    size_t shard = ring_[(start + walked) % ring_.size()].second;
    if (enabled_[shard]) return shard;
  }
  return nshards_;  // everything disabled
}

void ConsistentHash::set_shard_enabled(size_t shard, bool enabled) {
  enabled_.at(shard) = enabled;
}

// ---- Frontier ----

Frontier::Frontier(sim::Network& net, std::vector<sim::Host*> shard_hosts,
                   Options options)
    : net_(net),
      opts_(std::move(options)),
      metrics_(opts_.metrics ? opts_.metrics : &owned_metrics_),
      router_(opts_.shards.size()),
      admin_enabled_(opts_.shards.size(), true) {
  counters_.bind(*metrics_, opts_.name);
  offered_ = metrics_->counter(opts_.name + ".offered");
  shed_deadline_ = metrics_->counter(opts_.name + ".shed_deadline");
  shed_queue_full_ = metrics_->counter(opts_.name + ".shed_queue_full");
  shed_unroutable_ = metrics_->counter(opts_.name + ".shed_unroutable");
  if (opts_.plugin)
    overload_response_ = SharedBytes(opts_.plugin->overload_response());

  sim::Time now = net_.simulator().now();
  shard_state_.resize(opts_.shards.size());
  for (size_t k = 0; k < opts_.shards.size(); ++k) {
    NVersionDeployment::Options shard_opts = opts_.shards[k];
    // Shards never listen themselves: the frontier owns the only public
    // listener and hands connections over directly.
    shard_opts.incoming.listen_address.clear();
    shard_opts.incoming.on_load_change = [this, k] { schedule_drain(k); };
    if (!shard_opts.incoming.metrics) shard_opts.incoming.metrics = metrics_;
    if (!shard_opts.incoming.tracer) shard_opts.incoming.tracer = opts_.tracer;
    sim::Host* host = shard_hosts.empty()
                          ? nullptr
                          : shard_hosts[k % shard_hosts.size()];
    shards_.push_back(std::make_unique<NVersionDeployment>(
        net_, *host, std::move(shard_opts)));

    auto& st = shard_state_[k];
    st.tokens = opts_.admission.burst;  // buckets start full
    st.last_refill = now;
    const std::string p = opts_.name + ".s" + std::to_string(k);
    st.active_sessions = metrics_->gauge(p + ".active_sessions");
    st.admission_queue = metrics_->gauge(p + ".admission_queue");
  }

  net_.listen(opts_.listen_address,
              [this](sim::ConnPtr c) { on_accept(std::move(c)); });
  // The shard is decided at dial time so the server half of the
  // connection — and with it on_accept, the admission queue, and the
  // handoff — lives on the shard's island. on_accept trusts the recorded
  // hint, so the decision is made exactly once.
  net_.set_island_router(
      opts_.listen_address,
      [this](const sim::ConnectMeta& meta, uint32_t& hint) -> IslandId {
        size_t k = route_for_key(meta.source.empty() ? "anon" : meta.source);
        hint = static_cast<uint32_t>(k);
        return k < shards_.size() ? shard_island(k) : 0;
      });
}

Frontier::~Frontier() {
  net_.unlisten(opts_.listen_address);
  net_.set_island_router(opts_.listen_address, nullptr);
  for (auto& st : shard_state_) {
    if (st.token_wake_event) net_.simulator().cancel(st.token_wake_event);
    for (auto& w : st.queue) {
      if (w.shed_event) net_.simulator().cancel(w.shed_event);
      if (w.conn && w.conn->is_open()) w.conn->close();
    }
  }
}

size_t Frontier::route_for_key(const std::string& key) const {
  for (size_t k = 0; k < shards_.size(); ++k)
    router_.set_shard_enabled(k, shard_available(k));
  return router_.route(key);
}

size_t Frontier::route_of(const std::string& key) const {
  return route_for_key(key);
}

void Frontier::set_shard_enabled(size_t k, bool enabled) {
  admin_enabled_.at(k) = enabled;
}

bool Frontier::shard_available(size_t k) const {
  return admin_enabled_.at(k) &&
         shards_.at(k)->incoming().health().healthy_count() > 0;
}

ProxyStats Frontier::aggregate_stats() const {
  ProxyStats total = counters_.snapshot();
  for (const auto& s : shards_) total += s->aggregate_stats();
  return total;
}

uint64_t Frontier::divergences() const {
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->divergences();
  return n;
}

void Frontier::on_accept(sim::ConnPtr conn) {
  offered_->inc();
  // The dial-time router already picked the shard (and this callback runs
  // on that shard's island); re-deciding here could disagree with where
  // the connection landed. An unroutable dial carries hint >= shards.
  const size_t k = conn->route_hint();
  Waiting w;
  w.conn = std::move(conn);
  w.enqueued = net_.simulator().now();
  // The connection id is unique and already known on this island; a
  // frontier-global counter would race across shard islands.
  w.seq = w.conn->id();
  if (k >= shards_.size()) {
    shed(w, "unroutable", shed_unroutable_, -1);
    return;
  }
  auto& st = shard_state_[k];
  if (opts_.admission.queue_limit > 0 &&
      st.queue.size() >= opts_.admission.queue_limit) {
    shed(w, "queue_full", shed_queue_full_, static_cast<int>(k));
    return;
  }
  uint64_t seq = w.seq;
  w.shed_event =
      net_.simulator().schedule(opts_.admission.shed_deadline, [this, k, seq] {
        auto& q = shard_state_[k].queue;
        for (auto it = q.begin(); it != q.end(); ++it) {
          if (it->seq != seq) continue;
          Waiting doomed = std::move(*it);
          q.erase(it);
          doomed.shed_event = 0;
          shed(doomed, "deadline", shed_deadline_, static_cast<int>(k));
          update_gauges(k);
          return;
        }
      });
  st.queue.push_back(std::move(w));
  update_gauges(k);
  drain(k);
}

bool Frontier::try_admit(size_t k) {
  refill(k);
  const auto& adm = opts_.admission;
  auto& st = shard_state_[k];
  if (adm.rate_per_s > 0 && st.tokens < 1.0) return false;
  auto& in = shards_[k]->incoming();
  if (adm.max_sessions > 0 && in.active_sessions() >= adm.max_sessions)
    return false;
  if (adm.rate_per_s > 0) st.tokens -= 1.0;
  return true;
}

void Frontier::admit(size_t k, Waiting w) {
  counters_.admitted->inc();
  double waited_ms =
      static_cast<double>(net_.simulator().now() - w.enqueued) / 1e6;
  counters_.queued_ms->observe(waited_ms);
  shards_[k]->incoming().accept(std::move(w.conn));
}

void Frontier::shed(Waiting& w, const std::string& reason,
                    obs::Counter* reason_ctr, int shard) {
  counters_.shed->inc();
  if (reason_ctr) reason_ctr->inc();
  if (opts_.tracer) {
    // Stream per shard: sheds for different shards run on different
    // islands, and a shared stream's draw order would depend on how the
    // islands interleave.
    const std::string stream = shard >= 0
                                   ? opts_.name + ".shed.s" +
                                         std::to_string(shard)
                                   : opts_.name + ".shed";
    obs::TraceId t = w.conn && w.conn->flow().trace_id
                         ? w.conn->flow().trace_id
                         : opts_.tracer->id_stream(stream)->next_trace();
    obs::SpanId parent = w.conn ? w.conn->flow().parent_span : 0;
    obs::SpanId span = opts_.tracer->event(t, parent, "shed", opts_.name);
    opts_.tracer->tag(span, "reason", reason);
    if (shard >= 0) opts_.tracer->tag(span, "shard", std::to_string(shard));
  }
  if (w.conn && w.conn->is_open()) {
    if (!overload_response_.empty()) w.conn->send(overload_response_);
    w.conn->close();
  }
  RDDR_LOG_DEBUG("%s: shed connection (%s)", opts_.name.c_str(),
                 reason.c_str());
}

void Frontier::refill(size_t k) {
  auto& st = shard_state_[k];
  sim::Time now = net_.simulator().now();
  if (opts_.admission.rate_per_s > 0 && now > st.last_refill) {
    double secs = static_cast<double>(now - st.last_refill) / 1e9;
    st.tokens = std::min(opts_.admission.burst,
                         st.tokens + secs * opts_.admission.rate_per_s);
  }
  st.last_refill = now;
}

void Frontier::drain(size_t k) {
  auto& st = shard_state_[k];
  while (!st.queue.empty() && try_admit(k)) {
    Waiting w = std::move(st.queue.front());
    st.queue.pop_front();
    if (w.shed_event) {
      net_.simulator().cancel(w.shed_event);
      w.shed_event = 0;
    }
    admit(k, std::move(w));
  }
  update_gauges(k);
  // Still waiting purely on tokens? Wake exactly when the next one lands.
  if (!st.queue.empty() && opts_.admission.rate_per_s > 0 &&
      st.tokens < 1.0 && st.token_wake_event == 0) {
    st.token_wake_event =
        net_.simulator().schedule(time_to_next_token(st), [this, k] {
          shard_state_[k].token_wake_event = 0;
          drain(k);
        });
  }
}

void Frontier::schedule_drain(size_t k) {
  // on_load_change may fire mid-pump; coalesce and defer to a fresh event.
  auto& st = shard_state_[k];
  update_gauges(k);
  if (st.queue.empty() || st.drain_scheduled) return;
  st.drain_scheduled = true;
  net_.simulator().schedule(0, [this, k] {
    shard_state_[k].drain_scheduled = false;
    drain(k);
  });
}

void Frontier::update_gauges(size_t k) {
  auto& st = shard_state_[k];
  st.active_sessions->set(
      static_cast<double>(shards_[k]->incoming().active_sessions()));
  st.admission_queue->set(static_cast<double>(st.queue.size()));
}

sim::Time Frontier::time_to_next_token(const ShardState& st) const {
  double needed = 1.0 - st.tokens;
  double secs = needed / opts_.admission.rate_per_s;
  auto dt = static_cast<sim::Time>(std::ceil(secs * 1e9));
  return dt > 0 ? dt : 1;
}

// ---- Builder::build_frontier ----

namespace {
/// "backend:5432" -> "backend-s2:5432": per-shard backend listener so S
/// outgoing proxies don't fight over one address.
std::string shard_suffixed(const std::string& address, size_t k) {
  size_t colon = address.find(':');
  std::string suffix = "-s" + std::to_string(k);
  if (colon == std::string::npos) return address + suffix;
  return address.substr(0, colon) + suffix + address.substr(colon);
}
}  // namespace

std::unique_ptr<Frontier> NVersionDeployment::Builder::build_frontier(
    sim::Network& net, sim::Host& proxy_host) const {
  return build_frontier(net, std::vector<sim::Host*>{&proxy_host});
}

std::unique_ptr<Frontier> NVersionDeployment::Builder::build_frontier(
    sim::Network& net, const std::vector<sim::Host*>& shard_hosts) const {
  Frontier::Options fo;
  fo.listen_address = incoming_.listen_address;
  fo.name = incoming_.name;
  fo.admission = admission_;
  fo.plugin = incoming_.plugin;
  fo.metrics = incoming_.metrics;
  fo.tracer = incoming_.tracer;
  size_t S = shard_versions_.empty() ? std::max<size_t>(1, shards_)
                                     : shard_versions_.size();
  if (islands_ > 1)
    net.simulator().configure_islands(islands_, net.default_latency());
  for (size_t k = 0; k < S; ++k) {
    Builder per = *this;
    per.incoming_.name = incoming_.name + "-s" + std::to_string(k);
    per.incoming_.listen_address.clear();
    if (!shard_versions_.empty())
      per.incoming_.instance_addresses = shard_versions_[k];
    // Each shard's pool dials its own backend listener; scenarios with
    // per-shard pools point instance k's backend address at the suffixed
    // name (shared-pool deployments usually have no backend() at all).
    for (auto& b : per.backends_)
      b.cfg.listen_address = shard_suffixed(b.cfg.listen_address, k);
    // Shards sharing a host share its island (the host's completion
    // events run there); island 0 is reserved for the public listener and
    // the driver, so shards spread over 1..islands-1.
    const size_t h = shard_hosts.empty() ? 0 : k % shard_hosts.size();
    const IslandId isl =
        islands_ <= 1 ? 0 : static_cast<IslandId>(1 + h % (islands_ - 1));
    fo.shard_islands.push_back(isl);
    if (h < shard_hosts.size()) shard_hosts[h]->pin_island(isl);
    for (const auto& a : per.incoming_.instance_addresses)
      net.set_node_island(sim::Network::node_of(a), isl);
    for (const auto& b : per.backends_)
      net.set_node_island(sim::Network::node_of(b.cfg.listen_address), isl);
    fo.shards.push_back(per.options());
  }
  return std::make_unique<Frontier>(net, shard_hosts, std::move(fo));
}

}  // namespace rddr::core
