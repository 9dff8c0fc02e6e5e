#include "rddr/deployment.h"

namespace rddr::core {

NVersionDeployment::NVersionDeployment(sim::Network& net,
                                       sim::Host& proxy_host, Options options) {
  // Outgoing proxies first: instances may dial the backend as soon as the
  // incoming proxy forwards them traffic.
  for (auto& out_cfg : options.outgoing) {
    outgoing_.push_back(
        std::make_unique<OutgoingProxy>(net, proxy_host, out_cfg, &bus_));
  }
  incoming_ = std::make_unique<IncomingProxy>(net, proxy_host,
                                              options.incoming, &bus_);
  // After the proxies: their cross-proxy abort listeners run before the
  // observer sees a record.
  if (options.on_record) bus_.subscribe_records(options.on_record);
}

void NVersionDeployment::replace_instance(size_t i,
                                          const std::string& new_address) {
  incoming_->replace_instance(i, new_address);
  for (auto& out : outgoing_)
    out->replace_instance(i, sim::Network::node_of(new_address));
}

ProxyStats NVersionDeployment::aggregate_stats() const {
  ProxyStats total = incoming_->stats();
  for (const auto& out : outgoing_) total += out->stats();
  return total;
}

// ---- Builder ----

NVersionDeployment::Builder& NVersionDeployment::Builder::name(std::string n) {
  incoming_.name = std::move(n);
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::listen(
    std::string address) {
  incoming_.listen_address = std::move(address);
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::versions(
    std::vector<std::string> addresses) {
  incoming_.instance_addresses = std::move(addresses);
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::add_version(
    std::string address) {
  incoming_.instance_addresses.push_back(std::move(address));
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::plugin(
    std::shared_ptr<ProtocolPlugin> p) {
  incoming_.plugin = std::move(p);
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::filter_pair(
    bool on) {
  incoming_.filter_pair = on;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::variance(
    KnownVariance v) {
  incoming_.variance = std::move(v);
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::degradation(
    DegradationPolicy p) {
  incoming_.degradation = p;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::health(
    HealthTracker::Options h) {
  incoming_.health = h;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::unit_timeout(
    sim::Time t) {
  incoming_.unit_timeout = t;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::idle_timeout(
    sim::Time t) {
  incoming_.idle_timeout = t;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::path_quarantine(
    uint32_t threshold) {
  incoming_.path_quarantine_threshold = threshold;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::on_divergence(
    std::function<void(const DivergenceRecord&)> cb) {
  on_record_ = std::move(cb);
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::cpu_model(
    double cpu_per_unit, double cpu_per_byte) {
  incoming_.cpu_per_unit = cpu_per_unit;
  incoming_.cpu_per_byte = cpu_per_byte;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::signature_blocking(
    bool on, uint32_t threshold) {
  incoming_.signature_blocking = on;
  incoming_.signature_threshold = threshold;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::resync(
    ResyncOptions r) {
  incoming_.resync = std::move(r);
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::on_instance_dead(
    std::function<void(size_t, const std::string&)> fn) {
  incoming_.on_instance_dead = std::move(fn);
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::backend(
    std::string listen_address, std::string backend_address) {
  PendingBackend b;
  b.cfg.listen_address = std::move(listen_address);
  b.cfg.backend_address = std::move(backend_address);
  b.inherit = true;
  backends_.push_back(std::move(b));
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::backend(
    OutgoingProxy::Config cfg) {
  backends_.push_back(PendingBackend{std::move(cfg), /*inherit=*/false});
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::metrics(
    obs::MetricsRegistry* reg) {
  incoming_.metrics = reg;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::trace(
    obs::Tracer* tracer) {
  incoming_.tracer = tracer;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::faults(
    std::function<void(sim::FaultPlan&)> fn) {
  faults_ = std::move(fn);
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::shards(size_t s) {
  shards_ = s;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::admission(
    AdmissionOptions a) {
  admission_ = a;
  return *this;
}

NVersionDeployment::Builder& NVersionDeployment::Builder::shard_versions(
    std::vector<std::vector<std::string>> pools) {
  shard_versions_ = std::move(pools);
  if (!shard_versions_.empty()) shards_ = shard_versions_.size();
  return *this;
}

NVersionDeployment::Options NVersionDeployment::Builder::options() const {
  Options opts;
  opts.incoming = incoming_;
  opts.on_record = on_record_;
  for (const auto& b : backends_) {
    OutgoingProxy::Config cfg = b.cfg;
    if (b.inherit) {
      cfg.name = incoming_.name + "-out";
      cfg.plugin = incoming_.plugin;
      cfg.variance = incoming_.variance;
      cfg.filter_pair = incoming_.filter_pair;
      cfg.degradation = incoming_.degradation;
      cfg.health = incoming_.health;
      cfg.unit_timeout = incoming_.unit_timeout;
      cfg.group_size = incoming_.instance_addresses.size();
      // Instances dial the backend under their own container names.
      for (const auto& addr : incoming_.instance_addresses)
        cfg.instance_sources.push_back(sim::Network::node_of(addr));
    }
    // Sinks are deployment-wide either way: a backend() Config without its
    // own keeps the builder's.
    if (!cfg.metrics) cfg.metrics = incoming_.metrics;
    if (!cfg.tracer) cfg.tracer = incoming_.tracer;
    opts.outgoing.push_back(std::move(cfg));
  }
  return opts;
}

std::unique_ptr<NVersionDeployment> NVersionDeployment::Builder::build(
    sim::Network& net, sim::Host& proxy_host) const {
  auto d = std::make_unique<NVersionDeployment>(net, proxy_host, options());
  if (faults_) {
    d->fault_plan_ = std::make_unique<sim::FaultPlan>(net);
    faults_(*d->fault_plan_);
  }
  return d;
}

}  // namespace rddr::core
