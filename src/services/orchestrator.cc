#include "services/orchestrator.h"

#include <stdexcept>

#include "common/rng.h"
#include "common/strutil.h"

namespace rddr::services {

Orchestrator::Orchestrator(sim::Simulator& sim, sim::Network& net,
                           uint64_t seed)
    : sim_(sim), net_(net), seed_(seed) {}

Orchestrator::Volume& Orchestrator::volume(const std::string& container_name) {
  auto it = volumes_.find(container_name);
  if (it != volumes_.end()) return it->second;
  Volume v;
  sim::BlockDevice::Options opts = volume_template_;
  opts.rng_seed = Rng(seed_).fork(fnv1a64(container_name)).next();
  v.data = std::make_shared<sim::BlockDevice>(opts);
  opts.rng_seed = Rng(opts.rng_seed).fork(0x57A1ULL).next();
  v.wal = std::make_shared<sim::BlockDevice>(opts);
  return volumes_.emplace(container_name, std::move(v)).first->second;
}

sim::Host& Orchestrator::add_host(const std::string& name, int cores,
                                  int64_t memory_bytes) {
  auto [it, inserted] = hosts_.emplace(
      name, std::make_unique<sim::Host>(sim_, name, cores, memory_bytes));
  if (!inserted) throw std::runtime_error("host already exists: " + name);
  return *it->second;
}

sim::Host& Orchestrator::host(const std::string& name) {
  auto it = hosts_.find(name);
  if (it == hosts_.end()) throw std::runtime_error("unknown host: " + name);
  return *it->second;
}

void Orchestrator::register_image(const std::string& image, Factory factory) {
  images_[image] = std::move(factory);
}

void Orchestrator::deploy(const std::string& container_name,
                          const std::string& image, const std::string& tag,
                          const std::string& host_name,
                          const std::string& address) {
  if (containers_.count(container_name) > 0)
    throw std::runtime_error("container already exists: " + container_name);
  auto img = images_.find(image);
  if (img == images_.end())
    throw std::runtime_error("unknown image: " + image);
  ContainerSpec spec;
  spec.container_name = container_name;
  spec.image = image;
  spec.tag = tag;
  spec.address = address.empty() ? container_name + ":80" : address;
  spec.host = &host(host_name);
  // Derive a unique, deterministic per-container seed.
  Rng mix(seed_);
  spec.rng_seed = mix.fork(next_container_ordinal_++).next() ^
                  std::hash<std::string>()(container_name);
  Deployed d;
  d.object = img->second(spec);
  d.spec = spec;
  d.host = host_name;
  containers_.emplace(container_name, std::move(d));
}

std::vector<std::string> Orchestrator::deploy_replicas(
    const std::string& base_name, const std::string& image,
    const std::vector<std::string>& tags, const std::string& host_name,
    int port) {
  std::vector<std::string> addresses;
  for (size_t i = 0; i < tags.size(); ++i) {
    std::string name = strformat("%s-%zu", base_name.c_str(), i);
    std::string address = strformat("%s:%d", name.c_str(), port);
    deploy(name, image, tags[i], host_name, address);
    addresses.push_back(address);
  }
  return addresses;
}

void Orchestrator::stop(const std::string& container_name) {
  auto it = containers_.find(container_name);
  if (it == containers_.end()) return;
  std::string node = sim::Network::node_of(it->second.spec.address);
  if (it->second.crashed) net_.restart_node(node);
  // A stopped container's sockets die with it: sever its connections
  // before destroying the object, or an in-flight delivery would land in
  // a handler that captures the freed service. (crash() already severs.)
  net_.sever_node(node);
  containers_.erase(container_name);
}

void Orchestrator::crash(const std::string& container_name) {
  auto it = containers_.find(container_name);
  if (it == containers_.end())
    throw std::runtime_error("unknown container: " + container_name);
  Deployed& d = it->second;
  if (d.crashed) return;
  d.crashed = true;
  d.object.reset();  // process gone: in-memory state and listener lost
  net_.crash_node(sim::Network::node_of(d.spec.address));
  // The volume survives, but anything staged and unsynced is subject to
  // the device fault model (torn pages, lost writes).
  auto vit = volumes_.find(container_name);
  if (vit != volumes_.end()) {
    vit->second.data->crash();
    vit->second.wal->crash();
  }
}

void Orchestrator::restart(const std::string& container_name) {
  auto it = containers_.find(container_name);
  if (it == containers_.end())
    throw std::runtime_error("unknown container: " + container_name);
  Deployed& d = it->second;
  if (!d.crashed) return;
  net_.restart_node(sim::Network::node_of(d.spec.address));
  // A fresh incarnation must not replay its previous life's randomness:
  // fork the base seed by the restart count (deterministic across runs,
  // distinct across incarnations). d.spec keeps the base seed.
  ++d.incarnation;
  ContainerSpec spec = d.spec;
  Rng remix(d.spec.rng_seed);
  spec.rng_seed = remix.fork(d.incarnation).next();
  d.object = images_.at(d.spec.image)(spec);
  d.crashed = false;
}

std::string Orchestrator::replace(const std::string& container_name) {
  auto it = containers_.find(container_name);
  if (it == containers_.end())
    throw std::runtime_error("unknown container: " + container_name);
  const Deployed& old = it->second;
  // Lineage base: strip an existing "-r<k>" suffix so repeated
  // replacement stays "<base>-r1", "<base>-r2", ... forever.
  std::string base = old.spec.container_name;
  size_t pos = base.rfind("-r");
  if (pos != std::string::npos && pos + 2 < base.size() &&
      base.find_first_not_of("0123456789", pos + 2) == std::string::npos)
    base = base.substr(0, pos);
  uint64_t k = ++replace_counts_[base];
  std::string new_name =
      strformat("%s-r%llu", base.c_str(), static_cast<unsigned long long>(k));
  size_t colon = old.spec.address.rfind(':');
  std::string port =
      colon == std::string::npos ? ":80" : old.spec.address.substr(colon);
  std::string new_address = new_name + port;
  std::string image = old.spec.image;
  std::string tag = old.spec.tag;
  std::string host_name = old.host;
  stop(container_name);  // restores the old node if it crashed
  deploy(new_name, image, tag, host_name, new_address);
  return new_address;
}

bool Orchestrator::crashed(const std::string& container_name) const {
  auto it = containers_.find(container_name);
  if (it == containers_.end())
    throw std::runtime_error("unknown container: " + container_name);
  return it->second.crashed;
}

std::vector<std::string> Orchestrator::container_names() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : containers_) out.push_back(name);
  return out;
}

const std::string& Orchestrator::host_of(
    const std::string& container_name) const {
  auto it = containers_.find(container_name);
  if (it == containers_.end())
    throw std::runtime_error("unknown container: " + container_name);
  return it->second.host;
}

}  // namespace rddr::services
