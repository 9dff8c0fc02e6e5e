// Container orchestration lite (the Kubernetes role in the paper).
//
// Provides the two orchestration features RDDR leans on (paper §IV-B):
// replicating containers from a base image (with per-container seeds, so
// "identical image" instances still have independent CSPRNG streams), and
// selecting versions by image tag (paper §V-D: "the deployed version can
// be changed by simply changing the specified version tag").
//
// Containers are type-erased: any service object can be deployed. The
// orchestrator also carries the bookkeeping for the deployment-cost
// arguments (Fig 1 / §VI): container counts and per-container host
// assignment.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netsim/block_device.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/simulator.h"

namespace rddr::services {

/// Everything a factory needs to instantiate a container.
struct ContainerSpec {
  std::string container_name;
  std::string image;
  std::string tag;      // version selector ("10.7", "1.13.2", "low", ...)
  std::string address;  // service address to bind
  sim::Host* host = nullptr;
  uint64_t rng_seed = 0;  // per-container randomness stream
};

class Orchestrator {
 public:
  using Factory =
      std::function<std::shared_ptr<void>(const ContainerSpec& spec)>;

  Orchestrator(sim::Simulator& sim, sim::Network& net, uint64_t seed = 1);

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return net_; }

  /// Adds a machine to the cluster.
  sim::Host& add_host(const std::string& name, int cores,
                      int64_t memory_bytes);
  sim::Host& host(const std::string& name);

  /// Registers an image by name; `tag` arrives via the spec.
  void register_image(const std::string& image, Factory factory);

  /// Deploys one container. Address defaults to "<name>:80" when empty.
  /// Throws std::runtime_error for unknown images/hosts/duplicate names.
  void deploy(const std::string& container_name, const std::string& image,
              const std::string& tag, const std::string& host_name,
              const std::string& address = "");

  /// Deploys N replicas "<base>-0".."<base>-N-1" from image:tag on the
  /// given host; addresses are "<base>-i:<port>". Returns the addresses.
  std::vector<std::string> deploy_replicas(const std::string& base_name,
                                           const std::string& image,
                                           const std::vector<std::string>& tags,
                                           const std::string& host_name,
                                           int port);

  /// Tears a container down (service object destroyed, listener freed).
  void stop(const std::string& container_name);

  /// Crash/restart semantics for fault experiments. `crash` destroys the
  /// service object (in-memory state lost, listener gone) AND marks the
  /// container's network node down, severing live connections with
  /// crash semantics (netsim abort). `restart` brings the node back and
  /// re-runs the image factory with the original spec, except that the
  /// rng_seed is re-derived per incarnation (base seed forked by restart
  /// count): a restarted process must not replay the randomness of its
  /// previous life, but the same crash/restart schedule still reproduces
  /// the same seeds.
  void crash(const std::string& container_name);
  void restart(const std::string& container_name);
  bool crashed(const std::string& container_name) const;

  /// Replaces a container with a freshly named replica of the same
  /// image:tag on the same host — the self-healing move for instances an
  /// RDDR proxy declared dead (restart is useless there: a compromised or
  /// diverged replica needs a new identity and a clean seed). The new
  /// container is "<base>-r<k>" (k increments per lineage; an existing
  /// -r<k> suffix is stripped first, so pg-1 → pg-1-r1 → pg-1-r2), bound
  /// to "<new name>:<old port>", with a fresh deterministic seed. The old
  /// container is stopped (its node restored if crashed). Returns the new
  /// container's address.
  std::string replace(const std::string& container_name);

  /// Persistent volume claim: a pair of block devices (data + WAL) owned
  /// by the orchestrator and keyed by container name. Unlike the service
  /// object, a volume survives crash/restart — that is what makes the
  /// durable-storage recovery path real: the restarted incarnation's
  /// image factory finds the previous life's blocks. A replacement
  /// container (new name) lazily gets a fresh, empty volume.
  struct Volume {
    std::shared_ptr<sim::BlockDevice> data;
    std::shared_ptr<sim::BlockDevice> wal;
  };

  /// Returns the container's volume, creating it (empty, deterministically
  /// seeded from the orchestrator seed and the name) on first use.
  Volume& volume(const std::string& container_name);

  /// Device template applied to volumes created after this call: fault
  /// probabilities and latencies for the chaos harness. (rng_seed is
  /// still derived per volume.)
  void set_volume_options(sim::BlockDevice::Options opts) {
    volume_template_ = opts;
  }

  /// Fetches the deployed service object (caller supplies the type).
  template <typename T>
  std::shared_ptr<T> get(const std::string& container_name) {
    auto it = containers_.find(container_name);
    if (it == containers_.end()) return nullptr;
    return std::static_pointer_cast<T>(it->second.object);
  }

  size_t container_count() const { return containers_.size(); }
  std::vector<std::string> container_names() const;

  /// Per-container memory/cpu attribution happens inside the services;
  /// this reports which host a container landed on.
  const std::string& host_of(const std::string& container_name) const;

 private:
  struct Deployed {
    std::shared_ptr<void> object;
    ContainerSpec spec;  // remembered so crash → restart can re-run the factory
    std::string host;
    bool crashed = false;
    uint64_t incarnation = 0;  // restarts so far (seed derivation input)
  };

  sim::Simulator& sim_;
  sim::Network& net_;
  uint64_t seed_;
  uint64_t next_container_ordinal_ = 1;
  std::map<std::string, std::unique_ptr<sim::Host>> hosts_;
  std::map<std::string, Factory> images_;
  std::map<std::string, Deployed> containers_;
  std::map<std::string, Volume> volumes_;
  sim::BlockDevice::Options volume_template_;
  /// Replacements per lineage base name ("pg-1" for pg-1, pg-1-r1, ...).
  std::map<std::string, uint64_t> replace_counts_;
};

}  // namespace rddr::services
