// Plain TCP front proxy ("envoy" role in Fig 5): accepts connections,
// opens one backend connection each, and pipes bytes both ways. No
// replication, no diffing — it isolates the cost of simply being proxied,
// which is the baseline the paper compares RDDR against.
#pragma once

#include <string>

#include "netsim/host.h"
#include "netsim/network.h"

namespace rddr::services {

class TcpProxy {
 public:
  struct Options {
    std::string address;
    std::string backend_address;
    std::string name = "envoy";
  };

  TcpProxy(sim::Network& net, sim::Host& host, Options opts);
  ~TcpProxy();
  TcpProxy(const TcpProxy&) = delete;
  TcpProxy& operator=(const TcpProxy&) = delete;

  uint64_t bytes_relayed() const { return bytes_relayed_; }

 private:
  void on_accept(sim::ConnPtr conn);

  sim::Network& net_;
  sim::Host& host_;
  Options opts_;
  uint64_t bytes_relayed_ = 0;
};

}  // namespace rddr::services
