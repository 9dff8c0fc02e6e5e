#include "workloads/harness.h"

#include "common/strutil.h"
#include "rddr/rddr.h"
#include "services/tcp_proxy.h"
#include "workloads/pgbench.h"

namespace rddr::workloads {

Replicas start_replicas(sim::Network& net, int count, const Dataset& data,
                        sqldb::SqlServer::Options options,
                        const std::vector<sim::Host*>& hosts,
                        const std::string& prefix) {
  Replicas r;
  const uint64_t seed0 = options.rng_seed;
  for (int i = 0; i < count; ++i) {
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
    if (const auto* pg = std::get_if<Pgbench>(&data))
      load_pgbench(*db, pg->accounts, 9);
    else
      load_tpch(*db, std::get<TpchScale>(data), 42);
    options.address = strformat("%s-%d:5432", prefix.c_str(), i);
    options.rng_seed = seed0 + static_cast<uint64_t>(i);
    sim::Host& host = *hosts[static_cast<size_t>(i) % hosts.size()];
    r.servers.push_back(
        std::make_unique<sqldb::SqlServer>(net, host, db, options));
    r.addresses.push_back(options.address);
  }
  return r;
}

Fig5Point run_fig5_point(Fig5Front front, int clients) {
  constexpr int kAccounts = 20000;
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host host(simulator, "server", 32, 128LL << 30);

  sqldb::SqlServer::Options so;
  so.cpu_per_query = 2e-3;  // models the paper's SF-100 SELECT
  so.cpu_per_row = 0;
  so.rng_seed = 20;
  Replicas replicas = start_replicas(net, front == Fig5Front::kRddr ? 3 : 1,
                                     Pgbench{kAccounts}, so, {&host});

  std::unique_ptr<services::TcpProxy> envoy;
  std::unique_ptr<core::NVersionDeployment> rddr;
  std::string address = replicas.addresses[0];
  if (front == Fig5Front::kEnvoy) {
    services::TcpProxy::Options po;
    po.address = "front:5432";
    po.backend_address = address;
    envoy = std::make_unique<services::TcpProxy>(net, host, po);
    address = po.address;
  } else if (front == Fig5Front::kRddr) {
    rddr = core::NVersionDeployment::Builder()
               .listen("front:5432")
               .versions(replicas.addresses)
               .plugin(std::make_shared<core::PgPlugin>())
               .filter_pair(true)
               .cpu_model(kPaperProxyCpu.per_unit_s, kPaperProxyCpu.per_byte_s)
               .build(net, host);
    address = "front:5432";
  }

  ClientPoolOptions opts;
  opts.address = address;
  opts.clients = clients;
  opts.transactions_per_client = kFig5TxPerClient;
  opts.seed = 5;
  opts.next_query = [](Rng& rng, int, int) {
    return pgbench_select_tx(rng, kAccounts);
  };
  Fig5Point p;
  p.pool = run_client_pool(simulator, net, opts);
  p.payload_bytes_sent = net.payload_bytes_sent();
  p.payload_bytes_copied = net.payload_bytes_copied();
  return p;
}

}  // namespace rddr::workloads
