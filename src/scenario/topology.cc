#include "scenario/topology.h"

#include <utility>

#include "common/strutil.h"
#include "proto/http/message.h"
#include "rddr/plugins.h"
#include "sqldb/client.h"
#include "workloads/pgbench.h"

namespace rddr::scenario {

namespace {

// Version tags per pool: slots 0/1 are the identical-image filter pair,
// slot 2 the diverse version. The per-version build stamps below are
// keyed by tag, so the pair always agrees on them and the diverse
// instance always differs — deterministic benign variance for the miner.
constexpr const char* kPgPairTag = "13.0";
constexpr const char* kPgDiverseTag = "10.7";
constexpr const char* kHttpPairTag = "2.4.1";
constexpr const char* kHttpDiverseTag = "2.5.0";

std::string build_stamp(const std::string& tag) { return "build-" + tag; }

std::string secret_for(const std::string& tag, uint64_t seed) {
  return strformat("%s%s-%06llx", kSecretMarker, tag.c_str(),
                   static_cast<unsigned long long>(
                       (seed * 0x9e3779b97f4a7c15ULL) & 0xffffff));
}

// Lenient framing for the diverse HTTP app instance: recognises
// "\x0bchunked" as chunked and tolerates duplicate Content-Length — the
// parser-diversity levers behind the smuggling mutation families.
http::ParserOptions lenient_parser() {
  http::ParserOptions p;
  p.te_whitespace = http::TeWhitespace::kAnyWhitespace;
  p.reject_duplicate_cl = false;
  return p;
}

}  // namespace

const char* Topology::kind_name(int kind) {
  switch (kind) {
    case 0: return "pg-direct";
    case 1: return "http-fanout";
    case 2: return "http-diamond-pg";
  }
  return "?";
}

Topology::Topology(sim::Simulator& sim, sim::Network& net,
                   TopologyOptions opts)
    : sim_(sim), net_(net), opts_(std::move(opts)),
      rng_(opts_.seed ^ 0x70b01057ULL) {
  desc_ = strformat("topology %s seed %llu\n", kind_name(opts_.kind),
                    static_cast<unsigned long long>(opts_.seed));
  switch (opts_.kind) {
    case 0: build_pg_direct(); break;
    case 1: build_http_fanout(); break;
    case 2: build_http_diamond(); break;
    default: build_pg_direct(); break;
  }
}

Topology::~Topology() = default;

void Topology::sample_latency(const std::string& node) {
  const sim::Time extra =
      20 * sim::kMicrosecond +
      static_cast<sim::Time>(rng_.next() % (180ULL * sim::kMicrosecond));
  net_.set_node_extra_latency(node, extra);
  desc_ += strformat("  %s +%lldus\n", node.c_str(),
                     static_cast<long long>(extra / sim::kMicrosecond));
}

std::vector<std::string> Topology::make_pg_pool(const std::string& base,
                                                sim::Host& host) {
  const char* tags[3] = {kPgPairTag, kPgPairTag, kPgDiverseTag};
  std::vector<std::string> addresses;
  for (size_t i = 0; i < 3; ++i) {
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info(tags[i]));
    workloads::load_pgbench(*db, accounts_, /*seed=*/9);
    // Version-keyed secret: the pair shares one value, the diverse
    // instance holds another, so any response carrying it diverges and
    // is blocked under kStrict — the leak invariant's tripwire.
    auto* t = db->create_table(
        "secret_t", {{"k", sqldb::Type::kInt}, {"s", sqldb::Type::kText}});
    t->rows.push_back({sqldb::Datum::integer(1),
                       sqldb::Datum::text(secret_for(tags[i], opts_.seed))});
    dbs_.push_back(db);

    sqldb::SqlServer::Options so;
    so.address = strformat("%s-%zu:5432", base.c_str(), i);
    so.rng_seed = rng_.fork(0x9000 + i).next();
    so.startup_params = {{"build_sha", build_stamp(tags[i])}};
    sql_servers_.push_back(
        std::make_unique<sqldb::SqlServer>(net_, host, db, so));
    addresses.push_back(so.address);
    backend_nodes_.push_back(strformat("%s-%zu", base.c_str(), i));
    sample_latency(backend_nodes_.back());
  }
  desc_ += strformat("  pool %s: %s %s %s\n", base.c_str(), tags[0],
                     tags[1], tags[2]);
  return addresses;
}

void Topology::build_pg_direct() {
  hosts_.push_back(std::make_unique<sim::Host>(sim_, "db-host", 8, 8LL << 30));
  hosts_.push_back(
      std::make_unique<sim::Host>(sim_, "proxy-host", 4, 4LL << 30));
  std::vector<std::string> addresses = make_pg_pool("pg", *hosts_[0]);

  entry_ = "front:5432";
  entry_dep_ = core::NVersionDeployment::Builder()
                   .name("edge-pg")
                   .listen(entry_)
                   .versions(addresses)
                   .plugin(std::make_shared<core::PgPlugin>())
                   .filter_pair(true)
                   .degradation(core::DegradationPolicy::kStrict)
                   .variance(opts_.variance)
                   .unit_timeout(opts_.unit_timeout)
                   .idle_timeout(opts_.idle_timeout)
                   .on_divergence(opts_.on_divergence)
                   .build(net_, *hosts_[1]);
}

void Topology::build_http_fanout() {
  hosts_.push_back(
      std::make_unique<sim::Host>(sim_, "leaf-host", 8, 8LL << 30));
  hosts_.push_back(std::make_unique<sim::Host>(sim_, "app-host", 8, 8LL << 30));
  hosts_.push_back(
      std::make_unique<sim::Host>(sim_, "front-host", 4, 4LL << 30));

  // Shared, unprotected leaf tier: deterministic content keyed by
  // (leaf, path) with a sampled per-leaf payload size, so every app
  // instance aggregates identical leaf data.
  fanout_ = 2 + rng_.next() % 3;  // K in [2, 4]
  std::vector<std::string> leaf_addrs;
  for (size_t k = 0; k < fanout_; ++k) {
    services::HttpServer::Options lo;
    lo.address = strformat("leaf-%zu:80", k);
    const size_t payload = 40 + rng_.next() % 400;
    desc_ += strformat("  leaf-%zu payload %zu\n", k, payload);
    auto leaf =
        std::make_unique<services::HttpServer>(net_, *hosts_[0], lo);
    leaf->set_handler([k, payload](const http::Request& req,
                                   services::Responder respond) {
      Bytes body = strformat("leaf-%zu %s ", k, req.target.c_str());
      while (body.size() < payload)
        body += strformat("%02zx", (body.size() * 31 + k) & 0xff);
      respond(http::make_response(200, body, "text/plain"));
    });
    http_servers_.push_back(std::move(leaf));
    leaf_addrs.push_back(lo.address);
    backend_nodes_.push_back(strformat("leaf-%zu", k));
    sample_latency(backend_nodes_.back());
  }

  // Protected app tier: pair + diverse parser/build, each instance
  // fanning every /work request out to all K leaves.
  const char* tags[3] = {kHttpPairTag, kHttpPairTag, kHttpDiverseTag};
  std::vector<std::string> app_addrs;
  for (size_t i = 0; i < 3; ++i) {
    services::HttpServer::Options ao;
    ao.address = strformat("app-%zu:80", i);
    if (i == 2) ao.parser = lenient_parser();
    auto app = std::make_unique<services::HttpServer>(net_, *hosts_[1], ao);
    auto client = std::make_unique<services::HttpClient>(
        net_, strformat("app-%zu", i));
    services::HttpClient* cp = client.get();
    const std::string stamp = build_stamp(tags[i]);
    const std::string secret = secret_for(tags[i], opts_.seed);
    app->set_handler([cp, leaf_addrs, stamp, secret](
                         const http::Request& req,
                         services::Responder respond) {
      if (req.target == "/secret") {
        http::Response r = http::make_response(200, secret, "text/plain");
        r.headers.set("X-Backend-Build", stamp);
        respond(r);
        return;
      }
      if (!req.target.starts_with("/work/")) {
        http::Response r = http::make_response(404, "not here");
        r.headers.set("X-Backend-Build", stamp);
        respond(r);
        return;
      }
      struct Fan {
        size_t remaining;
        std::vector<std::string> parts;
      };
      auto fan = std::make_shared<Fan>();
      fan->remaining = leaf_addrs.size();
      fan->parts.resize(leaf_addrs.size());
      const std::string sub = "/data" + req.target.substr(5);
      for (size_t k = 0; k < leaf_addrs.size(); ++k) {
        cp->get(leaf_addrs[k], sub,
                [fan, k, respond, stamp](int status,
                                         const http::Response* lr) {
                  fan->parts[k] =
                      status > 0 && lr
                          ? strformat("leaf%zu=%016llx", k,
                                      static_cast<unsigned long long>(
                                          fnv1a64(lr->body)))
                          : strformat("leaf%zu=err", k);
                  if (--fan->remaining > 0) return;
                  Bytes body;
                  for (const std::string& p : fan->parts)
                    body += p + "\n";
                  http::Response r =
                      http::make_response(200, body, "text/plain");
                  r.headers.set("X-Backend-Build", stamp);
                  respond(r);
                });
      }
    });
    http_servers_.push_back(std::move(app));
    http_clients_.push_back(std::move(client));
    app_addrs.push_back(ao.address);
    backend_nodes_.push_back(strformat("app-%zu", i));
    sample_latency(backend_nodes_.back());
  }
  desc_ += strformat("  apps: %s %s %s, fan-out %zu\n", tags[0], tags[1],
                     tags[2], fanout_);

  entry_ = "front:80";
  frontier_ = core::NVersionDeployment::Builder()
                  .name("edge-http")
                  .listen(entry_)
                  .versions(app_addrs)
                  .plugin(std::make_shared<core::HttpPlugin>())
                  .filter_pair(true)
                  .degradation(core::DegradationPolicy::kStrict)
                  .variance(opts_.variance)
                  .unit_timeout(opts_.unit_timeout)
                  .idle_timeout(opts_.idle_timeout)
                  .on_divergence(opts_.on_divergence)
                  .shards(2)
                  .build_frontier(net_, *hosts_[2]);
}

void Topology::build_http_diamond() {
  hosts_.push_back(std::make_unique<sim::Host>(sim_, "db-host", 8, 8LL << 30));
  hosts_.push_back(std::make_unique<sim::Host>(sim_, "mid-host", 8, 8LL << 30));
  hosts_.push_back(std::make_unique<sim::Host>(sim_, "app-host", 8, 8LL << 30));
  hosts_.push_back(
      std::make_unique<sim::Host>(sim_, "proxy-host", 4, 4LL << 30));
  hosts_.push_back(
      std::make_unique<sim::Host>(sim_, "inner-proxy-host", 4, 4LL << 30));

  // Inner protected edge: shared pgwire RDDR deployment both mids dial.
  std::vector<std::string> pg_addrs = make_pg_pool("pg", *hosts_[0]);
  inner_dep_ = core::NVersionDeployment::Builder()
                   .name("edge-inner-pg")
                   .listen("inner:5432")
                   .versions(pg_addrs)
                   .plugin(std::make_shared<core::PgPlugin>())
                   .filter_pair(true)
                   .degradation(core::DegradationPolicy::kStrict)
                   .variance(opts_.variance)
                   .unit_timeout(opts_.unit_timeout)
                   .idle_timeout(opts_.idle_timeout)
                   .on_divergence(opts_.on_divergence)
                   .build(net_, *hosts_[4]);

  // Shared mid tier (the diamond's waist): one pg session per request
  // through the inner edge. Responses depend only on stable table state,
  // so every app instance sees identical mid output.
  const int accounts = accounts_;
  for (size_t k = 0; k < 2; ++k) {
    services::HttpServer::Options mo;
    mo.address = strformat("mid-%zu:80", k);
    auto mid = std::make_unique<services::HttpServer>(net_, *hosts_[1], mo);
    sim::Network* netp = &net_;
    mid->set_handler([netp, k, accounts](const http::Request& req,
                                         services::Responder respond) {
      std::string sql;
      if (req.target.starts_with("/sum/")) {
        int n = std::atoi(req.target.c_str() + 5);
        sql = strformat(
            "SELECT abalance FROM pgbench_accounts WHERE aid = %d",
            n % accounts + 1);
      } else if (req.target.starts_with("/secret/")) {
        sql = "SELECT s FROM secret_t WHERE k = 1";
      } else {
        respond(http::make_response(404, "not here"));
        return;
      }
      auto pgc = std::make_shared<sqldb::PgClient>(
          *netp, strformat("mid-%zu", k), "inner:5432", "postgres");
      pgc->query(sql, [pgc, respond, k](sqldb::QueryOutcome o) {
        Bytes body;
        if (o.failed() || o.rows.empty() || o.rows[0].empty() ||
            !o.rows[0][0]) {
          body = strformat("mid%zu err\n", k);
        } else {
          body = strformat("mid%zu val=%s\n", k, o.rows[0][0]->c_str());
        }
        respond(http::make_response(200, body, "text/plain"));
        pgc->close();
      });
    });
    http_servers_.push_back(std::move(mid));
    backend_nodes_.push_back(strformat("mid-%zu", k));
    sample_latency(backend_nodes_.back());
  }

  // Protected app tier: diamond fan-out to both mids.
  const char* tags[3] = {kHttpPairTag, kHttpPairTag, kHttpDiverseTag};
  std::vector<std::string> app_addrs;
  for (size_t i = 0; i < 3; ++i) {
    services::HttpServer::Options ao;
    ao.address = strformat("app-%zu:80", i);
    if (i == 2) ao.parser = lenient_parser();
    auto app = std::make_unique<services::HttpServer>(net_, *hosts_[2], ao);
    auto client = std::make_unique<services::HttpClient>(
        net_, strformat("app-%zu", i));
    services::HttpClient* cp = client.get();
    const std::string stamp = build_stamp(tags[i]);
    const std::string secret = secret_for(tags[i], opts_.seed);
    app->set_handler([cp, stamp, secret](const http::Request& req,
                                         services::Responder respond) {
      if (req.target == "/secret") {
        http::Response r = http::make_response(200, secret, "text/plain");
        r.headers.set("X-Backend-Build", stamp);
        respond(r);
        return;
      }
      std::string t0, t1;
      if (req.target.starts_with("/work/")) {
        const std::string n = req.target.substr(6);
        t0 = "/sum/" + n;
        t1 = "/sum/" + std::to_string(std::atoi(n.c_str()) + 7);
      } else if (req.target.starts_with("/dbsecret")) {
        t0 = "/secret/1";
        t1 = "/sum/1";
      } else {
        http::Response r = http::make_response(404, "not here");
        r.headers.set("X-Backend-Build", stamp);
        respond(r);
        return;
      }
      struct Fan {
        size_t remaining = 2;
        std::string parts[2];
      };
      auto fan = std::make_shared<Fan>();
      auto arm = [cp, fan, respond, stamp](size_t idx,
                                           const std::string& addr,
                                           const std::string& target) {
        cp->get(addr, target,
                [fan, idx, respond, stamp](int status,
                                           const http::Response* mr) {
                  fan->parts[idx] = status > 0 && mr
                                        ? std::string(mr->body)
                                        : std::string("err\n");
                  if (--fan->remaining > 0) return;
                  http::Response r = http::make_response(
                      200, fan->parts[0] + fan->parts[1], "text/plain");
                  r.headers.set("X-Backend-Build", stamp);
                  respond(r);
                });
      };
      arm(0, "mid-0:80", t0);
      arm(1, "mid-1:80", t1);
    });
    http_servers_.push_back(std::move(app));
    http_clients_.push_back(std::move(client));
    app_addrs.push_back(ao.address);
    backend_nodes_.push_back(strformat("app-%zu", i));
    sample_latency(backend_nodes_.back());
  }
  desc_ += strformat("  apps: %s %s %s over 2 mids\n", tags[0], tags[1],
                     tags[2]);

  entry_ = "front:80";
  entry_dep_ = core::NVersionDeployment::Builder()
                   .name("edge-http")
                   .listen(entry_)
                   .versions(app_addrs)
                   .plugin(std::make_shared<core::HttpPlugin>())
                   .filter_pair(true)
                   .degradation(core::DegradationPolicy::kStrict)
                   .variance(opts_.variance)
                   .unit_timeout(opts_.unit_timeout)
                   .idle_timeout(opts_.idle_timeout)
                   .on_divergence(opts_.on_divergence)
                   .build(net_, *hosts_[3]);
}

core::ProxyStats Topology::stats() const {
  core::ProxyStats s;
  if (entry_dep_) s += entry_dep_->aggregate_stats();
  if (inner_dep_) s += inner_dep_->aggregate_stats();
  if (frontier_)
    for (size_t k = 0; k < frontier_->shard_count(); ++k)
      s += frontier_->shard(k).aggregate_stats();
  return s;
}

size_t Topology::active_sessions() const {
  size_t n = 0;
  if (entry_dep_) n += entry_dep_->incoming().active_sessions();
  if (inner_dep_) n += inner_dep_->incoming().active_sessions();
  if (frontier_)
    for (size_t k = 0; k < frontier_->shard_count(); ++k)
      n += frontier_->shard(k).incoming().active_sessions();
  return n;
}

uint64_t Topology::divergences() const {
  uint64_t n = 0;
  if (entry_dep_) n += entry_dep_->divergences();
  if (inner_dep_) n += inner_dep_->divergences();
  if (frontier_)
    for (size_t k = 0; k < frontier_->shard_count(); ++k)
      n += frontier_->shard(k).divergences();
  return n;
}

std::string Topology::describe() const { return desc_; }

std::string Topology::benign_request(size_t i, Rng& rng) const {
  if (pg_entry()) return workloads::pgbench_select_tx(rng, accounts_);
  return strformat("/work/%zu", i % 17);
}

}  // namespace rddr::scenario
