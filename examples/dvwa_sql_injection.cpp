// DVWA SQL-injection walkthrough (paper §V-B).
//
// Builds the paper's deployment by hand so the moving parts are visible:
//
//            client
//              |
//     RDDR incoming proxy  (HTTP plugin, filter pair, CSRF handling)
//        /     |      \      (replicated)
//   dvwa-0  dvwa-1   dvwa-2        <- low / low (filter pair) / high
//        \     |      /
//     RDDR outgoing proxy  (pgwire plugin: diffs the SQL each
//              |            instance sends, forwards ONE copy)
//         minipg backend
//
// Walks through: the CSRF token round trip (ephemeral state, §IV-B3), a
// benign lookup, and the injected request that makes the sanitising
// instance's SQL differ from the filter pair's — caught at the OUTGOING
// proxy before the query ever reaches the database.
#include <cstdio>

#include "common/strutil.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/rddr.h"
#include "services/dvwa.h"
#include "services/http_service.h"
#include "sqldb/server.h"

using namespace rddr;

namespace {

struct Reply {
  int status = -1;
  Bytes body;
};

Reply roundtrip(sim::Simulator& simulator, sim::Network& net,
                http::Request req) {
  Reply out;
  services::HttpClient client(net, "browser");
  client.request("dvwa:80", std::move(req), [&](int s, const http::Response* r) {
    out.status = s;
    if (r) out.body = r->body;
  });
  simulator.run_until_idle();
  return out;
}

std::string token_of(const Bytes& page) {
  size_t pos = page.find("name=\"user_token\" value=\"");
  if (pos == Bytes::npos) return "";
  pos += 25;
  return page.substr(pos, page.find('"', pos) - pos);
}

}  // namespace

int main() {
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host host(simulator, "node-1", 16, 16LL << 30);

  // Backend database (external to the frontend, per the paper's setup).
  auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
  {
    sqldb::Session s(*db, "postgres");
    s.execute(
        "CREATE TABLE users (user_id text, first_name text, last_name text);"
        "INSERT INTO users VALUES ('1','Alice','Liddell'),"
        "('2','Bob','Builder'),('3','Charlie','Chaplin');"
        "GRANT SELECT ON users TO dvwa;");
  }
  sqldb::SqlServer::Options so;
  so.address = "dvwa-db:5432";
  sqldb::SqlServer backend(net, host, db, so);

  // Three DVWA frontends: the filter pair runs with NO sanitisation, the
  // diverse member sanitises (quote doubling).
  std::vector<std::unique_ptr<services::DvwaApp>> apps;
  const services::DvwaApp::Security levels[] = {
      services::DvwaApp::Security::kLow, services::DvwaApp::Security::kLow,
      services::DvwaApp::Security::kHigh};
  for (int i = 0; i < 3; ++i) {
    services::DvwaApp::Options o;
    o.address = strformat("dvwa-%d:80", i);
    o.db_address = "dvwa-dbvirt:5432";  // they think this is the DB
    o.security = levels[i];
    o.rng_seed = 1000 + static_cast<uint64_t>(i);
    o.instance_name = strformat("dvwa-%d", i);
    apps.push_back(std::make_unique<services::DvwaApp>(net, host, o));
  }

  // RDDR around them. The outgoing proxy speaks pgwire (not the incoming
  // side's HTTP), so it takes a full Config instead of the inherit form.
  core::OutgoingProxy::Config out;
  out.listen_address = "dvwa-dbvirt:5432";
  out.backend_address = "dvwa-db:5432";
  out.group_size = 3;
  out.plugin = std::make_shared<core::PgPlugin>();
  out.filter_pair = true;
  out.instance_sources = {"dvwa-0", "dvwa-1", "dvwa-2"};
  auto rddr = core::NVersionDeployment::Builder()
                  .listen("dvwa:80")
                  .versions({"dvwa-0:80", "dvwa-1:80", "dvwa-2:80"})
                  .plugin(std::make_shared<core::HttpPlugin>())
                  .filter_pair(true)
                  .backend(out)
                  .build(net, host);

  std::printf("== 1. fetch the SQLi form ==\n");
  http::Request get;
  get.method = "GET";
  get.target = "/vulnerabilities/sqli";
  auto page = roundtrip(simulator, net, std::move(get));
  std::string token = token_of(page.body);
  std::printf("   HTTP %d, CSRF token issued: %s\n", page.status,
              token.c_str());
  std::printf("   (each instance issued a DIFFERENT token; RDDR saved the\n"
              "    mapping and forwarded instance 0's page — §IV-B3)\n");

  std::printf("\n== 2. benign lookup: id=1 ==\n");
  http::Request benign;
  benign.method = "POST";
  benign.target = "/vulnerabilities/sqli";
  benign.headers.set("Content-Type", "application/x-www-form-urlencoded");
  benign.body = "id=1&user_token=" + token + "&Submit=Submit";
  auto ok = roundtrip(simulator, net, std::move(benign));
  std::printf("   HTTP %d, contains Alice: %s, CSRF failures at instances: "
              "%llu/%llu/%llu\n",
              ok.status, ok.body.find("Alice") != Bytes::npos ? "yes" : "no",
              static_cast<unsigned long long>(apps[0]->token_failures()),
              static_cast<unsigned long long>(apps[1]->token_failures()),
              static_cast<unsigned long long>(apps[2]->token_failures()));

  std::printf("\n== 3. the injection: id=' OR '1'='1 ==\n");
  http::Request fresh;
  fresh.method = "GET";
  fresh.target = "/vulnerabilities/sqli";
  auto page2 = roundtrip(simulator, net, std::move(fresh));
  std::string token2 = token_of(page2.body);
  std::printf("   instance 0 would send : %s\n",
              apps[0]->build_query("' OR '1'='1").c_str());
  std::printf("   instance 2 would send : %s\n",
              apps[2]->build_query("' OR '1'='1").c_str());
  http::Request attack;
  attack.method = "POST";
  attack.target = "/vulnerabilities/sqli";
  attack.headers.set("Content-Type", "application/x-www-form-urlencoded");
  attack.body = "id=" + url_encode("' OR '1'='1") + "&user_token=" + token2 +
                "&Submit=Submit";
  auto blocked = roundtrip(simulator, net, std::move(attack));
  std::printf("   HTTP %d, leaked other users: %s\n", blocked.status,
              (blocked.body.find("Bob") != Bytes::npos ||
               blocked.body.find("Charlie") != Bytes::npos)
                  ? "YES (bad!)"
                  : "no");

  std::printf("\n== RDDR interventions ==\n");
  for (const auto& rec : rddr->bus().records())
    if (rec.is_intervention())
      std::printf("   [%s] %s\n", rec.proxy.c_str(), rec.reason.c_str());
  std::printf("\nThe divergence was detected at the OUTGOING proxy — the\n"
              "malicious query never reached the database (backend served "
              "%llu queries total).\n",
              static_cast<unsigned long long>(backend.queries_served()));
  return 0;
}
