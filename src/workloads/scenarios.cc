#include "workloads/scenarios.h"

#include <memory>

#include "common/log.h"
#include "common/strutil.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "proto/json/json.h"
#include "rddr/deployment.h"
#include "rddr/plugins.h"
#include "services/dvwa.h"
#include "services/echo_vuln.h"
#include "services/gitlab.h"
#include "services/http_service.h"
#include "services/rest_service.h"
#include "services/reverse_proxy.h"
#include "services/simple_api.h"
#include "services/static_server.h"
#include "services/variant_libs.h"
#include "sqldb/client.h"
#include "sqldb/server.h"

namespace rddr::workloads {

namespace {

using core::DivergenceBus;
using core::HttpPlugin;
using core::IncomingProxy;
using core::OutgoingProxy;
using core::PgPlugin;
using core::TcpLinePlugin;
using services::HttpClient;

/// One simulated cluster node per scenario.
struct TestBed {
  sim::Simulator simulator;
  sim::Network net{simulator, 20 * sim::kMicrosecond};
  sim::Host host{simulator, "node", 32, 128LL << 30};
};
// Every scenario runs the strict policy, so every divergence record on its
// bus is an intervention (no quorum outvotes to skip).

/// Blocking-style HTTP request: runs the simulator until the callback.
struct HttpResult {
  int status = -2;  // -2: no reply; -1: connection failed/closed
  http::Response response;
};

HttpResult do_http(TestBed& bed, const std::string& address,
                   http::Request req) {
  HttpResult out;
  HttpClient client(bed.net, "test-client");
  client.request(address, std::move(req),
                 [&out](int status, const http::Response* r) {
                   out.status = status;
                   if (r) out.response = *r;
                 });
  bed.simulator.run_until_idle();
  return out;
}

HttpResult do_get(TestBed& bed, const std::string& address,
                  const std::string& target) {
  http::Request req;
  req.method = "GET";
  req.target = target;
  req.headers.set("Host", address);
  return do_http(bed, address, std::move(req));
}

HttpResult do_post(TestBed& bed, const std::string& address,
                   const std::string& target, const std::string& body,
                   const std::string& content_type = "application/json") {
  http::Request req;
  req.method = "POST";
  req.target = target;
  req.headers.set("Host", address);
  req.headers.set("Content-Type", content_type);
  req.body = body;
  return do_http(bed, address, std::move(req));
}

/// Blocking-style SQL query on a fresh connection.
sqldb::QueryOutcome do_query(TestBed& bed, const std::string& address,
                             const std::string& user, const std::string& sql) {
  sqldb::QueryOutcome result;
  bool done = false;
  sqldb::PgClient client(bed.net, "test-client", address, user);
  client.query(sql, [&](sqldb::QueryOutcome out) {
    result = std::move(out);
    done = true;
  });
  bed.simulator.run_until_idle();
  if (!done) result.connection_lost = true;
  return result;
}

/// Raw TCP exchange: send bytes, collect everything until close/idle.
struct RawResult {
  Bytes data;
  bool closed = false;
};

RawResult do_raw(TestBed& bed, const std::string& address, ByteView payload) {
  RawResult out;
  auto conn = bed.net.connect(address, {.source = "test-client"});
  if (!conn) {
    out.closed = true;
    return out;
  }
  conn->set_on_data([&out](ByteView d) { out.data += Bytes(d); });
  conn->set_on_close([&out] { out.closed = true; });
  conn->send(payload);
  bed.simulator.run_until_idle();
  return out;
}

std::string extract_user_token(const Bytes& page) {
  size_t pos = page.find("name=\"user_token\" value=\"");
  if (pos == Bytes::npos) return "";
  pos += 25;
  size_t end = page.find('"', pos);
  if (end == Bytes::npos) return "";
  return page.substr(pos, end - pos);
}

// =====================================================================
// §V-A: RESTful library-diversity scenarios (shared skeleton).
// =====================================================================

struct RestSpec {
  std::string id, microservice, exploit, cwe, owasp, diversity;
  services::RestLibraryService::Kind kind;
  std::string vulnerable_lib, safe_lib;
  std::string benign_body;             // JSON request body
  std::string exploit_body;            // JSON request body
  std::vector<std::string> leak_markers;
};

ScenarioResult run_rest_scenario(const RestSpec& spec) {
  ScenarioResult result;
  result.id = spec.id;
  result.microservice = spec.microservice;
  result.exploit = spec.exploit;
  result.cwe = spec.cwe;
  result.owasp = spec.owasp;
  result.diversity = spec.diversity;

  const std::string endpoint =
      services::RestLibraryService::endpoint(spec.kind);

  // ---- Control: exploit against the unprotected vulnerable library. ----
  {
    TestBed bed;
    services::RestLibraryService::Options o;
    o.address = "svc:80";
    o.kind = spec.kind;
    o.library = spec.vulnerable_lib;
    services::RestLibraryService vuln(bed.net, bed.host, o);
    auto r = do_post(bed, "svc:80", endpoint, spec.exploit_body);
    for (const auto& marker : spec.leak_markers)
      if (r.response.body.find(marker) != Bytes::npos)
        result.exploit_works_unprotected = true;
  }

  // ---- Protected deployment: vulnerable + diverse instance. ----
  TestBed bed;
  services::RestLibraryService::Options o0, o1;
  o0.address = "svc-0:80";
  o0.kind = spec.kind;
  o0.library = spec.vulnerable_lib;
  o1.address = "svc-1:80";
  o1.kind = spec.kind;
  o1.library = spec.safe_lib;
  services::RestLibraryService inst0(bed.net, bed.host, o0);
  services::RestLibraryService inst1(bed.net, bed.host, o1);

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  DivergenceBus bus;
  IncomingProxy proxy(bed.net, bed.host, cfg, &bus);

  // Benign request passes and matches the library output byte-for-byte.
  auto benign = do_post(bed, "svc:80", endpoint, spec.benign_body);
  result.benign_ok = benign.status == 200 && bus.count() == 0;

  // Exploit is blocked; leaked content never reaches the client.
  auto attack = do_post(bed, "svc:80", endpoint, spec.exploit_body);
  result.exploit_blocked = bus.count() > 0 && attack.status != 200;
  Bytes client_visible = attack.response.body;
  for (const auto& marker : spec.leak_markers)
    if (client_visible.find(marker) != Bytes::npos)
      result.leak_reached_client = true;
  if (!bus.records().empty()) result.detail = bus.records().back().reason;
  return result;
}

}  // namespace

// =====================================================================
// §V-A scenarios
// =====================================================================

ScenarioResult run_cve_2014_3146() {
  RestSpec spec;
  spec.id = "CVE-2014-3146";
  spec.microservice = "lxml lib / RESTful";
  spec.exploit = "Cross site scripting";
  spec.cwe = "Other";
  spec.owasp = "3";
  spec.diversity = "Library in different language";
  spec.kind = services::RestLibraryService::Kind::kSanitizer;
  spec.vulnerable_lib = "lxmllite";
  spec.safe_lib = "sanihtml";
  json::Object benign{{"html", "<p>hello <b>world</b></p>"
                               "<a href=\"https://ok.example\">link</a>"}};
  json::Object attack{
      {"html", "<a href=\"java&#10;script:alert(1)\">click me</a>"}};
  spec.benign_body = json::Value(benign).dump();
  spec.exploit_body = json::Value(attack).dump();
  spec.leak_markers = {"script:alert(1)"};
  return run_rest_scenario(spec);
}

ScenarioResult run_cve_2020_10799() {
  RestSpec spec;
  spec.id = "CVE-2020-10799";
  spec.microservice = "svglib lib / RESTful";
  spec.exploit = "Improper restriction of XML external entity reference";
  spec.cwe = "611";
  spec.owasp = "5";
  spec.diversity = "Compatible libraries";
  spec.kind = services::RestLibraryService::Kind::kSvg;
  spec.vulnerable_lib = "svglite";
  spec.safe_lib = "cairolite";
  json::Object benign{
      {"svg", "<svg width=\"64\" height=\"64\"><text>logo</text></svg>"}};
  json::Object attack{
      {"svg",
       "<?xml version=\"1.0\"?><!DOCTYPE svg [<!ENTITY xxe SYSTEM "
       "\"file:///etc/passwd\">]><svg width=\"10\" height=\"10\">"
       "<text>&xxe;</text></svg>"}};
  spec.benign_body = json::Value(benign).dump();
  spec.exploit_body = json::Value(attack).dump();
  // The response carries hex-encoded PNG bytes; the leak marker is the
  // hex form of the stolen file content.
  spec.leak_markers = {to_hex("root:x:0:0")};
  return run_rest_scenario(spec);
}

ScenarioResult run_cve_2020_13757() {
  constexpr uint64_t kKey = 0x524444522d4b4559;  // service default
  RestSpec spec;
  spec.id = "CVE-2020-13757";
  spec.microservice = "rsa lib / RESTful";
  spec.exploit = "Use of risky crypto";
  spec.cwe = "327";
  spec.owasp = "2";
  spec.diversity = "Compatible libraries";
  spec.kind = services::RestLibraryService::Kind::kRsa;
  spec.vulnerable_lib = "rsalite";
  spec.safe_lib = "cryptolite";
  Bytes benign_cipher = services::lib::rsa_encrypt("hello rddr", kKey, 77);
  json::Object benign{{"ciphertext_hex", to_hex(benign_cipher)}};
  // Forged block: bad leading byte (0x01) — strict PKCS#1 rejects it, the
  // lax library "decrypts" it to attacker-chosen bytes.
  Bytes forged_block;
  forged_block += '\x01';
  forged_block += '\x02';
  for (int i = 0; i < 8; ++i) forged_block += '\x5a';
  forged_block += '\0';
  forged_block += "forged-admin-token";
  Bytes forged_cipher;
  for (size_t i = 0; i < forged_block.size(); ++i)
    forged_cipher.push_back(static_cast<char>(
        static_cast<uint8_t>(forged_block[i]) ^
        services::lib::rsa_keystream_byte(kKey, i)));
  json::Object attack{{"ciphertext_hex", to_hex(forged_cipher)}};
  spec.benign_body = json::Value(benign).dump();
  spec.exploit_body = json::Value(attack).dump();
  spec.leak_markers = {"forged-admin-token"};
  return run_rest_scenario(spec);
}

ScenarioResult run_cve_2020_11888() {
  RestSpec spec;
  spec.id = "CVE-2020-11888";
  spec.microservice = "markdown2 lib / RESTful";
  spec.exploit = "Cross site scripting";
  spec.cwe = "79";
  spec.owasp = "3";
  spec.diversity = "Compatible libraries";
  spec.kind = services::RestLibraryService::Kind::kMarkdown;
  spec.vulnerable_lib = "mdtwo";
  spec.safe_lib = "mdone";
  json::Object benign{
      {"markdown", "# Title\n**bold** and a [link](https://example.com)"}};
  json::Object attack{
      {"markdown", "[click](java\x0bscript:alert(1))"}};
  spec.benign_body = json::Value(benign).dump();
  spec.exploit_body = json::Value(attack).dump();
  spec.leak_markers = {"javascript:alert"};
  return run_rest_scenario(spec);
}

// =====================================================================
// §V-C2 / Table I row 1: CVE-2017-7484
// =====================================================================

namespace {
const char* kLeakFunctionSql =
    "CREATE FUNCTION leak2(integer,integer) RETURNS boolean "
    "AS $$BEGIN RAISE NOTICE 'leak % %', $1, $2; RETURN $1 > $2; END$$ "
    "LANGUAGE plpgsql immutable;";
const char* kLeakOperatorSql =
    "CREATE OPERATOR >>> (procedure=leak2, leftarg=integer, "
    "rightarg=integer, restrict=scalargtsel);";
const char* kExplainLeakSql =
    "EXPLAIN (COSTS OFF) SELECT * FROM some_table WHERE col_to_leak >>> 0;";

void load_7484_data(sqldb::Database& db) {
  sqldb::Session s(db, "postgres");
  s.execute(
      "CREATE TABLE some_table (col_to_leak int);"
      "INSERT INTO some_table VALUES (101), (202);"
      "CREATE TABLE pub (v int);"
      "INSERT INTO pub VALUES (1), (2);"
      "GRANT SELECT ON pub TO mallory;");
}
}  // namespace

ScenarioResult run_cve_2017_7484() {
  ScenarioResult result;
  result.id = "CVE-2017-7484";
  result.microservice = "PostgreSQL (minipg + roachdb)";
  result.exploit = "Exposure of sensitive information to an unauthorized actor";
  result.cwe = "200,285";
  result.owasp = "1";
  result.diversity = "Identical API, different program";

  // ---- Control: unprotected vulnerable instance. ----
  {
    TestBed bed;
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("9.2.19"));
    load_7484_data(*db);
    sqldb::SqlServer::Options so;
    so.address = "pg:5432";
    sqldb::SqlServer server(bed.net, bed.host, db, so);
    sqldb::PgClient attacker(bed.net, "attacker", "pg:5432", "mallory");
    std::vector<std::string> notices;
    for (const char* sql : {kLeakFunctionSql, kLeakOperatorSql,
                            "SET client_min_messages TO 'notice';",
                            kExplainLeakSql}) {
      attacker.query(sql, [&](sqldb::QueryOutcome out) {
        for (auto& n : out.notices) notices.push_back(std::move(n));
      });
    }
    bed.simulator.run_until_idle();
    for (const auto& n : notices)
      if (n.find("leak 101") != std::string::npos)
        result.exploit_works_unprotected = true;
  }

  // ---- Protected: minipg 9.2.19 filter pair + roachdb. ----
  TestBed bed;
  std::vector<std::shared_ptr<sqldb::Database>> dbs = {
      std::make_shared<sqldb::Database>(sqldb::minipg_info("9.2.19")),
      std::make_shared<sqldb::Database>(sqldb::minipg_info("9.2.19")),
      std::make_shared<sqldb::Database>(sqldb::roachdb_info()),
  };
  std::vector<std::unique_ptr<sqldb::SqlServer>> servers;
  for (size_t i = 0; i < dbs.size(); ++i) {
    load_7484_data(*dbs[i]);
    sqldb::SqlServer::Options so;
    so.address = strformat("pg-%zu:5432", i);
    so.rng_seed = 100 + i;
    servers.push_back(
        std::make_unique<sqldb::SqlServer>(bed.net, bed.host, dbs[i], so));
  }

  IncomingProxy::Config cfg;
  cfg.listen_address = "db:5432";
  cfg.instance_addresses = {"pg-0:5432", "pg-1:5432", "pg-2:5432"};
  cfg.plugin = std::make_shared<PgPlugin>();
  cfg.filter_pair = true;
  DivergenceBus bus;
  IncomingProxy proxy(bed.net, bed.host, cfg, &bus);

  // Benign query (ORDER BY: the paper's row-order configuration note).
  auto benign = do_query(bed, "db:5432", "mallory",
                         "SELECT v FROM pub ORDER BY v;");
  result.benign_ok = !benign.failed() && benign.rows.size() == 2 &&
                     bus.count() == 0;

  // Exploit, step 1: CREATE FUNCTION — roachdb errors, minipg succeeds,
  // RDDR cuts the connection at the first divergent unit.
  std::vector<std::string> client_notices;
  auto step1 = do_query(bed, "db:5432", "mallory", kLeakFunctionSql);
  for (auto& n : step1.notices) client_notices.push_back(n);
  bool step1_blocked = step1.connection_lost;

  // The attacker reconnects and pushes on (the minipg instances DID create
  // the function, so their state has already drifted from roachdb's).
  auto step2 = do_query(bed, "db:5432", "mallory", kLeakOperatorSql);
  for (auto& n : step2.notices) client_notices.push_back(n);
  bool step2_blocked = step2.connection_lost;

  // "If the attacker tries to reconnect and proceed ... the final EXPLAIN
  // query which causes the leak is always blocked": the minipg pair emits
  // leak NOTICEs, roachdb reports an unknown operator.
  auto step3 = do_query(bed, "db:5432", "mallory", kExplainLeakSql);
  for (auto& n : step3.notices) client_notices.push_back(n);
  bool step3_blocked = step3.connection_lost;

  result.exploit_blocked =
      step1_blocked && step2_blocked && step3_blocked && bus.count() >= 3;
  for (const auto& n : client_notices)
    if (n.find("leak") != std::string::npos) result.leak_reached_client = true;
  if (!bus.records().empty()) result.detail = bus.records().front().reason;
  return result;
}

// =====================================================================
// §V-D / Table I row 2: CVE-2017-7529 (wsgx range overflow)
// =====================================================================

ScenarioResult run_cve_2017_7529() {
  ScenarioResult result;
  result.id = "CVE-2017-7529";
  result.microservice = "Nginx (wsgx static server)";
  result.exploit = "Integer overflow";
  result.cwe = "190";
  result.owasp = "N/A";
  result.diversity = "Version number";

  const Bytes doc = "<html><body>public document body 0123456789</body></html>";
  auto add_docs = [&](services::StaticFileServer& s) {
    s.add_document("/index.html", doc);
  };
  const std::string huge_range =
      "bytes=-" + std::to_string(doc.size() + 600);  // suffix > doc size

  // ---- Control: unprotected 1.13.2 leaks the cache header. ----
  {
    TestBed bed;
    services::StaticFileServer::Options o;
    o.address = "web:80";
    o.version = "1.13.2";
    services::StaticFileServer server(bed.net, bed.host, o);
    add_docs(server);
    http::Request req;
    req.method = "GET";
    req.target = "/index.html";
    req.headers.set("Range", huge_range);
    auto r = do_http(bed, "web:80", std::move(req));
    if (r.response.body.find("cache-secret-token") != Bytes::npos)
      result.exploit_works_unprotected = true;
  }

  // ---- Protected: 1.13.2 pair + 1.13.4. ----
  TestBed bed;
  std::vector<std::unique_ptr<services::StaticFileServer>> servers;
  const char* versions[] = {"1.13.2", "1.13.2", "1.13.4"};
  for (int i = 0; i < 3; ++i) {
    services::StaticFileServer::Options o;
    o.address = strformat("web-%d:80", i);
    o.version = versions[i];
    servers.push_back(
        std::make_unique<services::StaticFileServer>(bed.net, bed.host, o));
    add_docs(*servers.back());
  }

  IncomingProxy::Config cfg;
  cfg.listen_address = "web:80";
  cfg.instance_addresses = {"web-0:80", "web-1:80", "web-2:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.filter_pair = true;  // not needed (deterministic), but deployed as-is
  DivergenceBus bus;
  IncomingProxy proxy(bed.net, bed.host, cfg, &bus);

  // Benign: plain GET and a valid in-bounds range.
  auto full = do_get(bed, "web:80", "/index.html");
  http::Request ranged;
  ranged.method = "GET";
  ranged.target = "/index.html";
  ranged.headers.set("Range", "bytes=0-9");
  auto part = do_http(bed, "web:80", std::move(ranged));
  http::Request suffix;
  suffix.method = "GET";
  suffix.target = "/index.html";
  suffix.headers.set("Range", "bytes=-10");
  auto sfx = do_http(bed, "web:80", std::move(suffix));
  result.benign_ok = full.status == 200 && full.response.body == doc &&
                     part.status == 206 &&
                     part.response.body == doc.substr(0, 10) &&
                     sfx.status == 206 && bus.count() == 0;

  // Exploit: oversized suffix range.
  http::Request attack;
  attack.method = "GET";
  attack.target = "/index.html";
  attack.headers.set("Range", huge_range);
  auto r = do_http(bed, "web:80", std::move(attack));
  result.exploit_blocked = bus.count() > 0 && r.status != 206;
  if (r.response.body.find("cache-secret-token") != Bytes::npos)
    result.leak_reached_client = true;
  if (!bus.records().empty()) result.detail = bus.records().back().reason;
  return result;
}

// =====================================================================
// §V-F / Table I row 3: CVE-2019-10130 inside the GitLab composite
// =====================================================================

namespace {
const char* kRlsLeakFunctionSql =
    "CREATE FUNCTION op_leak(int, int) RETURNS bool AS "
    "'BEGIN RAISE NOTICE ''leak %, %'', $1, $2; RETURN $1 < $2; END' "
    "LANGUAGE plpgsql;";
const char* kRlsLeakOperatorSql =
    "CREATE OPERATOR <<< (procedure=op_leak, leftarg=int, rightarg=int, "
    "restrict=scalarltsel);";
const char* kRlsLeakSelectSql =
    "SELECT * FROM protected_rows WHERE col_to_leak <<< 1000;";

void load_gitlab_rls_table(sqldb::Database& db) {
  services::GitlabApp::init_schema(db);
  sqldb::Session s(db, "postgres");
  s.execute(
      "CREATE TABLE protected_rows (col_to_leak int, owner_name text);"
      "INSERT INTO protected_rows VALUES (11,'alice'),(22,'mallory'),"
      "(33,'alice');"
      "GRANT SELECT ON protected_rows TO mallory;"
      "ALTER TABLE protected_rows ENABLE ROW LEVEL SECURITY;"
      "CREATE POLICY own ON protected_rows USING (owner_name = current_user);");
}
}  // namespace

ScenarioResult run_cve_2019_10130() {
  ScenarioResult result;
  result.id = "CVE-2019-10130";
  result.microservice = "PostgreSQL within GitLab";
  result.exploit = "Improper access control";
  result.cwe = "284";
  result.owasp = "1";
  result.diversity = "Version number";

  // ---- Control: unprotected 10.7. ----
  {
    TestBed bed;
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("10.7"));
    load_gitlab_rls_table(*db);
    sqldb::SqlServer::Options so;
    so.address = "pg:5432";
    sqldb::SqlServer server(bed.net, bed.host, db, so);
    sqldb::PgClient attacker(bed.net, "attacker", "pg:5432", "mallory");
    std::vector<std::string> notices;
    for (const char* sql :
         {kRlsLeakFunctionSql, kRlsLeakOperatorSql, kRlsLeakSelectSql}) {
      attacker.query(sql, [&](sqldb::QueryOutcome out) {
        for (auto& n : out.notices) notices.push_back(std::move(n));
      });
    }
    bed.simulator.run_until_idle();
    for (const auto& n : notices)
      if (n.find("leak 11") != std::string::npos)
        result.exploit_works_unprotected = true;
  }

  // ---- Protected GitLab deployment: 10.7 pair + 10.9 behind RDDR. ----
  TestBed bed;
  std::vector<std::shared_ptr<sqldb::Database>> dbs = {
      std::make_shared<sqldb::Database>(sqldb::minipg_info("10.7")),
      std::make_shared<sqldb::Database>(sqldb::minipg_info("10.7")),
      std::make_shared<sqldb::Database>(sqldb::minipg_info("10.9")),
  };
  std::vector<std::unique_ptr<sqldb::SqlServer>> servers;
  for (size_t i = 0; i < dbs.size(); ++i) {
    load_gitlab_rls_table(*dbs[i]);
    sqldb::SqlServer::Options so;
    so.address = strformat("gitlab-pg-%zu:5432", i);
    so.rng_seed = 300 + i;
    servers.push_back(
        std::make_unique<sqldb::SqlServer>(bed.net, bed.host, dbs[i], so));
  }

  IncomingProxy::Config cfg;
  cfg.listen_address = "gitlab-db:5432";
  cfg.instance_addresses = {"gitlab-pg-0:5432", "gitlab-pg-1:5432",
                            "gitlab-pg-2:5432"};
  cfg.plugin = std::make_shared<PgPlugin>();
  cfg.filter_pair = true;
  DivergenceBus bus;
  IncomingProxy proxy(bed.net, bed.host, cfg, &bus);

  services::GitlabApp::Options gopts;
  gopts.db_address = "gitlab-db:5432";
  services::GitlabApp gitlab(bed.net, bed.host, gopts);

  // Benign traffic through the whole stack: ingress -> workhorse -> puma
  // -> RDDR -> 3x minipg; plus sidekiq background jobs.
  auto projects = do_get(bed, "gitlab:80", "/projects");
  auto created = do_post(bed, "gitlab:80", "/projects/create", "name=newrepo",
                         "application/x-www-form-urlencoded");
  bed.simulator.run_until(bed.simulator.now() + 3 * sim::kSecond);
  gitlab.stop_sidekiq();
  bed.simulator.run_until_idle();
  result.benign_ok = projects.status == 200 &&
                     projects.response.body.find("kernel") != Bytes::npos &&
                     created.status == 201 && gitlab.sidekiq_jobs_run() >= 3 &&
                     gitlab.sidekiq_job_failures() == 0 && bus.count() == 0;

  // Exploit from a "neighbouring container" straight at the database.
  std::vector<std::string> client_notices;
  auto s1 = do_query(bed, "gitlab-db:5432", "mallory", kRlsLeakFunctionSql);
  auto s2 = do_query(bed, "gitlab-db:5432", "mallory", kRlsLeakOperatorSql);
  auto s3 = do_query(bed, "gitlab-db:5432", "mallory", kRlsLeakSelectSql);
  for (auto* out : {&s1, &s2, &s3})
    for (auto& n : out->notices) client_notices.push_back(std::move(n));
  result.exploit_blocked =
      !s1.failed() && !s2.failed() && s3.connection_lost && bus.count() >= 1;
  for (const auto& n : client_notices)
    if (n.find("leak 11") != std::string::npos ||
        n.find("leak 33") != std::string::npos)
      result.leak_reached_client = true;

  // GitLab keeps working after the intervention.
  auto after = do_get(bed, "gitlab:80", "/projects");
  result.benign_ok = result.benign_ok && after.status == 200;
  if (!bus.records().empty()) result.detail = bus.records().back().reason;
  return result;
}

// =====================================================================
// §V-C1 / Table I row 4: CVE-2019-18277 (request smuggling)
// =====================================================================

namespace {
constexpr char kSmugglePayload[] =
    "POST / HTTP/1.1\r\n"
    "Host: edge\r\n"
    "Content-Length: 38\r\n"
    "Transfer-Encoding: \x0b"
    "chunked\r\n"
    "\r\n"
    "0\r\n\r\nGET /admin HTTP/1.1\r\nHost: s1\r\n\r\n";
}  // namespace

ScenarioResult run_cve_2019_18277() {
  ScenarioResult result;
  result.id = "CVE-2019-18277";
  result.microservice = "HAProxy (hap reverse proxy)";
  result.exploit = "HTTP Request Smuggling";
  result.cwe = "444";
  result.owasp = "4";
  result.diversity = "Multi-program";

  // ---- Control: hap alone in front of S1. ----
  {
    TestBed bed;
    services::SimpleApiService::Options api;
    api.address = "s1:80";
    services::SimpleApiService s1(bed.net, bed.host, api);
    services::ReverseProxy::Options po;
    po.address = "edge:80";
    po.backend_address = "s1:80";
    po.flavor = services::ReverseProxy::Flavor::kHap153;
    po.instance_name = "hap";
    services::ReverseProxy hap(bed.net, bed.host, po);
    auto r = do_raw(bed, "edge:80",
                    ByteView(kSmugglePayload, sizeof(kSmugglePayload) - 1));
    if (r.data.find("SECRET-ADMIN-TOKEN") != Bytes::npos &&
        s1.admin_hits() > 0)
      result.exploit_works_unprotected = true;
  }

  // ---- Protected: hap + ngx behind RDDR, S1 behind the outgoing proxy. ----
  TestBed bed;
  services::SimpleApiService::Options api;
  api.address = "s1-real:80";
  services::SimpleApiService s1(bed.net, bed.host, api);

  services::ReverseProxy::Options hap_o;
  hap_o.address = "proxy-0:80";
  hap_o.backend_address = "s1:80";  // the outgoing proxy
  hap_o.flavor = services::ReverseProxy::Flavor::kHap153;
  hap_o.instance_name = "hap";
  services::ReverseProxy hap(bed.net, bed.host, hap_o);

  services::ReverseProxy::Options ngx_o;
  ngx_o.address = "proxy-1:80";
  ngx_o.backend_address = "s1:80";
  ngx_o.flavor = services::ReverseProxy::Flavor::kNgx;
  ngx_o.instance_name = "ngx";
  services::ReverseProxy ngx(bed.net, bed.host, ngx_o);

  core::NVersionDeployment::Options dep;
  dep.incoming.listen_address = "edge:80";
  dep.incoming.instance_addresses = {"proxy-0:80", "proxy-1:80"};
  dep.incoming.plugin = std::make_shared<HttpPlugin>();
  OutgoingProxy::Config out_cfg;
  out_cfg.listen_address = "s1:80";
  out_cfg.backend_address = "s1-real:80";
  out_cfg.group_size = 2;
  out_cfg.plugin = std::make_shared<HttpPlugin>();
  out_cfg.group_window = 50 * sim::kMillisecond;
  dep.outgoing.push_back(out_cfg);
  core::NVersionDeployment rddr(bed.net, bed.host, dep);

  // Benign request flows through both proxies and the merge.
  auto benign = do_get(bed, "edge:80", "/api/echo");
  result.benign_ok = benign.status == 200 &&
                     benign.response.body.find("public ok") != Bytes::npos &&
                     rddr.divergences() == 0;

  // Exploit.
  auto attack = do_raw(bed, "edge:80",
                       ByteView(kSmugglePayload, sizeof(kSmugglePayload) - 1));
  result.exploit_blocked = rddr.divergences() > 0 && s1.admin_hits() == 0;
  if (attack.data.find("SECRET-ADMIN-TOKEN") != Bytes::npos)
    result.leak_reached_client = true;
  if (!rddr.bus().records().empty())
    result.detail = rddr.bus().records().back().reason;
  return result;
}

// =====================================================================
// §V-B / Table I row 9: DVWA SQL injection
// =====================================================================

namespace {
void load_dvwa_db(sqldb::Database& db) {
  sqldb::Session s(db, "postgres");
  s.execute(
      "CREATE TABLE users (user_id text, first_name text, last_name text);"
      "INSERT INTO users VALUES ('1','Alice','Liddell'),"
      "('2','Bob','Builder'),('3','Charlie','Chaplin');"
      "GRANT SELECT ON users TO dvwa;");
}
}  // namespace

ScenarioResult run_dvwa_sqli() {
  ScenarioResult result;
  result.id = "DVWA SQLi";
  result.microservice = "DVWA frontend";
  result.exploit = "SQL injection";
  result.cwe = "89";
  result.owasp = "3";
  result.diversity = "Multi-programming";

  const std::string inject = "' OR '1'='1";

  // ---- Control: single low-security DVWA straight at the DB. ----
  {
    TestBed bed;
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
    load_dvwa_db(*db);
    sqldb::SqlServer::Options so;
    so.address = "db:5432";
    sqldb::SqlServer server(bed.net, bed.host, db, so);
    services::DvwaApp::Options o;
    o.address = "dvwa:80";
    o.db_address = "db:5432";
    o.security = services::DvwaApp::Security::kLow;
    services::DvwaApp app(bed.net, bed.host, o);
    auto page = do_get(bed, "dvwa:80", "/vulnerabilities/sqli");
    std::string token = extract_user_token(page.response.body);
    auto r = do_post(bed, "dvwa:80", "/vulnerabilities/sqli",
                     "id=" + url_encode(inject) + "&user_token=" + token +
                         "&Submit=Submit",
                     "application/x-www-form-urlencoded");
    // The injection dumps every user, not just one.
    if (r.response.body.find("Bob") != Bytes::npos &&
        r.response.body.find("Charlie") != Bytes::npos)
      result.exploit_works_unprotected = true;
  }

  // ---- Protected: low/low filter pair + high, external DB. ----
  TestBed bed;
  auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
  load_dvwa_db(*db);
  sqldb::SqlServer::Options so;
  so.address = "dvwa-db:5432";
  sqldb::SqlServer server(bed.net, bed.host, db, so);

  std::vector<std::unique_ptr<services::DvwaApp>> apps;
  const services::DvwaApp::Security levels[] = {
      services::DvwaApp::Security::kLow, services::DvwaApp::Security::kLow,
      services::DvwaApp::Security::kHigh};
  for (int i = 0; i < 3; ++i) {
    services::DvwaApp::Options o;
    o.address = strformat("dvwa-%d:80", i);
    o.db_address = "dvwa-dbvirt:5432";  // the outgoing proxy
    o.security = levels[i];
    o.rng_seed = 40 + static_cast<uint64_t>(i);
    o.instance_name = strformat("dvwa-%d", i);
    apps.push_back(std::make_unique<services::DvwaApp>(bed.net, bed.host, o));
  }

  core::NVersionDeployment::Options dep;
  dep.incoming.listen_address = "dvwa:80";
  dep.incoming.instance_addresses = {"dvwa-0:80", "dvwa-1:80", "dvwa-2:80"};
  dep.incoming.plugin = std::make_shared<HttpPlugin>();
  dep.incoming.filter_pair = true;
  OutgoingProxy::Config out_cfg;
  out_cfg.listen_address = "dvwa-dbvirt:5432";
  out_cfg.backend_address = "dvwa-db:5432";
  out_cfg.group_size = 3;
  out_cfg.plugin = std::make_shared<PgPlugin>();
  out_cfg.filter_pair = true;
  out_cfg.instance_sources = {"dvwa-0", "dvwa-1", "dvwa-2"};
  dep.outgoing.push_back(out_cfg);
  core::NVersionDeployment rddr(bed.net, bed.host, dep);

  // Benign flow: fetch the form (CSRF token!) and look up user 1.
  auto page = do_get(bed, "dvwa:80", "/vulnerabilities/sqli");
  std::string token = extract_user_token(page.response.body);
  auto benign = do_post(bed, "dvwa:80", "/vulnerabilities/sqli",
                        "id=1&user_token=" + token + "&Submit=Submit",
                        "application/x-www-form-urlencoded");
  bool csrf_ok = true;
  for (const auto& app : apps)
    if (app->token_failures() != 0) csrf_ok = false;
  result.benign_ok = page.status == 200 && !token.empty() &&
                     benign.status == 200 &&
                     benign.response.body.find("Alice") != Bytes::npos &&
                     benign.response.body.find("Bob") == Bytes::npos &&
                     csrf_ok && rddr.divergences() == 0;

  // Exploit: fresh form, injected id.
  auto page2 = do_get(bed, "dvwa:80", "/vulnerabilities/sqli");
  std::string token2 = extract_user_token(page2.response.body);
  auto attack = do_post(bed, "dvwa:80", "/vulnerabilities/sqli",
                        "id=" + url_encode(inject) + "&user_token=" + token2 +
                            "&Submit=Submit",
                        "application/x-www-form-urlencoded");
  result.exploit_blocked = rddr.divergences() > 0 && attack.status != 200;
  if (attack.response.body.find("Bob") != Bytes::npos ||
      attack.response.body.find("Charlie") != Bytes::npos)
    result.leak_reached_client = true;
  if (!rddr.bus().records().empty())
    result.detail = rddr.bus().records().front().reason;
  return result;
}

// =====================================================================
// §V-E / Table I row 10: ASLR pointer-leak POC
// =====================================================================

ScenarioResult run_aslr_poc() {
  ScenarioResult result;
  result.id = "ASLR POC";
  result.microservice = "C echo server";
  result.exploit = "Heap overflow";
  result.cwe = "122";
  result.owasp = "N/A";
  result.diversity = "Random memory layout";

  const Bytes overflow = Bytes(80, 'A') + "\n";

  // ---- Control: a single instance leaks its pointer. ----
  uint64_t leaked_ptr = 0;
  {
    TestBed bed;
    services::EchoVulnServer::Options o;
    o.address = "echo:7";
    o.rng_seed = 1;
    services::EchoVulnServer echo(bed.net, bed.host, o);
    leaked_ptr = echo.leaked_pointer();
    auto r = do_raw(bed, "echo:7", overflow);
    std::string ptr_hex = strformat(
        "%016llx", static_cast<unsigned long long>(leaked_ptr));
    if (r.data.find(ptr_hex) != Bytes::npos)
      result.exploit_works_unprotected = true;
  }

  // ---- Protected: two ASLR instances behind RDDR. ----
  TestBed bed;
  services::EchoVulnServer::Options o0, o1;
  o0.address = "echo-0:7";
  o0.rng_seed = 1;
  o1.address = "echo-1:7";
  o1.rng_seed = 2;
  services::EchoVulnServer e0(bed.net, bed.host, o0);
  services::EchoVulnServer e1(bed.net, bed.host, o1);

  IncomingProxy::Config cfg;
  cfg.listen_address = "echo:7";
  cfg.instance_addresses = {"echo-0:7", "echo-1:7"};
  cfg.plugin = std::make_shared<TcpLinePlugin>();
  DivergenceBus bus;
  IncomingProxy proxy(bed.net, bed.host, cfg, &bus);

  auto benign = do_raw(bed, "echo:7", "hello rddr\n");
  result.benign_ok = benign.data == "hello rddr\n" && bus.count() == 0;

  auto attack = do_raw(bed, "echo:7", overflow);
  result.exploit_blocked = bus.count() > 0;
  std::string p0 = strformat("%016llx",
                             static_cast<unsigned long long>(e0.leaked_pointer()));
  std::string p1 = strformat("%016llx",
                             static_cast<unsigned long long>(e1.leaked_pointer()));
  if (attack.data.find(p0) != Bytes::npos ||
      attack.data.find(p1) != Bytes::npos)
    result.leak_reached_client = true;
  if (!bus.records().empty()) result.detail = bus.records().back().reason;

  // Ablation note: without ASLR both instances leak the same pointer and
  // RDDR cannot see the exploit — the diversity IS the defence.
  {
    TestBed bed2;
    services::EchoVulnServer::Options n0, n1;
    n0.address = "echo-0:7";
    n0.aslr = false;
    n1.address = "echo-1:7";
    n1.aslr = false;
    services::EchoVulnServer f0(bed2.net, bed2.host, n0);
    services::EchoVulnServer f1(bed2.net, bed2.host, n1);
    IncomingProxy::Config c2 = cfg;
    DivergenceBus bus2;
    IncomingProxy proxy2(bed2.net, bed2.host, c2, &bus2);
    do_raw(bed2, "echo:7", overflow);
    if (bus2.count() == 0)
      result.detail += " | without ASLR the leak is identical and undetected";
  }
  return result;
}

std::vector<ScenarioResult> run_all_table1() {
  return {
      run_cve_2017_7484(),  run_cve_2017_7529(),  run_cve_2019_10130(),
      run_cve_2019_18277(), run_cve_2014_3146(),  run_cve_2020_10799(),
      run_cve_2020_13757(), run_cve_2020_11888(), run_dvwa_sqli(),
      run_aslr_poc(),
  };
}

}  // namespace rddr::workloads
