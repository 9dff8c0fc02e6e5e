#include "services/gitlab.h"

#include "common/log.h"
#include "common/strutil.h"

namespace rddr::services {

GitlabApp::GitlabApp(sim::Network& net, sim::Host& host, Options opts)
    : net_(net), host_(host), opts_(std::move(opts)) {
  // puma (rails): the tier that actually talks SQL.
  HttpServer::Options puma_opts;
  puma_opts.address = "puma:8080";
  puma_opts.cpu_per_request = opts_.cpu_per_request;
  puma_ = std::make_unique<HttpServer>(net_, host_, puma_opts);
  puma_->set_handler([this](const http::Request& req, Responder respond) {
    handle_puma(req, respond);
  });

  // workhorse: fronts puma, offloads large payloads (here: pass-through).
  HttpServer::Options wh_opts;
  wh_opts.address = "workhorse:8181";
  wh_opts.cpu_per_request = 20e-6;
  workhorse_ = std::make_unique<HttpServer>(net_, host_, wh_opts);
  workhorse_->set_handler([this](const http::Request& req, Responder respond) {
    auto client = std::make_shared<HttpClient>(net_, "workhorse");
    http::Request fwd = req;
    fwd.raw.clear();
    client->request("puma:8080", std::move(fwd),
                    [respond, client](int status, const http::Response* r) {
                      if (status < 0 || !r) {
                        respond(http::make_response(502, "<h1>502</h1>"));
                        return;
                      }
                      respond(*r);
                    });
  });

  // ingress: an nginx-flavoured reverse proxy in front of workhorse.
  ReverseProxy::Options ing;
  ing.address = opts_.ingress_address;
  ing.backend_address = "workhorse:8181";
  ing.flavor = ReverseProxy::Flavor::kNgx;
  ing.blocked_paths = {"/admin", "/internal"};
  ing.instance_name = "nginx-ingress";
  ingress_ = std::make_unique<ReverseProxy>(net_, host_, ing);

  // Peripheral containers: enough behaviour to be "running" (they answer
  // health checks and trivial requests) — they exist so the deployment
  // has the paper's container count and background traffic.
  auto make_stub = [&](const char* address, const char* banner) {
    HttpServer::Options o;
    o.address = address;
    o.cpu_per_request = 10e-6;
    auto s = std::make_unique<HttpServer>(net_, host_, o);
    std::string b = banner;
    s->set_handler([b](const http::Request& req, Responder respond) {
      if (req.target == "/health")
        respond(http::make_response(200, "ok", "text/plain"));
      else
        respond(http::make_response(200, b, "text/plain"));
    });
    return s;
  };
  shell_ = make_stub("gitlab-shell:2222", "gitlab-shell: ssh endpoint");
  gitaly_ = make_stub("gitaly:8075", "gitaly: repository storage");
  pages_ = make_stub("gitlab-pages:8090", "gitlab-pages");
  registry_ = make_stub("registry:5000", "container registry");

  if (opts_.sidekiq_interval > 0) schedule_sidekiq();
}

GitlabApp::~GitlabApp() { stop_sidekiq(); }

void GitlabApp::stop_sidekiq() {
  if (sidekiq_event_) {
    net_.simulator().cancel(sidekiq_event_);
    sidekiq_event_ = 0;
  }
}

void GitlabApp::schedule_sidekiq() {
  // Stop after this many background jobs (keeps simulations finite).
  constexpr uint64_t kSidekiqMaxJobs = 6;
  if (sidekiq_jobs_ >= kSidekiqMaxJobs) return;
  sidekiq_event_ = net_.simulator().schedule(opts_.sidekiq_interval, [this] {
    sidekiq_event_ = 0;
    // Background job: refresh project statistics.
    auto client = std::make_shared<sqldb::PgClient>(
        net_, "sidekiq", opts_.db_address, "gitlab",
        strformat("sidekiq-%llu",
                  static_cast<unsigned long long>(sidekiq_jobs_)));
    ++sidekiq_jobs_;
    client->query("SELECT count(*) FROM projects;",
                  [this, client](sqldb::QueryOutcome out) {
                    client->close();
                    if (out.failed()) ++sidekiq_failures_;
                  });
    schedule_sidekiq();
  });
}

void GitlabApp::init_schema(sqldb::Database& db) {
  sqldb::Session s(db, "postgres");
  auto r = s.execute(
      "CREATE TABLE projects (id int, name text, owner_name text);"
      "CREATE TABLE users (id int, username text);"
      "INSERT INTO users VALUES (1,'alice'),(2,'bob'),(3,'mallory');"
      "INSERT INTO projects VALUES (1,'kernel','alice'),(2,'www','bob'),"
      "(3,'infra','alice');"
      "GRANT SELECT ON projects TO gitlab;"
      "GRANT INSERT ON projects TO gitlab;"
      "GRANT SELECT ON users TO gitlab;");
  for (const auto& sr : r.statements) {
    if (sr.failed()) RDDR_LOG_ERROR("gitlab schema: %s", sr.error_message.c_str());
  }
}

void GitlabApp::handle_puma(const http::Request& req, Responder respond) {
  std::string flow = strformat(
      "puma-%llu", static_cast<unsigned long long>(puma_flow_counter_++));
  if (req.target == "/projects" && req.method == "GET") {
    auto client = std::make_shared<sqldb::PgClient>(
        net_, "puma", opts_.db_address, "gitlab", flow);
    client->query(
        "SELECT id, name FROM projects ORDER BY id;",
        [respond, client](sqldb::QueryOutcome out) {
          client->close();
          if (out.failed()) {
            respond(http::make_response(500, "<h1>DB error</h1>"));
            return;
          }
          std::string page = "<html><body><h1>Projects</h1><ul>\n";
          for (const auto& row : out.rows)
            page += "<li>" + row[0].value_or("?") + ": " +
                    row[1].value_or("?") + "</li>\n";
          page += "</ul></body></html>\n";
          respond(http::make_response(200, page));
        });
    return;
  }
  if (starts_with(req.target, "/projects/create") && req.method == "POST") {
    std::string name = "unnamed";
    for (const auto& [k, v] : parse_form(req.body))
      if (k == "name") name = v;
    auto client = std::make_shared<sqldb::PgClient>(
        net_, "puma", opts_.db_address, "gitlab", flow);
    std::string safe = replace_all(name, "'", "''");
    client->query(
        "INSERT INTO projects (id, name, owner_name) VALUES "
        "(99, '" + safe + "', 'web');",
        [respond, client](sqldb::QueryOutcome out) {
          client->close();
          if (out.failed()) {
            respond(http::make_response(500, "<h1>DB error</h1>"));
            return;
          }
          respond(http::make_response(201, "<h1>created</h1>"));
        });
    return;
  }
  if (req.target == "/health") {
    respond(http::make_response(200, "ok", "text/plain"));
    return;
  }
  respond(http::make_response(404, "<h1>404</h1>"));
}

}  // namespace rddr::services
