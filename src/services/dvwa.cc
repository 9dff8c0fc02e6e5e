#include "services/dvwa.h"

#include "common/strutil.h"

namespace rddr::services {

DvwaApp::DvwaApp(sim::Network& net, sim::Host& host, Options opts)
    : net_(net), opts_(std::move(opts)), rng_(opts_.rng_seed) {
  HttpServer::Options sopts;
  sopts.address = opts_.address;
  sopts.cpu_per_request = opts_.cpu_per_request;
  server_ = std::make_unique<HttpServer>(net, host, sopts);
  server_->set_handler([this](const http::Request& req, Responder respond) {
    handle(req, respond);
  });
}

std::string DvwaApp::build_query(const std::string& id) const {
  std::string value = id;
  if (opts_.security == Security::kHigh) {
    // Standard quote-doubling sanitisation: the injection becomes inert.
    value = replace_all(value, "'", "''");
  }
  return "SELECT first_name, last_name FROM users WHERE user_id = '" + value +
         "' ORDER BY first_name, last_name;";
}

void DvwaApp::handle(const http::Request& req, Responder respond) {
  if (req.target == "/vulnerabilities/sqli" ||
      starts_with(req.target, "/vulnerabilities/sqli?")) {
    if (req.method == "GET") {
      handle_sqli_get(std::move(respond));
      return;
    }
    if (req.method == "POST") {
      handle_sqli_post(req, std::move(respond));
      return;
    }
  }
  if (req.target == "/" && req.method == "GET") {
    respond(http::make_response(
        200, "<html><body><h1>DVWA-sim</h1>"
             "<a href=\"/vulnerabilities/sqli\">SQL Injection</a>"
             "</body></html>"));
    return;
  }
  respond(http::make_response(404, "<h1>404</h1>"));
}

void DvwaApp::handle_sqli_get(Responder respond) {
  // Fresh CSRF token per page view, from this instance's own CSPRNG —
  // the ephemeral state RDDR's HTTP plugin must manage (paper §IV-B3).
  std::string token = rng_.alnum_token(32);
  live_tokens_.insert(token);
  std::string page =
      "<html><body>\n"
      "<h2>Vulnerability: SQL Injection</h2>\n"
      "<form action=\"/vulnerabilities/sqli\" method=\"POST\">\n"
      "<input type=\"text\" name=\"id\">\n"
      "<input type=\"hidden\" name=\"user_token\" value=\"" + token + "\">\n"
      "<input type=\"submit\" name=\"Submit\" value=\"Submit\">\n"
      "</form>\n"
      "</body></html>\n";
  respond(http::make_response(200, page));
}

void DvwaApp::handle_sqli_post(const http::Request& req, Responder respond) {
  std::string id, token;
  for (const auto& [k, v] : parse_form(req.body)) {
    if (k == "id") id = v;
    if (k == "user_token") token = v;
  }
  auto it = live_tokens_.find(token);
  if (it == live_tokens_.end()) {
    ++token_failures_;
    respond(http::make_response(403, "<h1>CSRF token is incorrect</h1>"));
    return;
  }
  live_tokens_.erase(it);  // tokens are single-use

  // Flow label: the outgoing proxy groups the N instances' DB connections
  // for the SAME logical request by this label. Every instance sees the
  // identical replicated request stream, so a per-instance POST ordinal is
  // a consistent label across instances.
  std::string flow = strformat("sqli-%llu",
                               static_cast<unsigned long long>(sqli_posts_++));
  auto client = std::make_shared<sqldb::PgClient>(
      net_, opts_.instance_name, opts_.db_address, "dvwa", flow);
  std::string sql = build_query(id);
  client->query(sql, [respond, client](sqldb::QueryOutcome out) {
    client->close();
    if (out.connection_lost) {
      respond(http::make_response(
          500, "<h1>Database connection failed</h1>"));
      return;
    }
    if (out.error_sqlstate) {
      respond(http::make_response(
          500, "<h1>Query error</h1><pre>" + out.error_message + "</pre>"));
      return;
    }
    std::string page = "<html><body><h2>Results</h2>\n<table>\n";
    for (const auto& row : out.rows) {
      page += "<tr>";
      for (const auto& col : row)
        page += "<td>" + (col ? *col : std::string("NULL")) + "</td>";
      page += "</tr>\n";
    }
    page += "</table>\n</body></html>\n";
    respond(http::make_response(200, page));
  });
}

}  // namespace rddr::services
