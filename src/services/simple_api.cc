#include "services/simple_api.h"

namespace rddr::services {

namespace {
/// What /admin discloses to whoever reaches it.
constexpr const char* kAdminSecret = "SECRET-ADMIN-TOKEN-4242";
}  // namespace

SimpleApiService::SimpleApiService(sim::Network& net, sim::Host& host,
                                   Options opts) {
  HttpServer::Options sopts;
  sopts.address = std::move(opts.address);
  sopts.cpu_per_request = opts.cpu_per_request;
  // Lenient backend framing: isspace() trimming recognises "\x0bchunked".
  sopts.parser.te_whitespace = http::TeWhitespace::kAnyWhitespace;
  sopts.parser.reject_te_and_cl = false;
  server_ = std::make_unique<HttpServer>(net, host, sopts);
  server_->set_handler([this](const http::Request& req, Responder respond) {
    if (req.target == "/admin") {
      // Reachable only by internal callers — the proxies' ACL is the sole
      // guard, which is exactly what request smuggling defeats.
      ++admin_hits_;
      respond(http::make_response(200, kAdminSecret, "text/plain"));
      return;
    }
    if (req.target == "/" || req.target == "/api/echo") {
      respond(http::make_response(200, "public ok: " + req.body, "text/plain"));
      return;
    }
    respond(http::make_response(404, "not found", "text/plain"));
  });
}

}  // namespace rddr::services
