// DVWA-like vulnerable web app (paper §V-B).
//
// Reproduces the slice of Damn Vulnerable Web App the paper evaluates: an
// SQL-injection demo page protected by CSRF tokens, configurable input
// sanitisation levels, and an *external* database so the frontend can be
// N-versioned behind RDDR while the single backend DB sits behind the
// outgoing request proxy.
//
// Flow (matches the paper's description):
//   GET  /vulnerabilities/sqli           -> form + fresh CSRF user_token
//   POST /vulnerabilities/sqli           -> validates token, runs the query
//
// Security levels:
//   kLow  : the id parameter is spliced into the SQL string verbatim
//           (the injection).
//   kHigh : quotes are doubled (standard SQL escaping) — inert injection.
//
// The paper's deployment: two kLow instances form the filter pair, one
// kHigh instance is the diverse member; injected input makes the kHigh
// instance emit a *different SQL string*, which the outgoing proxy catches.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "common/rng.h"
#include "services/http_service.h"
#include "sqldb/client.h"

namespace rddr::services {

class DvwaApp {
 public:
  enum class Security { kLow, kHigh };

  struct Options {
    std::string address;
    /// Where this instance believes the database lives (in the paper's
    /// deployment: the RDDR outgoing proxy).
    std::string db_address;
    Security security = Security::kLow;
    /// Per-instance CSPRNG stream for CSRF tokens.
    uint64_t rng_seed = 1;
    std::string instance_name = "dvwa";
    double cpu_per_request = 100e-6;
  };

  DvwaApp(sim::Network& net, sim::Host& host, Options opts);

  /// SQL text this instance would send for a given raw id input (exposed
  /// for tests documenting the sanitisation difference).
  std::string build_query(const std::string& id) const;

  uint64_t token_failures() const { return token_failures_; }

 private:
  void handle(const http::Request& req, Responder respond);
  void handle_sqli_get(Responder respond);
  void handle_sqli_post(const http::Request& req, Responder respond);

  sim::Network& net_;
  Options opts_;
  Rng rng_;
  std::unique_ptr<HttpServer> server_;
  std::set<std::string> live_tokens_;
  uint64_t token_failures_ = 0;
  uint64_t sqli_posts_ = 0;
};

}  // namespace rddr::services
