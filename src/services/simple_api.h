// "S1": the internal API service behind the reverse proxies (paper §V-C1).
//
// Exposes a public endpoint and an /admin endpoint that must only ever be
// reached by deployment-internal callers; the reverse proxies enforce that
// with a path ACL. Its request parser is LENIENT about Transfer-Encoding
// whitespace (gunicorn-style), which completes the CVE-2019-18277 framing
// disagreement.
#pragma once

#include <memory>
#include <string>

#include "services/http_service.h"

namespace rddr::services {

class SimpleApiService {
 public:
  struct Options {
    std::string address;
    double cpu_per_request = 20e-6;
  };

  SimpleApiService(sim::Network& net, sim::Host& host, Options opts);

  uint64_t admin_hits() const { return admin_hits_; }

 private:
  std::unique_ptr<HttpServer> server_;
  uint64_t admin_hits_ = 0;
};

}  // namespace rddr::services
