// HTTP microservice framework over netsim: server with per-request CPU
// accounting, and a small client for tests/workloads.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "netsim/host.h"
#include "netsim/network.h"
#include "proto/http/message.h"
#include "proto/http/parser.h"

namespace rddr::services {

/// Sends exactly one response for the request being handled. Safe to call
/// from a later event (async handlers).
using Responder = std::function<void(http::Response)>;

/// Request handler; must eventually invoke the responder exactly once.
using HttpHandler =
    std::function<void(const http::Request&, Responder)>;

/// A simulated HTTP/1.1 server container.
class HttpServer {
 public:
  struct Options {
    std::string address;
    http::ParserOptions parser;
    /// CPU seconds charged per request before the handler runs.
    double cpu_per_request = 50e-6;
  };

  HttpServer(sim::Network& net, sim::Host& host, Options opts);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Installs the request handler (must be set before traffic arrives).
  void set_handler(HttpHandler handler) { handler_ = std::move(handler); }

  const Options& options() const { return opts_; }
  uint64_t requests_served() const { return requests_served_; }

  sim::Network& network() { return net_; }
  sim::Host& host() { return host_; }

 private:
  struct Conn;
  void on_accept(sim::ConnPtr conn);
  void pump(const std::shared_ptr<Conn>& c);

  sim::Network& net_;
  sim::Host& host_;
  Options opts_;
  HttpHandler handler_;
  uint64_t requests_served_ = 0;
};

/// Minimal async HTTP client: one connection per request.
class HttpClient {
 public:
  using Callback = std::function<void(int status, const http::Response*)>;

  HttpClient(sim::Network& net, std::string source_name);

  /// Issues `req` to `address`. On success invokes cb(status, &response);
  /// on connection failure/abort invokes cb(-1, nullptr).
  void request(const std::string& address, http::Request req, Callback cb);

  /// Convenience GET.
  void get(const std::string& address, const std::string& target, Callback cb);

 private:
  sim::Network& net_;
  std::string source_;
};

}  // namespace rddr::services
