// GitLab-like composite deployment (paper §V-F, Figure 3).
//
// Nine containers mirroring the paper's simplified GitLab architecture:
// ingress (nginx), gitlab-shell, workhorse, puma (rails), sidekiq,
// gitaly, pages, registry — plus the Postgres microservice, which is the
// one component the paper N-versions behind RDDR. The app issues real SQL
// (projects/users) through whatever db address it is given, so pointing
// `db_address` at an RDDR incoming proxy N-versions the database without
// the app noticing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "services/http_service.h"
#include "services/reverse_proxy.h"
#include "sqldb/client.h"
#include "sqldb/engine.h"

namespace rddr::services {

class GitlabApp {
 public:
  struct Options {
    /// Public entry point (the ingress proxy listens here).
    std::string ingress_address = "gitlab:80";
    /// Where the app believes Postgres lives (RDDR incoming proxy when
    /// N-versioned).
    std::string db_address = "gitlab-db:5432";
    /// Sidekiq background-job cadence (0 disables).
    sim::Time sidekiq_interval = 500 * sim::kMillisecond;
    double cpu_per_request = 150e-6;
  };

  GitlabApp(sim::Network& net, sim::Host& host, Options opts);
  ~GitlabApp();

  /// Initializes the GitLab schema + seed rows on one database replica
  /// (call once per replica, directly against its engine).
  static void init_schema(sqldb::Database& db);

  /// Container count in this composite (the Fig-3 overhead argument).
  size_t container_count() const { return 8; }

  uint64_t sidekiq_jobs_run() const { return sidekiq_jobs_; }
  uint64_t sidekiq_job_failures() const { return sidekiq_failures_; }

  void stop_sidekiq();

 private:
  void handle_puma(const http::Request& req, Responder respond);
  void schedule_sidekiq();

  sim::Network& net_;
  sim::Host& host_;
  Options opts_;
  std::unique_ptr<ReverseProxy> ingress_;      // nginx ingress
  std::unique_ptr<HttpServer> workhorse_;      // request shaping tier
  std::unique_ptr<HttpServer> puma_;           // rails app
  std::unique_ptr<HttpServer> shell_;          // gitlab-shell (ssh facade)
  std::unique_ptr<HttpServer> gitaly_;         // repo storage rpc
  std::unique_ptr<HttpServer> pages_;          // static pages
  std::unique_ptr<HttpServer> registry_;       // container registry
  uint64_t puma_flow_counter_ = 0;
  uint64_t sidekiq_event_ = 0;
  uint64_t sidekiq_jobs_ = 0;
  uint64_t sidekiq_failures_ = 0;
};

}  // namespace rddr::services
