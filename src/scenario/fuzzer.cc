#include "scenario/fuzzer.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "chaos/shrink.h"
#include "common/strutil.h"
#include "netsim/fault.h"
#include "proto/pgwire/pgwire.h"
#include "services/http_service.h"
#include "sqldb/client.h"
#include "workloads/pgbench.h"

namespace rddr::scenario {

namespace {

Bytes valid_startup() {
  return pg::build_startup({{"user", "postgres"}, {"database", "app"}});
}

Bytes http_get(const std::string& target) {
  return strformat("GET %s HTTP/1.1\r\nHost: front\r\n\r\n", target.c_str());
}

AdvStep send_step(Bytes b, sim::Time delay = 0) {
  AdvStep s;
  s.delay = delay;
  s.action = AdvStep::Action::kSend;
  s.bytes = std::move(b);
  return s;
}

AdvStep close_step(sim::Time delay) {
  AdvStep s;
  s.delay = delay;
  s.action = AdvStep::Action::kClose;
  return s;
}

AdvStep abort_step(sim::Time delay) {
  AdvStep s;
  s.delay = delay;
  s.action = AdvStep::Action::kAbort;
  return s;
}

// ---- pgwire payload grammar ----

// 'Q' query message with a lying Int32 length field.
Bytes pg_bad_length_query(Rng& rng) {
  const std::string sql = "SELECT 1";
  Bytes msg = "Q";
  switch (rng.next() % 3) {
    case 0: put_u32_be(msg, 3); break;           // < minimum (4)
    case 1: put_u32_be(msg, 0x7fffff00); break;  // over any sane cap
    default: put_u32_be(msg, 16 * 1024 * 1024 + 5); break;
  }
  msg += sql;
  msg += '\0';
  return msg;
}

Bytes pg_type_flip(Rng& rng) {
  Bytes msg;
  msg += static_cast<char>(rng.next() % 2 ? 0x01 : 0x7f);
  put_u32_be(msg, 8);
  msg += "zzzz";
  return msg;
}

// Raw startup packet with a grammar-level defect.
Bytes pg_bad_startup(Rng& rng) {
  Bytes payload;
  bool lie_about_length = false;
  switch (rng.next() % 3) {
    case 0:  // wrong protocol version
      put_u32_be(payload, 0xdeadbeef);
      payload += "user";
      payload += '\0';
      payload += "postgres";
      payload += '\0';
      payload += '\0';
      break;
    case 1:  // missing params terminator (codec hardening target)
      put_u32_be(payload, 196608);
      payload += "user";
      payload += '\0';
      payload += "postgres";  // no NUL, no terminator
      break;
    default:  // length field over any sane cap
      put_u32_be(payload, 196608);
      payload += "user";
      payload += '\0';
      lie_about_length = true;
      break;
  }
  Bytes msg;
  put_u32_be(msg, lie_about_length
                      ? 64 * 1024 * 1024
                      : static_cast<uint32_t>(payload.size() + 4));
  msg += payload;
  return msg;
}

// ---- http payload grammar ----

// CL.TE desync: strict framing reads Content-Length 4 and then treats the
// smuggled request as a new pipeline element; lenient framing accepts the
// tab-prefixed "chunked" and consumes everything as one body.
Bytes http_smuggle_te_cl() {
  Bytes smuggled =
      "GET /secret HTTP/1.1\r\nHost: front\r\nX-Pad: "
      "0123456789012345678901234567890123456789012345\r\n\r\n";
  Bytes req = strformat(
      "POST /work/1 HTTP/1.1\r\nHost: front\r\nContent-Length: 4\r\n"
      "Transfer-Encoding: \x0b"
      "chunked\r\n\r\n%zx\r\n",
      smuggled.size());
  req += smuggled;
  req += "\r\n0\r\n\r\n";
  return req;
}

Bytes http_cl_corruption(Rng& rng) {
  switch (rng.next() % 3) {
    case 0:
      return "POST /work/2 HTTP/1.1\r\nHost: front\r\n"
             "Content-Length: 512\r\n\r\nshort";
    case 1:
      return "POST /work/2 HTTP/1.1\r\nHost: front\r\n"
             "Content-Length: 99999999999999999999\r\n\r\nx";
    default:
      return "POST /work/2 HTTP/1.1\r\nHost: front\r\n"
             "Content-Length: 4\r\nContent-Length: 11\r\n\r\nAAAABBBBBBB";
  }
}

Bytes http_chunk_corruption(Rng& rng) {
  Bytes head =
      "POST /work/3 HTTP/1.1\r\nHost: front\r\n"
      "Transfer-Encoding: chunked\r\n\r\n";
  switch (rng.next() % 3) {
    case 0: return head + "zz\r\nbody\r\n0\r\n\r\n";
    case 1: return head + "ffffffffffffffff\r\nbody";
    default: return head + Bytes(400, 'f');  // unbounded chunk-size line
  }
}

// ---- plan generation ----

void append_op(std::vector<AdvOp>& ops, MutationFamily family, sim::Time at,
               std::vector<AdvStep> steps) {
  AdvOp op;
  op.family = family;
  op.at = at;
  op.steps = std::move(steps);
  ops.push_back(std::move(op));
}

void gen_pg_op(std::vector<AdvOp>& ops, MutationFamily f, sim::Time at,
               Rng& rng, int accounts) {
  constexpr sim::Time kMs = sim::kMillisecond;
  switch (f) {
    case MutationFamily::kBenignBurst: {
      std::vector<AdvStep> steps{send_step(valid_startup())};
      for (int q = 0; q < 3; ++q)
        steps.push_back(send_step(
            pg::build_query(workloads::pgbench_select_tx(rng, accounts)),
            15 * kMs));
      steps.push_back(send_step(pg::build_terminate(), 15 * kMs));
      steps.push_back(close_step(40 * kMs));
      append_op(ops, f, at, std::move(steps));
      return;
    }
    case MutationFamily::kPgLengthCorruption:
      append_op(ops, f, at,
                {send_step(valid_startup()),
                 send_step(pg_bad_length_query(rng), 30 * kMs),
                 close_step(120 * kMs)});
      return;
    case MutationFamily::kPgTypeFlip:
      append_op(ops, f, at,
                {send_step(valid_startup()),
                 send_step(pg_type_flip(rng), 30 * kMs),
                 close_step(120 * kMs)});
      return;
    case MutationFamily::kPgPipelineAbuse: {
      Bytes pipeline;
      for (int q = 0; q < 8; ++q)
        pipeline +=
            pg::build_query(workloads::pgbench_select_tx(rng, accounts));
      pipeline += pg::build_terminate();
      append_op(ops, f, at,
                {send_step(valid_startup()),
                 send_step(std::move(pipeline), 25 * kMs),
                 close_step(150 * kMs)});
      return;
    }
    case MutationFamily::kPgPartialWrite: {
      Bytes q = pg::build_query("SELECT bid FROM pgbench_branches");
      const size_t cut = 1 + rng.next() % 4;  // inside the length field
      append_op(ops, f, at,
                {send_step(valid_startup()),
                 send_step(q.substr(0, cut), 25 * kMs),
                 send_step(q.substr(cut), 80 * kMs),
                 send_step(pg::build_terminate(), 30 * kMs),
                 close_step(60 * kMs)});
      return;
    }
    case MutationFamily::kPgSlowloris: {
      Bytes q =
          pg::build_query("SELECT aid FROM pgbench_accounts WHERE aid = 1");
      std::vector<AdvStep> steps{send_step(valid_startup())};
      for (size_t i = 0; i < 6 && i < q.size(); ++i)
        steps.push_back(send_step(q.substr(i, 1), 150 * kMs));
      append_op(ops, f, at, std::move(steps));  // never completes, no close
      return;
    }
    case MutationFamily::kPgMidMessageAbort: {
      Bytes q = pg::build_query("SELECT tbalance FROM pgbench_tellers");
      append_op(ops, f, at,
                {send_step(valid_startup()),
                 send_step(q.substr(0, q.size() / 2), 25 * kMs),
                 abort_step(30 * kMs)});
      return;
    }
    case MutationFamily::kPgStartupCorruption:
      append_op(ops, f, at,
                {send_step(pg_bad_startup(rng)), close_step(120 * kMs)});
      return;
    case MutationFamily::kPgSecretProbe:
      append_op(
          ops, f, at,
          {send_step(valid_startup()),
           send_step(pg::build_query("SELECT s FROM secret_t WHERE k = 1"),
                     25 * kMs),
           send_step(pg::build_terminate(), 150 * kMs), close_step(50 * kMs)});
      return;
    default:
      return;
  }
}

void gen_http_op(std::vector<AdvOp>& ops, MutationFamily f, sim::Time at,
                 Rng& rng) {
  constexpr sim::Time kMs = sim::kMillisecond;
  switch (f) {
    case MutationFamily::kBenignBurst: {
      Bytes burst;
      for (int q = 0; q < 3; ++q)
        burst += http_get(strformat(
            "/work/%llu", static_cast<unsigned long long>(rng.next() % 17)));
      append_op(ops, f, at,
                {send_step(std::move(burst)), close_step(250 * kMs)});
      return;
    }
    case MutationFamily::kHttpSmuggleTeCl:
      append_op(ops, f, at,
                {send_step(http_smuggle_te_cl()), close_step(400 * kMs)});
      return;
    case MutationFamily::kHttpClCorruption:
      append_op(ops, f, at,
                {send_step(http_cl_corruption(rng)), close_step(200 * kMs)});
      return;
    case MutationFamily::kHttpChunkCorruption:
      append_op(ops, f, at,
                {send_step(http_chunk_corruption(rng)), close_step(200 * kMs)});
      return;
    case MutationFamily::kHttpPipelineMalformedMiddle: {
      Bytes b = http_get("/work/4");
      b += "NONSENSE\x01\x02 VERB /\r\n\r\n";
      b += http_get("/work/5");
      append_op(ops, f, at, {send_step(std::move(b)), close_step(250 * kMs)});
      return;
    }
    case MutationFamily::kHttpSlowloris: {
      Bytes req = http_get("/work/9");
      std::vector<AdvStep> steps;
      for (size_t i = 0; i < 8 && i < req.size(); ++i)
        steps.push_back(send_step(req.substr(i, 1), i == 0 ? 0 : 150 * kMs));
      append_op(ops, f, at, std::move(steps));  // never completes, no close
      return;
    }
    case MutationFamily::kHttpPartialAbort: {
      Bytes req = http_get("/work/5");
      append_op(
          ops, f, at,
          {send_step(req.substr(0, req.size() / 2)), abort_step(40 * kMs)});
      return;
    }
    case MutationFamily::kHttpSecretProbe:
      // /dbsecret first (reaches the nested pg edge on the diamond; 404
      // elsewhere) — the direct /secret probe severs the session.
      append_op(ops, f, at,
                {send_step(http_get("/dbsecret/1")),
                 send_step(http_get("/secret"), 150 * kMs),
                 close_step(200 * kMs)});
      return;
    default:
      return;
  }
}

// ---- execution ----

struct BenignOutcome {
  bool resolved = false;
  bool served = false;
  Bytes payload;  // concatenated response rows / body, for the leak scan
};

struct AdvSession {
  sim::ConnPtr conn;
  Bytes rx;
};

class FuzzRunner {
 public:
  FuzzRunner(const FuzzPlan& plan, const FuzzOptions& opts)
      : plan_(plan), opts_(opts), net_(sim_, 10 * sim::kMicrosecond) {}

  FuzzReport run() {
    TopologyOptions topts;
    topts.kind = opts_.topology;
    topts.seed = plan_.seed;
    topts.variance = opts_.variance;
    topts.unit_timeout = opts_.unit_timeout;
    topts.idle_timeout = opts_.idle_timeout;
    topts.islands = opts_.islands;
    topts.on_divergence = [this](const core::DivergenceRecord& r) {
      corpus_.push_back(r);
    };
    topo_ = std::make_unique<Topology>(sim_, net_, topts);

    sim::Time last = opts_.benign_window;

    // Benign workload: one tranche inside the pure-benign prefix, one
    // interleaved with the adversarial phase.
    const size_t nb = opts_.benign_sessions;
    benign_.resize(2 * nb);
    pg_clients_.resize(2 * nb);
    http_clients_.resize(2 * nb);
    for (size_t i = 0; i < nb; ++i) {
      const sim::Time at =
          100 * sim::kMillisecond +
          (nb > 1 ? (opts_.benign_window - 500 * sim::kMillisecond) * i /
                        (nb - 1)
                  : sim::Time{0});
      sim_.schedule_at(at, [this, i] { start_benign(i); });
    }
    for (size_t i = 0; i < nb; ++i) {
      const sim::Time at = opts_.benign_window + 43 * sim::kMillisecond +
                           137 * sim::kMillisecond * i;
      sim_.schedule_at(at, [this, i, nb] { start_benign(nb + i); });
      last = std::max(last, at);
    }

    // Adversarial sessions.
    adv_.resize(plan_.ops.size());
    for (size_t i = 0; i < plan_.ops.size(); ++i) {
      sim_.schedule_at(plan_.ops[i].at, [this, i] { start_op(i); });
      sim::Time end = plan_.ops[i].at;
      for (const AdvStep& s : plan_.ops[i].steps) end += s.delay;
      // Slowloris sessions stay open until the idle shed fires.
      last = std::max(last, end + opts_.idle_timeout);
    }

    // Composed environmental chaos on backend nodes.
    std::unique_ptr<sim::FaultPlan> faults;
    if (opts_.compose_faults) {
      faults = std::make_unique<sim::FaultPlan>(net_);
      Rng frng(plan_.seed ^ 0xfa017ULL);
      const auto& nodes = topo_->backend_nodes();
      for (size_t j = 0; j < nodes.size(); ++j) {
        const sim::Time t0 =
            opts_.benign_window + (97 + 311 * j) * sim::kMillisecond;
        faults->latency_spike(t0, 200 * sim::kMillisecond, nodes[j],
                              (100 + frng.next() % 300) * sim::kMicrosecond);
        if (j % 2 == 0)
          faults->stall_egress(t0 + 650 * sim::kMillisecond,
                               150 * sim::kMillisecond, nodes[j]);
        last = std::max(last, t0 + 900 * sim::kMillisecond);
      }
    }

    sim_.run_until(last + opts_.settle);
    return finish();
  }

 private:
  void start_benign(size_t i) {
    ++issued_;
    Rng qrng(plan_.seed * 1000003ULL + i);
    if (topo_->pg_entry()) {
      auto c = std::make_unique<sqldb::PgClient>(
          net_, strformat("client-%zu", i), topo_->entry(), "postgres");
      sqldb::PgClient* cp = c.get();
      pg_clients_[i] = std::move(c);
      cp->query(topo_->benign_request(i, qrng),
                [this, i, cp](sqldb::QueryOutcome o) {
                  BenignOutcome& b = benign_[i];
                  b.resolved = true;
                  b.served = !o.failed();
                  for (const auto& row : o.rows)
                    for (const auto& cell : row)
                      if (cell) b.payload += *cell;
                  cp->close();
                });
    } else {
      auto c = std::make_unique<services::HttpClient>(
          net_, strformat("client-%zu", i));
      services::HttpClient* cp = c.get();
      http_clients_[i] = std::move(c);
      cp->get(topo_->entry(), topo_->benign_request(i, qrng),
              [this, i](int status, const http::Response* r) {
                BenignOutcome& b = benign_[i];
                b.resolved = true;
                // 403 is the edge's intervention response, 503 the
                // overload shed — only a real app success counts.
                b.served = status == 200;
                if (r) b.payload += r->body;
              });
    }
  }

  void start_op(size_t i) {
    sim::ConnectMeta meta;
    meta.source = strformat("adv-%zu", i);
    AdvSession& s = adv_[i];
    s.conn = net_.connect(topo_->entry(), meta);
    if (!s.conn) return;  // refused (e.g. front-tier shed) — nothing to drive
    AdvSession* sp = &s;
    s.conn->set_on_data([sp](ByteView data) { sp->rx.append(data); });
    if (!plan_.ops[i].steps.empty()) step(i, 0);
  }

  void step(size_t i, size_t j) {
    const AdvStep& st = plan_.ops[i].steps[j];
    sim_.schedule(st.delay, [this, i, j] {
      AdvSession& s = adv_[i];
      const AdvStep& cur = plan_.ops[i].steps[j];
      if (s.conn && s.conn->is_open()) {
        switch (cur.action) {
          case AdvStep::Action::kSend: s.conn->send(cur.bytes); break;
          case AdvStep::Action::kClose: s.conn->close(); break;
          case AdvStep::Action::kAbort: s.conn->abort(); break;
        }
      }
      if (j + 1 < plan_.ops[i].steps.size()) step(i, j + 1);
    });
  }

  FuzzReport finish() {
    FuzzReport r;
    r.benign_until = opts_.benign_window;
    r.topology_desc = topo_->describe();

    r.issued = issued_;
    for (const BenignOutcome& b : benign_) {
      if (!b.resolved) continue;
      if (b.served)
        ++r.served;
      else
        ++r.refused;
    }
    r.lost = r.issued - r.served - r.refused;

    const core::ProxyStats st = topo_->stats();
    r.interventions = topo_->divergences();
    r.quorum_outvotes = st.quorum_outvotes;
    r.idle_sheds = st.idle_sheds;
    r.unit_timeouts = st.timeouts;
    r.corpus = std::move(corpus_);

    // Invariant 1: no version-keyed byte reaches any client.
    for (size_t i = 0; i < adv_.size(); ++i) {
      if (adv_[i].rx.find(kSecretMarker) != Bytes::npos)
        r.violations.push_back(strformat(
            "leak: op %zu (%s) received the secret marker (%zu rx bytes)", i,
            family_name(plan_.ops[i].family), adv_[i].rx.size()));
    }
    for (size_t i = 0; i < benign_.size(); ++i) {
      if (benign_[i].payload.find(kSecretMarker) != Bytes::npos)
        r.violations.push_back(strformat(
            "leak: benign session %zu received the secret marker", i));
    }

    // Invariant 2: no hung proxy sessions after the settle window.
    const size_t live = topo_->active_sessions();
    if (live > 0)
      r.violations.push_back(
          strformat("hang: %zu proxy sessions still live after settle", live));

    // Invariant 3: every benign request resolved, one way or the other.
    if (r.lost > 0)
      r.violations.push_back(strformat(
          "lost: %llu benign requests never resolved (issued=%llu "
          "served=%llu refused=%llu)",
          static_cast<unsigned long long>(r.lost),
          static_cast<unsigned long long>(r.issued),
          static_cast<unsigned long long>(r.served),
          static_cast<unsigned long long>(r.refused)));

    return r;
  }

  FuzzPlan plan_;
  FuzzOptions opts_;
  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<Topology> topo_;
  std::vector<core::DivergenceRecord> corpus_;
  std::vector<BenignOutcome> benign_;
  std::vector<std::unique_ptr<sqldb::PgClient>> pg_clients_;
  std::vector<std::unique_ptr<services::HttpClient>> http_clients_;
  std::vector<AdvSession> adv_;
  uint64_t issued_ = 0;
};

}  // namespace

const char* family_name(MutationFamily f) {
  switch (f) {
    case MutationFamily::kBenignBurst: return "benign-burst";
    case MutationFamily::kPgLengthCorruption: return "pg-length-corruption";
    case MutationFamily::kPgTypeFlip: return "pg-type-flip";
    case MutationFamily::kPgPipelineAbuse: return "pg-pipeline-abuse";
    case MutationFamily::kPgPartialWrite: return "pg-partial-write";
    case MutationFamily::kPgSlowloris: return "pg-slowloris";
    case MutationFamily::kPgMidMessageAbort: return "pg-mid-message-abort";
    case MutationFamily::kPgStartupCorruption: return "pg-startup-corruption";
    case MutationFamily::kPgSecretProbe: return "pg-secret-probe";
    case MutationFamily::kHttpSmuggleTeCl: return "http-smuggle-te-cl";
    case MutationFamily::kHttpClCorruption: return "http-cl-corruption";
    case MutationFamily::kHttpChunkCorruption: return "http-chunk-corruption";
    case MutationFamily::kHttpPipelineMalformedMiddle:
      return "http-pipeline-malformed-middle";
    case MutationFamily::kHttpSlowloris: return "http-slowloris";
    case MutationFamily::kHttpPartialAbort: return "http-partial-abort";
    case MutationFamily::kHttpSecretProbe: return "http-secret-probe";
  }
  return "?";
}

std::vector<MutationFamily> families_for(bool pg_entry) {
  if (pg_entry)
    return {MutationFamily::kBenignBurst,
            MutationFamily::kPgLengthCorruption,
            MutationFamily::kPgTypeFlip,
            MutationFamily::kPgPipelineAbuse,
            MutationFamily::kPgPartialWrite,
            MutationFamily::kPgSlowloris,
            MutationFamily::kPgMidMessageAbort,
            MutationFamily::kPgStartupCorruption,
            MutationFamily::kPgSecretProbe};
  return {MutationFamily::kBenignBurst,
          MutationFamily::kHttpSmuggleTeCl,
          MutationFamily::kHttpClCorruption,
          MutationFamily::kHttpChunkCorruption,
          MutationFamily::kHttpPipelineMalformedMiddle,
          MutationFamily::kHttpSlowloris,
          MutationFamily::kHttpPartialAbort,
          MutationFamily::kHttpSecretProbe};
}

std::string describe(const AdvOp& op) {
  std::string out = strformat(
      "t=%lldms %s:",
      static_cast<long long>(op.at / sim::kMillisecond), family_name(op.family));
  for (const AdvStep& s : op.steps) {
    switch (s.action) {
      case AdvStep::Action::kSend:
        out += strformat(" +%lldms send %zuB/%08llx",
                         static_cast<long long>(s.delay / sim::kMillisecond),
                         s.bytes.size(),
                         static_cast<unsigned long long>(fnv1a64(s.bytes) &
                                                         0xffffffffULL));
        break;
      case AdvStep::Action::kClose:
        out += strformat(" +%lldms close",
                         static_cast<long long>(s.delay / sim::kMillisecond));
        break;
      case AdvStep::Action::kAbort:
        out += strformat(" +%lldms abort",
                         static_cast<long long>(s.delay / sim::kMillisecond));
        break;
    }
  }
  return out;
}

std::string describe(const FuzzPlan& plan) {
  std::string out = strformat("fuzz plan seed=%llu topology=%s ops=%zu\n",
                              static_cast<unsigned long long>(plan.seed),
                              Topology::kind_name(plan.topology),
                              plan.ops.size());
  for (const AdvOp& op : plan.ops) out += "  " + describe(op) + "\n";
  return out;
}

FuzzPlan generate_fuzz_plan(uint64_t seed, const FuzzOptions& opts) {
  FuzzPlan plan;
  plan.seed = seed;
  plan.topology = opts.topology;

  Rng rng(seed ^ 0xf0220ULL);
  const bool pg = opts.topology == 0;
  const std::vector<MutationFamily> families = families_for(pg);
  const int accounts = 50;  // matches Topology's pgbench load

  sim::Time at = opts.benign_window + 60 * sim::kMillisecond;
  for (int round = 0; round < opts.ops_per_family; ++round) {
    for (MutationFamily f : families) {
      Rng op_rng = rng.fork(static_cast<uint64_t>(f) * 1000 +
                            static_cast<uint64_t>(round));
      if (pg)
        gen_pg_op(plan.ops, f, at, op_rng, accounts);
      else
        gen_http_op(plan.ops, f, at, op_rng);
      at += 120 * sim::kMillisecond;
    }
  }
  return plan;
}

FuzzReport run_fuzz(const FuzzPlan& plan, const FuzzOptions& opts) {
  FuzzRunner runner(plan, opts);
  return runner.run();
}

FuzzReport run_fuzz_seed(uint64_t seed, const FuzzOptions& opts) {
  return run_fuzz(generate_fuzz_plan(seed, opts), opts);
}

FuzzPlan shrink_fuzz_plan(const FuzzPlan& plan, const FuzzOptions& opts) {
  const auto fails = [&](const std::vector<AdvOp>& ops) {
    FuzzPlan candidate = plan;
    candidate.ops = ops;
    return !run_fuzz(candidate, opts).ok();
  };
  if (!fails(plan.ops)) return plan;

  FuzzPlan shrunk = plan;
  // Pass 1: drop whole adversarial sessions.
  shrunk.ops = chaos::shrink_drop_pass(shrunk.ops, fails);
  // Pass 2: drop individual steps within each surviving session.
  for (size_t i = 0; i < shrunk.ops.size(); ++i) {
    shrunk.ops[i].steps = chaos::shrink_drop_pass(
        shrunk.ops[i].steps, [&](const std::vector<AdvStep>& steps) {
          FuzzPlan candidate = shrunk;
          candidate.ops[i].steps = steps;
          return !run_fuzz(candidate, opts).ok();
        });
  }
  return shrunk;
}

std::string FuzzReport::summary() const {
  std::string out = strformat(
      "%s issued=%llu served=%llu refused=%llu lost=%llu "
      "interventions=%llu outvotes=%llu idle_sheds=%llu unit_timeouts=%llu "
      "corpus=%zu\n",
      ok() ? "ok" : "FAIL", static_cast<unsigned long long>(issued),
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(refused),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(interventions),
      static_cast<unsigned long long>(quorum_outvotes),
      static_cast<unsigned long long>(idle_sheds),
      static_cast<unsigned long long>(unit_timeouts), corpus.size());
  for (const std::string& v : violations) out += "  violation: " + v + "\n";
  return out;
}

}  // namespace rddr::scenario
