// Table I replayed through a whole protected service graph: execution-index
// attribution (common/exec_index.h) end to end.
//
// The original table1_mitigations bench proves each CVE row is blocked by
// an isolated deployment. This bench asks the question the attribution API
// was built for: when the same exploit classes fire inside a THREE-TIER
// graph (client -> RDDR(http) -> 3x app -> 2 mids -> RDDR(pgwire) -> 3x
// minipg, scenario topology kind 2), can every divergence be pinned to the
// exact (request, hop, call site)?
//
// Each Table I row is replayed as one probe with an explicit trace id:
//   * rows whose exploit lives in the data tier (SQLi, RLS bypass, planner
//     leak) hit /dbsecret, so the version-keyed secret diverges at the
//     INNER pgwire edge — two tiers away from the client;
//   * rows whose exploit lives at the web tier (XSS, smuggling, header
//     handling, ASLR leak) hit /secret and diverge at the OUTER http edge.
// The bench asserts, per row:
//   * at least one intervention record on the expected proxy;
//   * the record's trace id is the probe's (request attribution);
//   * the record's execution index has the expected depth and its root
//     frame is the originating edge request (hop attribution);
//   * the leaf site equals the independently recomputed
//     ExecutionIndex::site_id of the call site that issued the diverging
//     hop (call-site attribution) — for inner rows that is mid-0's dial
//     of "inner:5432", a call site RDDR never sees directly.
// Then cross-cutting:
//   * per-callsite dedup: all web-tier rows collapse to ONE attribution
//     key, and every data-tier intervention collapses onto mid-0's dial
//     site however many request paths (3 app instances) crossed it;
//   * determinism: a second replay in the same process renders a
//     byte-identical attribution report.
//
// Full runs print a JSON summary (pinned by ctest as
// tests/golden/paper/table1_graph/stdout); any violated invariant exits
// nonzero.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/exec_index.h"
#include "common/strutil.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "proto/http/message.h"
#include "rddr/divergence.h"
#include "scenario/topology.h"

namespace {

namespace sim = rddr::sim;
namespace http = rddr::http;
using rddr::ExecutionIndex;
using rddr::strformat;
using rddr::core::DivergenceRecord;
using rddr::scenario::Topology;
using rddr::scenario::TopologyOptions;

constexpr uint64_t kTraceBase = 0x7ab1e000;

struct Row {
  const char* id;      // Table I row
  const char* target;  // probe request into the graph
  bool inner;          // true: diverges at the inner pgwire edge
};

// All ten Table I rows, mapped onto the tier their exploit class lives in.
const Row kRows[] = {
    {"CVE-2017-7484", "/dbsecret", true},    // planner stats leak (pg)
    {"CVE-2017-7529", "/secret", false},     // nginx range overflow (web)
    {"CVE-2019-10130", "/dbsecret", true},   // RLS bypass (pg)
    {"CVE-2019-18277", "/secret", false},    // HAProxy smuggling (web)
    {"CVE-2014-3146", "/secret", false},     // XSS via lax sanitizer (web)
    {"CVE-2020-10799", "/secret", false},    // XXE in svg conversion (web)
    {"CVE-2020-13757", "/secret", false},    // risky-crypto padding (web)
    {"CVE-2020-11888", "/secret", false},    // XSS via markdown (web)
    {"DVWA-SQLi", "/dbsecret", true},        // SQL injection (pg)
    {"ASLR-POC", "/secret", false},          // pointer leak (web)
};
constexpr size_t kNumRows = sizeof(kRows) / sizeof(kRows[0]);

struct Replay {
  std::string report;                         // the determinism surface
  std::vector<std::vector<DivergenceRecord>> per_row;  // by Table I row
};

/// Runs the whole replay and renders the attribution report. Everything in
/// the report is a pure function of the simulated execution, so every
/// replay must produce identical bytes.
Replay run_replay() {
  sim::Simulator sim;
  sim::Network net(sim, 10 * sim::kMicrosecond);

  TopologyOptions topts;
  topts.kind = 2;  // http-diamond-pg: the three-tier graph
  topts.seed = 42;
  // Miner-tuned variance: the per-version build stamps are known-benign,
  // so the only divergences left are the planted secrets — one per row.
  topts.variance.pg_ignore_params.push_back("build_sha");
  topts.variance.http_ignore_headers.push_back("X-Backend-Build");
  std::vector<DivergenceRecord> records;
  topts.on_divergence = [&records](const DivergenceRecord& r) {
    records.push_back(r);
  };
  Topology topo(sim, net, topts);

  // One probe per row, 150ms apart, each carrying its own trace id so
  // records attribute to rows by flow identity rather than timing.
  std::vector<sim::ConnPtr> probes(kNumRows);
  for (size_t i = 0; i < kNumRows; ++i) {
    sim.schedule_at(100 * sim::kMillisecond + i * 150 * sim::kMillisecond,
                    [&net, &topo, &probes, i] {
                      sim::ConnectMeta meta;
                      meta.source = strformat("probe-%zu", i);
                      meta.flow.trace_id = kTraceBase + i;
                      probes[i] = net.connect(topo.entry(), meta);
                      if (!probes[i]) return;
                      http::Request req;
                      req.method = "GET";
                      req.target = kRows[i].target;
                      req.headers.set("Host", "front");
                      probes[i]->send(req.to_bytes());
                    });
  }
  sim.run_until(100 * sim::kMillisecond + kNumRows * 150 * sim::kMillisecond +
                1 * sim::kSecond);

  Replay out;
  out.per_row.resize(kNumRows);
  for (const DivergenceRecord& r : records) {
    if (r.trace_id >= kTraceBase && r.trace_id < kTraceBase + kNumRows)
      out.per_row[r.trace_id - kTraceBase].push_back(r);
  }
  for (size_t i = 0; i < kNumRows; ++i) {
    out.report += strformat("%s %s\n", kRows[i].id, kRows[i].target);
    for (const DivergenceRecord& r : out.per_row[i]) {
      out.report += strformat(
          "  %s %s key=%s idx=%s trace=%llx reason=%s\n", r.proxy.c_str(),
          r.verdict.c_str(), rddr::core::attribution_key(r).c_str(),
          r.index.describe().c_str(),
          static_cast<unsigned long long>(r.trace_id), r.reason.c_str());
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  // Expected call sites, recomputed independently of the data plane.
  const uint64_t edge_site = ExecutionIndex::site_id("edge-http", "front:80");
  const uint64_t mid0_site = ExecutionIndex::site_id("mid-0", "inner:5432");

  int failures = 0;
  auto fail = [&failures](const std::string& why) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    ++failures;
  };

  Replay base = run_replay();

  // Per-row attribution: expected proxy, trace, hop depth, root, leaf.
  for (size_t i = 0; i < kNumRows; ++i) {
    const Row& row = kRows[i];
    const char* want_proxy = row.inner ? "edge-inner-pg" : "edge-http";
    const uint64_t want_leaf = row.inner ? mid0_site : edge_site;
    const size_t want_depth = row.inner ? 3 : 1;
    size_t matched = 0;
    for (const DivergenceRecord& r : base.per_row[i]) {
      if (r.verdict != "intervention") continue;
      if (r.proxy != want_proxy)
        fail(strformat("%s: record on proxy %s, want %s", row.id,
                       r.proxy.c_str(), want_proxy));
      if (r.index.depth() != want_depth)
        fail(strformat("%s: index depth %zu, want %zu (idx=%s)", row.id,
                       r.index.depth(), want_depth,
                       r.index.describe().c_str()));
      if (r.index.empty() || r.index.root().site != edge_site)
        fail(strformat("%s: root frame is not the originating edge request "
                       "(idx=%s)",
                       row.id, r.index.describe().c_str()));
      if (r.index.leaf_site() != want_leaf)
        fail(strformat("%s: leaf site %llx, want %llx", row.id,
                       static_cast<unsigned long long>(r.index.leaf_site()),
                       static_cast<unsigned long long>(want_leaf)));
      ++matched;
    }
    if (matched == 0)
      fail(strformat("%s: no intervention attributed to trace %llx", row.id,
                     static_cast<unsigned long long>(kTraceBase + i)));
  }

  // Per-callsite dedup: the seven web-tier rows — and every repeat of the
  // same exploit class — collapse onto ONE attribution key; every
  // data-tier intervention lands on mid-0's dial site no matter which of
  // the three app instances' request paths crossed it.
  std::map<std::string, uint64_t> outer_keys, inner_keys;
  size_t outer_records = 0, inner_records = 0;
  for (const auto& row_records : base.per_row) {
    for (const DivergenceRecord& r : row_records) {
      if (r.verdict != "intervention") continue;
      if (r.proxy == "edge-http") {
        ++outer_keys[rddr::core::attribution_key(r)];
        ++outer_records;
      } else {
        ++inner_keys[rddr::core::attribution_key(r)];
        ++inner_records;
      }
    }
  }
  if (outer_keys.size() != 1)
    fail(strformat("web-tier rows span %zu attribution keys, want 1",
                   outer_keys.size()));
  if (inner_keys.size() != 1)
    fail(strformat("data-tier rows span %zu attribution keys, want 1",
                   inner_keys.size()));

  // Determinism: a repeat replay renders the same attribution report.
  const bool deterministic = run_replay().report == base.report;
  if (!deterministic) fail("attribution report differs on a repeat replay");

  std::fprintf(stderr, "%s", base.report.c_str());
  std::fprintf(stderr,
               "table1 graph replay: %zu rows, %zu web-tier + %zu data-tier "
               "interventions, %zu+%zu attribution keys, repeat replay %s\n",
               kNumRows, outer_records, inner_records, outer_keys.size(),
               inner_keys.size(),
               deterministic ? "byte-identical" : "DIVERGED");

  if (!smoke) {
    std::printf("{\n  \"rows\": [\n");
    for (size_t i = 0; i < kNumRows; ++i) {
      size_t interventions = 0;
      for (const DivergenceRecord& r : base.per_row[i])
        if (r.verdict == "intervention") ++interventions;
      std::printf("    {\"id\": \"%s\", \"target\": \"%s\", \"edge\": "
                  "\"%s\", \"interventions\": %zu}%s\n",
                  kRows[i].id, kRows[i].target,
                  kRows[i].inner ? "edge-inner-pg" : "edge-http",
                  interventions, i + 1 < kNumRows ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"edge_callsite\": \"%llx\",\n",
                static_cast<unsigned long long>(edge_site));
    std::printf("  \"mid0_callsite\": \"%llx\",\n",
                static_cast<unsigned long long>(mid0_site));
    std::printf("  \"web_tier_attribution_keys\": %zu,\n", outer_keys.size());
    std::printf("  \"data_tier_attribution_keys\": %zu,\n", inner_keys.size());
    std::printf("  \"replays_checked\": 2,\n");
    std::printf("  \"deterministic\": %s,\n", deterministic ? "true" : "false");
    std::printf("  \"failures\": %d\n}\n", failures);
  }
  return failures == 0 ? 0 : 1;
}
