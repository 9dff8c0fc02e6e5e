// perfbench: the repository benchmark. Runs one named workload through the
// public APIs for a fixed host-time budget and prints, as the last stdout
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--wrong-reference]
//
// Work happens in rounds. A round sets the deployment up from scratch
// (timed as setup_s), runs every generated transaction (the run phase) and
// checks the outputs. Each round runs in a forked child, so every round
// starts from the same heap and its peak resident set is its own.
// --trace 0 prints the end-to-end metrics from untraced rounds. --trace 1
// prints the per-layer metrics: untraced baseline rounds, rounds with the
// measuring shims on, a round with an obs::Tracer, and off-line replays of
// the recorded units and SQL (README.md has the map).
// --tiny shrinks every workload for the self-test; --wrong-reference adds
// one UPDATE to the durable workload's reference so its check must fail.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/strutil.h"
#include "replay.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr size_t kMaxReplayScripts = 4000;

// ---- machine-speed probe ------------------------------------------------

/// The probe's time on the reference machine: host timings are scaled to
/// it (README.md, "Rounds and estimators").
constexpr double kReferenceProbeS = 1e-3;
constexpr int kProbeReps = 5;
constexpr int kProbeSteps = 120000;
constexpr uint32_t kProbeMask = (1u << 17) - 1;  // a 512 KiB table

/// One random cycle through the probe table, the same on every run.
const std::vector<uint32_t>& probe_table() {
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> order(kProbeMask + 1);
    for (uint32_t i = 0; i <= kProbeMask; ++i) order[i] = i;
    uint64_t x = 0x9120be;  // splitmix64, independent of the program's Rng
    for (uint32_t i = kProbeMask; i > 0; --i) {
      uint64_t z = (x += 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      std::swap(order[i], order[(z ^ (z >> 31)) % (i + 1)]);
    }
    std::vector<uint32_t> t(kProbeMask + 1);
    for (uint32_t i = 0; i <= kProbeMask; ++i)
      t[order[i]] = order[(i + 1) & kProbeMask];
    return t;
  }();
  return next;
}

/// Host seconds of one run of a fixed kernel: dependent loads, hashing
/// and data-dependent branches. It allocates nothing and calls nothing of
/// the program, so only the machine moves it.
double probe_once() {
  const std::vector<uint32_t>& next = probe_table();
  const uint64_t t0 = now_ns();
  uint32_t i = 0;
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int k = 0; k < kProbeSteps; ++k) {
    i = next[i];
    h = (h ^ i) * 0xff51afd7ed558ccdull;
    if ((h >> 62) == 0) i = next[(i + static_cast<uint32_t>(h)) & kProbeMask];
  }
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  if (h == 1) std::fputc(' ', stderr);  // keeps the loop's result live
  return s;
}

/// The fastest of kProbeReps probes. A round that runs `threads` threads
/// goes at the pace of its slowest vCPU, so each probe runs on as many
/// threads at once, started together, and counts its slowest.
double probe_s(size_t threads) {
  double best = 1e9;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    std::vector<double> took(threads);
    std::atomic<size_t> ready{0};
    auto run = [&](size_t k) {
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      took[k] = probe_once();
    };
    std::vector<std::thread> helpers;
    for (size_t k = 1; k < threads; ++k) helpers.emplace_back(run, k);
    run(0);
    for (auto& t : helpers) t.join();
    best = std::min(best, *std::max_element(took.begin(), took.end()));
  }
  return best;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  bool wrong_reference = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--tiny") {
      a->tiny = true;
    } else if (k == "--wrong-reference") {
      a->wrong_reference = true;
    } else if (i + 1 < argc && (k == "--workload" || k == "--seed" ||
                                k == "--seconds" || k == "--trace")) {
      const char* v = argv[++i];
      if (k == "--workload") a->workload = v;
      if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
      if (k == "--seconds") a->seconds = std::atof(v);
      if (k == "--trace") a->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

// ---- one round in a child process ---------------------------------------

/// What the parent learns from one round.
struct Outcome {
  RoundResult r;  // numbers, check failures and signature only
  DiffReplay diff;
  SqlReplay sql;
  double peak_rss_mb = 0;
  double probe_s = 0;  // the machine-speed probe, just before the round
};

/// Every number of an Outcome that crosses the process boundary.
template <class F>
void visit_numbers(Outcome& o, F&& f) {
  RoundResult& r = o.r;
  LayerCounts& L = r.layers;
  f("probe_s", o.probe_s);
  f("setup_s", r.setup_s);
  f("run_s", r.run_s);
  f("attempted", r.attempted);
  f("ok", r.ok);
  f("failed", r.failed);
  f("shed", r.shed);
  f("interventions", r.interventions);
  f("virt_elapsed_s", r.virt_elapsed_s);
  f("samples", r.samples);
  f("lat_p50_ms", r.lat_p50_ms);
  f("lat_tail_ms", r.lat_tail_ms);
  f("tail_pct", r.tail_pct);
  f("tail_beyond", r.tail_beyond);
  f("events", L.events);
  f("bytes_sent", L.bytes_sent);
  f("bytes_copied", L.bytes_copied);
  f("connections", L.connections);
  f("model_speedup", L.model_speedup);
  f("windows", L.windows);
  f("barrier_stalls", L.barrier_stalls);
  f("merged_messages", L.merged_messages);
  f("offered", L.offered);
  f("admitted", L.admitted);
  f("front_shed", L.shed);
  f("queued_ms_p50", L.queued_ms_p50);
  f("replicas", L.replicas);
  f("wal_records", L.wal_records);
  f("wal_bytes", L.wal_bytes);
  f("pages_written", L.pages_written);
  f("checkpoints", L.checkpoints);
  f("pool_hit_rate_sum", L.pool_hit_rate_sum);
  f("spans", L.spans);
  f("allocs", L.allocs);
  f("alloc_bytes", L.alloc_bytes);
  f("frame_ns", L.frame_ns);
  f("frame_allocs", L.frame_allocs);
  f("units", L.units);
  f("canon_ns", L.canon_ns);
  f("canon_calls", L.canon_calls);
  f("diff_batches", o.diff.batches);
  f("diff_ns_per_batch", o.diff.ns_per_batch);
  f("raw_equal_frac", o.diff.raw_equal_frac);
  f("fast_path_frac", o.diff.fast_path_frac);
  f("sql_statements", o.sql.statements);
  f("parse_ns_per_query", o.sql.parse_ns_per_query);
  f("select_ns_per_query", o.sql.select_ns_per_query);
  f("update_ns_per_query", o.sql.update_ns_per_query);
  f("rows_scanned_per_query", o.sql.rows_scanned_per_query);
  f("allocs_per_query", o.sql.allocs_per_query);
  f("storage_ns_per_write", o.sql.storage_ns_per_write);
}

std::string one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

std::string serialize(Outcome& o) {
  std::string out;
  visit_numbers(o, [&out](const char* k, auto& v) {
    out += rddr::strformat("%s %.17g\n", k, static_cast<double>(v));
  });
  for (uint64_t ns : o.r.slice_ns)
    out += rddr::strformat("slice %llu\n", static_cast<unsigned long long>(ns));
  for (const auto& f : o.r.check_failures) out += "fail " + one_line(f) + "\n";
  out += "sig " + one_line(o.r.virt_signature) + "\nend\n";
  return out;
}

bool deserialize(const std::string& text, Outcome* o) {
  std::map<std::string, double> nums;
  std::istringstream in(text);
  std::string line;
  bool complete = false;
  while (std::getline(in, line)) {
    size_t sp = line.find(' ');
    std::string key = line.substr(0, sp);
    std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);
    if (key == "end") complete = true;
    else if (key == "slice")
      o->r.slice_ns.push_back(std::strtoull(rest.c_str(), nullptr, 10));
    else if (key == "fail") o->r.check_failures.push_back(rest);
    else if (key == "sig") o->r.virt_signature = rest;
    else nums[key] = std::strtod(rest.c_str(), nullptr);
  }
  visit_numbers(*o, [&nums](const char* k, auto& v) {
    v = static_cast<std::remove_reference_t<decltype(v)>>(nums[k]);
  });
  return complete;
}

/// Runs one round in a forked child; `replay` also runs the off-line
/// replays there (shim rounds only). The child's peak RSS is the round's.
Outcome run_isolated(const Spec& spec, const Inputs& in, const RoundConfig& cfg,
                     bool replay) {
  Outcome o;
  int fds[2];
  std::fflush(stdout);
  std::fflush(stderr);
  if (pipe(fds) != 0) {
    o.r.check_failures.push_back("could not open a pipe to a round process");
    return o;
  }
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    o.r.check_failures.push_back("could not fork a round process");
    return o;
  }
  if (pid == 0) {
    close(fds[0]);
    Outcome c;
    c.probe_s = probe_s(std::max<size_t>(1, cfg.islands ? cfg.islands
                                                         : spec.islands));
    c.r = run_round(spec, in, cfg);
    if (replay && c.r.plugin) {
      c.diff = replay_diff(*c.r.plugin);
      c.sql = replay_sql(spec, in, c.r.captured_sql, kMaxReplayScripts);
    }
    std::string text = serialize(c);
    for (size_t off = 0; off < text.size();) {
      ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0 && errno != EINTR) _exit(3);
      if (n > 0) off += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) text.append(buf, static_cast<size_t>(n));
    else if (n == 0 || errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  bool complete = deserialize(text, &o);
  o.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  if (!complete || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    o.r.check_failures.push_back(rddr::strformat(
        "round process ended abnormally (status 0x%x)", status));
  return o;
}

// ---- rounds and metrics -------------------------------------------------

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Simulated transactions resolved (ok + failed + shed) per host second.
double host_tps(const Outcome& o) {
  return ratio(static_cast<double>(o.r.attempted), o.r.run_s);
}

/// Runs rounds with `cfg` until `budget_s` host seconds passed and at
/// least `min_rounds` ran. Every round's virtual-time outputs must equal
/// the first's (the simulation is deterministic for a fixed seed).
std::vector<Outcome> run_rounds(const Spec& spec, const Inputs& in,
                                const RoundConfig& cfg, double budget_s,
                                size_t min_rounds, bool replay_first,
                                std::vector<std::string>* failures) {
  std::vector<Outcome> rounds;
  const uint64_t start = now_ns();
  while (rounds.size() < min_rounds ||
         static_cast<double>(now_ns() - start) / 1e9 < budget_s) {
    Outcome o = run_isolated(spec, in, cfg, replay_first && rounds.empty());
    for (const auto& f : o.r.check_failures) failures->push_back(f);
    if (!rounds.empty() && o.r.virt_signature != rounds[0].r.virt_signature)
      failures->push_back("round " + std::to_string(rounds.size()) +
                          " virtual-time outputs differ from round 0's");
    rounds.push_back(std::move(o));
  }
  return rounds;
}

/// Nearest-rank `pct` percentile of f over the rounds.
double percentile_of(const std::vector<Outcome>& rounds, double pct,
                     const std::function<double(const Outcome&)>& f) {
  std::vector<double> v;
  for (const auto& o : rounds) v.push_back(f(o));
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double median_of(const std::vector<Outcome>& rounds,
                 const std::function<double(const Outcome&)>& f) {
  return percentile_of(rounds, 50, f);
}

/// A host timing of the least-disturbed rounds: the fastest decile. Noise
/// from other tenants of the machine only ever slows a round, so the run
/// median moves with the machine's load while the fast decile tracks the
/// program (README.md, "Rounds and estimators").
double fast_decile(const std::vector<Outcome>& rounds, bool higher_is_faster,
                   const std::function<double(const Outcome&)>& f) {
  return percentile_of(rounds, higher_is_faster ? 90 : 10, f);
}

/// Host seconds of the run phase with the machine's interference removed
/// as far as the run allows: each slice's fastest time over the rounds,
/// summed. Slices hold the same simulated work in every round, and the
/// slow phases of a shared machine are longer than a slice and shorter
/// than a run, so nearly every slice runs undisturbed in some round.
double best_run_s(const std::vector<Outcome>& rounds) {
  std::vector<uint64_t> best = rounds[0].r.slice_ns;
  for (const auto& o : rounds) {
    if (o.r.slice_ns.size() != best.size()) continue;
    for (size_t i = 0; i < best.size(); ++i)
      best[i] = std::min(best[i], o.r.slice_ns[i]);
  }
  uint64_t ns = 0;
  for (uint64_t b : best) ns += b;
  return static_cast<double>(ns) / 1e9;
}

double best_tps(const std::vector<Outcome>& rounds) {
  return ratio(static_cast<double>(rounds[0].r.attempted), best_run_s(rounds));
}

/// How much slower than the reference machine this run's host was: the
/// fastest probe of the run over kReferenceProbeS. The host's speed also
/// drifts over minutes, longer than a run; the probe drifts with it, so
/// host times divided by slowness (rates multiplied) hold through a drift.
double slowness(const std::vector<Outcome>& rounds) {
  double best = rounds[0].probe_s;
  for (const auto& o : rounds) best = std::min(best, o.probe_s);
  return best / kReferenceProbeS;
}

/// host_tx_per_s: best_tps scaled to the reference machine.
double scaled_tps(const std::vector<Outcome>& rounds) {
  return best_tps(rounds) * slowness(rounds);
}

/// A per-round count divided by the round's transactions.
std::function<double(const Outcome&)> per_tx(uint64_t LayerCounts::*field) {
  return [field](const Outcome& o) {
    return ratio(static_cast<double>(o.r.layers.*field),
                 static_cast<double>(o.r.attempted));
  };
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const std::vector<std::string>& failures,
                  const std::vector<const std::vector<Outcome>*>& groups,
                  const std::vector<Metric>& metrics) {
  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  uint64_t attempted = 0, failed = 0;
  for (const auto* g : groups)
    for (const auto& o : *g) {
      attempted += o.r.attempted;
      failed += o.r.failed;
    }
  std::string m;
  for (const auto& x : metrics) {
    if (!m.empty()) m += ", ";
    m += rddr::strformat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.c_str());
}

/// The oracle check of scaleout-islands: the same inputs at islands(1)
/// must give byte-identical virtual-time outputs.
void check_oracle(const Spec& spec, const Outcome& oracle,
                  const Outcome& parallel,
                  std::vector<std::string>* failures) {
  if (oracle.r.virt_signature != parallel.r.virt_signature)
    failures->push_back(rddr::strformat(
        "islands(%zu) virtual-time outputs differ from islands(1): %s vs %s",
        spec.islands, parallel.r.virt_signature.c_str(),
        oracle.r.virt_signature.c_str()));
}

RoundConfig islands_one() {
  RoundConfig c;
  c.islands = 1;
  return c;
}

int run_end_to_end(const Args& a, const Spec& spec, const Inputs& in,
                   size_t min_rounds) {
  std::vector<std::string> failures;
  auto rounds = run_rounds(spec, in, RoundConfig{}, a.seconds, min_rounds,
                           false, &failures);
  const RoundResult& r0 = rounds[0].r;
  std::vector<Outcome> oracle;
  if (spec.islands > 1) {
    oracle = run_rounds(spec, in, islands_one(), 0, 1, false, &failures);
    check_oracle(spec, oracle[0], rounds[0], &failures);
  }
  const double failed_frac = ratio(
      static_cast<double>(r0.failed + r0.shed + r0.interventions),
      static_cast<double>(r0.attempted));
  const double slow = slowness(rounds);
  const double setup_s =
      fast_decile(rounds, false, [](const Outcome& o) { return o.r.setup_s; });
  std::vector<Metric> metrics = {
      {"setup_s", ratio(setup_s, slow), "s"},
      {"host_tx_per_s", scaled_tps(rounds), "tx/s"},
      {"peak_rss_mb", median_of(rounds, [](const Outcome& o) {
         return o.peak_rss_mb;
       }), "MiB"},
      {"virt_tps", ratio(static_cast<double>(r0.ok), r0.virt_elapsed_s),
       "tx/s"},
      {"virt_lat_p50_ms", r0.lat_p50_ms, "ms"},
      {"virt_lat_tail_ms", r0.lat_tail_ms, "ms"},
      {"ok_frac", 1.0 - failed_frac, "ratio"},
  };
  std::printf(
      "workload %s seed %llu: %zu rounds of %llu tx; unscaled: "
      "host_tx_per_s %.1f (round median %.1f), setup_s %.6f (round median "
      "%.6f); slowness %.4f; virt_lat_tail_ms is p%llu (%llu of "
      "%llu samples ranked beyond it); failed_frac %.6f (%llu failed, %llu "
      "shed, %llu intervened)\n",
      spec.name.c_str(), static_cast<unsigned long long>(a.seed),
      rounds.size(), static_cast<unsigned long long>(r0.attempted),
      best_tps(rounds), median_of(rounds, host_tps), setup_s,
      median_of(rounds, [](const Outcome& o) { return o.r.setup_s; }), slow,
      static_cast<unsigned long long>(r0.tail_pct),
      static_cast<unsigned long long>(r0.tail_beyond),
      static_cast<unsigned long long>(r0.samples), failed_frac,
      static_cast<unsigned long long>(r0.failed),
      static_cast<unsigned long long>(r0.shed),
      static_cast<unsigned long long>(r0.interventions));
  print_result(failures, {&rounds, &oracle}, metrics);
  return failures.empty() ? 0 : 1;
}

int run_per_layer(const Args& a, const Spec& spec, const Inputs& in,
                  size_t min_rounds) {
  std::vector<std::string> failures;
  const double s = a.seconds;
  // Untraced baseline: the configuration the end-to-end run measures.
  auto base = run_rounds(spec, in, RoundConfig{}, 0.35 * s, min_rounds, false,
                         &failures);
  const Outcome& b0 = base[0];
  const double base_tps = scaled_tps(base);

  // islands(1): the oracle and the denominator of the wall speedup.
  std::vector<Outcome> seq;
  double wall_speedup = 0;
  if (spec.islands > 1) {
    seq = run_rounds(spec, in, islands_one(), 0.2 * s, min_rounds, false,
                     &failures);
    check_oracle(spec, seq[0], b0, &failures);
    wall_speedup = ratio(base_tps, scaled_tps(seq));
  }

  RoundConfig shim_cfg;
  shim_cfg.shims = true;
  auto shim = run_rounds(spec, in, shim_cfg, 0.3 * s, min_rounds, true,
                         &failures);
  const Outcome& s0 = shim[0];
  const double shim_tps = scaled_tps(shim);

  RoundConfig traced_cfg;
  traced_cfg.tracer = true;
  auto traced = run_rounds(spec, in, traced_cfg, 0.15 * s, 1, false,
                           &failures);
  const double traced_tps = scaled_tps(traced);
  if (s0.r.virt_signature != b0.r.virt_signature ||
      traced[0].r.virt_signature != b0.r.virt_signature)
    failures.push_back("measuring shims or tracer moved the virtual-time "
                       "outputs");

  const double tx = static_cast<double>(b0.r.attempted);
  const LayerCounts& L = b0.r.layers;
  const double replica_tx = tx * static_cast<double>(L.replicas);
  auto of = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> metrics = {
      {"netsim.events_per_tx", ratio(of(L.events), tx), "count"},
      {"netsim.host_ns_per_event", ratio(best_run_s(base) * 1e9, of(L.events)),
       "ns"},
      {"netsim.bytes_sent_per_tx", ratio(of(L.bytes_sent), tx), "B"},
      {"netsim.bytes_copied_per_tx", ratio(of(L.bytes_copied), tx), "B"},
      {"netsim.connections_per_tx", ratio(of(L.connections), tx), "count"},
      {"parallel.model_speedup", L.model_speedup, "x"},
      {"parallel.windows", of(L.windows), "count"},
      {"parallel.barrier_stalls", of(L.barrier_stalls), "count"},
      {"parallel.merged_messages", of(L.merged_messages), "count"},
      {"parallel.wall_speedup", wall_speedup, "x"},
      {"proto.frame_ns_per_tx",
       fast_decile(shim, false, per_tx(&LayerCounts::frame_ns)), "ns"},
      {"proto.units_per_tx", per_tx(&LayerCounts::units)(s0), "count"},
      {"proto.allocs_per_unit",
       ratio(of(s0.r.layers.frame_allocs), of(s0.r.layers.units)), "count"},
      {"rddr.canon_ns_per_tx",
       fast_decile(shim, false, per_tx(&LayerCounts::canon_ns)), "ns"},
      {"rddr.canon_calls_per_tx", per_tx(&LayerCounts::canon_calls)(s0),
       "count"},
      {"rddr.diff_ns_per_batch", s0.diff.ns_per_batch, "ns"},
      {"rddr.raw_equal_frac", s0.diff.raw_equal_frac, "ratio"},
      {"rddr.fast_path_frac", s0.diff.fast_path_frac, "ratio"},
      {"rddr.frontier.admitted_frac", ratio(of(L.admitted), of(L.offered)),
       "ratio"},
      {"rddr.frontier.shed", of(L.shed), "count"},
      {"rddr.frontier.queued_ms_p50", L.queued_ms_p50, "ms"},
      {"sqldb.parse_ns_per_query", s0.sql.parse_ns_per_query, "ns"},
      {"sqldb.select_ns_per_query", s0.sql.select_ns_per_query, "ns"},
      {"sqldb.update_ns_per_query", s0.sql.update_ns_per_query, "ns"},
      {"sqldb.rows_scanned_per_query", s0.sql.rows_scanned_per_query, "count"},
      {"sqldb.allocs_per_query", s0.sql.allocs_per_query, "count"},
      {"storage.wal_records_per_tx", ratio(of(L.wal_records), replica_tx),
       "count"},
      {"storage.wal_bytes_per_tx", ratio(of(L.wal_bytes), replica_tx), "B"},
      {"storage.pages_written_per_tx", ratio(of(L.pages_written), replica_tx),
       "count"},
      {"storage.pool_hit_rate", ratio(L.pool_hit_rate_sum, of(L.replicas)),
       "ratio"},
      {"storage.checkpoints", ratio(of(L.checkpoints), of(L.replicas)),
       "count"},
      {"storage.stmt_ns_per_write", s0.sql.storage_ns_per_write, "ns"},
      {"obs.spans_per_tx", per_tx(&LayerCounts::spans)(traced[0]), "count"},
      {"obs.trace_overhead_frac", 1.0 - ratio(traced_tps, base_tps), "ratio"},
      {"alloc.count_per_tx", per_tx(&LayerCounts::allocs)(s0), "count"},
      {"alloc.bytes_per_tx", per_tx(&LayerCounts::alloc_bytes)(s0), "B"},
      {"bench.shim_overhead_frac", 1.0 - ratio(shim_tps, base_tps), "ratio"},
  };
  std::printf(
      "workload %s seed %llu (traced): host_tx_per_s untraced %.1f "
      "(unscaled %.1f), with measuring shims %.1f (overhead %.4f), with "
      "obs::Tracer %.1f (overhead %.4f); replayed %llu diff batches and %llu "
      "SQL statements; a layer this workload bypasses reads 0\n",
      spec.name.c_str(), static_cast<unsigned long long>(a.seed), base_tps,
      best_tps(base), shim_tps, 1.0 - ratio(shim_tps, base_tps), traced_tps,
      1.0 - ratio(traced_tps, base_tps),
      static_cast<unsigned long long>(s0.diff.batches),
      static_cast<unsigned long long>(s0.sql.statements));
  print_result(failures, {&base, &seq, &shim, &traced}, metrics);
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] [--wrong-reference]\n");
    return 2;
  }
  Spec spec;
  if (!find_spec(a.workload, a.tiny, &spec)) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    std::fprintf(stderr, "unknown workload '%s' (known:%s)\n",
                 a.workload.c_str(), names.c_str());
    return 2;
  }
  rddr::set_log_level(rddr::LogLevel::kError);
  Inputs in = make_inputs(spec, a.seed, a.wrong_reference);
  probe_table();  // built once, before the rounds fork
  const size_t min_rounds = a.tiny ? 1 : 3;
  return a.trace ? run_per_layer(a, spec, in, min_rounds)
                 : run_end_to_end(a, spec, in, min_rounds);
}
