// Chaos harness tests: many seeded random fault schedules must all
// recover cleanly; a deliberately broken deployment (resync disabled
// under writes) must be caught by the invariants and shrink to a minimal
// deterministic repro.
#include <gtest/gtest.h>

#include "chaos/chaos.h"

namespace rddr::chaos {
namespace {

/// Trimmed workload so a single seed runs fast; faults + recovery math
/// are unchanged.
ChaosOptions quick_options() {
  ChaosOptions o;
  o.queries_per_client = 40;
  o.fault_window_end = 4 * sim::kSecond;
  o.settle = 15 * sim::kSecond;
  return o;
}

TEST(ChaosPlanTest, SameSeedSamePlan) {
  ChaosOptions opts;
  for (uint64_t seed : {1ULL, 7ULL, 99ULL, 123456789ULL}) {
    auto a = generate_fault_plan(seed, opts);
    auto b = generate_fault_plan(seed, opts);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].at, b[i].at);
      EXPECT_EQ(a[i].duration, b[i].duration);
      EXPECT_EQ(a[i].extra, b[i].extra);
      EXPECT_EQ(a[i].instance, b[i].instance);
    }
  }
}

TEST(ChaosPlanTest, PlansVaryAcrossSeedsAndStayInWindow) {
  ChaosOptions opts;
  bool any_difference = false;
  auto first = generate_fault_plan(1, opts);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto plan = generate_fault_plan(seed, opts);
    ASSERT_GE(plan.size(), 1u);
    ASSERT_LE(plan.size(), kMaxFaults);
    for (size_t i = 0; i < plan.size(); ++i) {
      EXPECT_GE(plan[i].at, kFaultWindowStart);
      EXPECT_LT(plan[i].at, opts.fault_window_end);
      EXPECT_LT(plan[i].instance, opts.n_instances);
      if (i > 0) {
        EXPECT_GE(plan[i].at, plan[i - 1].at);  // sorted
      }
      if (plan.size() != first.size() || plan[i].at != first[i].at)
        any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChaosRunTest, TwentySeedsRecoverCleanly) {
  ChaosOptions opts = quick_options();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ChaosReport rep = run_chaos_seed(seed, opts);
    EXPECT_TRUE(rep.ok) << "seed " << seed << ":\n"
                        << describe(rep.plan) << rep.summary();
    EXPECT_EQ(rep.healthy_at_end, opts.n_instances) << "seed " << seed;
    EXPECT_EQ(rep.lost, 0u) << "seed " << seed;
    EXPECT_GT(rep.served, 0u) << "seed " << seed;
  }
}

TEST(ChaosRunTest, SameSeedSameReport) {
  ChaosOptions opts = quick_options();
  ChaosReport a = run_chaos_seed(5, opts);
  ChaosReport b = run_chaos_seed(5, opts);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.interventions, b.interventions);
  EXPECT_EQ(a.quorum_outvotes, b.quorum_outvotes);
  EXPECT_EQ(a.healthy_at_end, b.healthy_at_end);
  EXPECT_EQ(a.recovery_time, b.recovery_time);
}

/// The harness's self-test: disable resync and a restarted replica comes
/// back stale under a write workload — the invariants must catch it.
TEST(ChaosShrinkTest, ResyncAblationIsCaughtAndShrunk) {
  ChaosOptions opts = quick_options();
  opts.resync_enabled = false;

  // Two benign faults around the one that needs resync to stay safe.
  std::vector<FaultSpec> plan;
  FaultSpec spike;
  spike.kind = FaultKind::kLatencySpike;
  spike.at = 600 * sim::kMillisecond;
  spike.duration = 300 * sim::kMillisecond;
  spike.extra = 20 * sim::kMillisecond;
  spike.instance = 0;
  plan.push_back(spike);
  FaultSpec crash;
  crash.kind = FaultKind::kCrashRestart;
  crash.at = 1 * sim::kSecond;
  crash.duration = 800 * sim::kMillisecond;
  crash.instance = 2;
  plan.push_back(crash);
  FaultSpec spike2 = spike;
  spike2.at = 2500 * sim::kMillisecond;
  spike2.instance = 1;
  plan.push_back(spike2);

  ChaosReport broken = run_chaos(plan, opts, /*seed=*/5);
  ASSERT_FALSE(broken.ok) << broken.summary();
  EXPECT_FALSE(broken.violations.empty());

  // The same schedule with resync on recovers cleanly: it is the missing
  // state transfer that breaks, not the schedule.
  ChaosOptions fixed = opts;
  fixed.resync_enabled = true;
  EXPECT_TRUE(run_chaos(plan, fixed, 5).ok);

  // Shrinking drops the benign spikes and keeps a still-failing repro.
  ShrinkResult shrunk = shrink_fault_plan(plan, opts, 5);
  ASSERT_FALSE(shrunk.report.ok);
  ASSERT_LE(shrunk.plan.size(), plan.size());
  ASSERT_EQ(shrunk.plan.size(), 1u) << describe(shrunk.plan);
  EXPECT_EQ(shrunk.plan[0].kind, FaultKind::kCrashRestart);
  EXPECT_GT(shrunk.runs, 0u);

  // Deterministic: shrinking twice lands on the identical repro.
  ShrinkResult again = shrink_fault_plan(plan, opts, 5);
  ASSERT_EQ(again.plan.size(), shrunk.plan.size());
  EXPECT_EQ(again.plan[0].kind, shrunk.plan[0].kind);
  EXPECT_EQ(again.plan[0].at, shrunk.plan[0].at);
  EXPECT_EQ(again.plan[0].duration, shrunk.plan[0].duration);
  EXPECT_EQ(again.runs, shrunk.runs);
  EXPECT_EQ(again.report.summary(), shrunk.report.summary());
}

/// Stronger determinism contract than the field-wise checks above: for a
/// fixed (seed, violation), two independent shrink passes must produce
/// byte-identical minimal repros and byte-identical failure reports —
/// describe() and summary() are the comparison surfaces CI can diff.
TEST(ChaosShrinkTest, SameSeedShrinkIsByteIdentical) {
  ChaosOptions opts = quick_options();
  opts.resync_enabled = false;  // the planted violation

  std::vector<FaultSpec> plan;
  FaultSpec spike;
  spike.kind = FaultKind::kLatencySpike;
  spike.at = 600 * sim::kMillisecond;
  spike.duration = 300 * sim::kMillisecond;
  spike.extra = 20 * sim::kMillisecond;
  spike.instance = 0;
  plan.push_back(spike);
  FaultSpec crash;
  crash.kind = FaultKind::kCrashRestart;
  crash.at = 1 * sim::kSecond;
  crash.duration = 800 * sim::kMillisecond;
  crash.instance = 2;
  plan.push_back(crash);

  ASSERT_FALSE(run_chaos(plan, opts, /*seed=*/5).ok);

  ShrinkResult first = shrink_fault_plan(plan, opts, 5);
  ShrinkResult second = shrink_fault_plan(plan, opts, 5);
  ASSERT_FALSE(first.report.ok);
  EXPECT_EQ(describe(first.plan), describe(second.plan));
  EXPECT_EQ(first.report.summary(), second.report.summary());
  // And re-running the minimal repro reproduces its report byte-for-byte.
  EXPECT_EQ(run_chaos(first.plan, opts, 5).summary(),
            first.report.summary());
}

TEST(ShardKillTest, FrontierRoutesAroundDeadShardAndReadmitsIt) {
  ShardKillOptions opts;  // defaults: 3 shards x 3 minipg, kill shard 1
  ShardKillReport r = run_shard_kill(opts, 5);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_EQ(r.lost, 0u) << r.summary();
  // A brief detection burst right after the kill is expected; ok=true
  // already asserts zero refusals after the detection grace window.
  EXPECT_LE(r.refused_during_outage, 3u) << r.summary();
  EXPECT_GT(r.sessions_after_readmit, 0u) << r.summary();
  EXPECT_EQ(r.killed_shard_healthy_at_end, kInstancesPerShard);
  EXPECT_GE(r.readmit_time, 0) << r.summary();
  EXPECT_EQ(r.served + r.refused, r.issued);

  // Deterministic: the same seed reproduces the identical report.
  ShardKillReport again = run_shard_kill(opts, 5);
  EXPECT_EQ(again.summary(), r.summary());

  // Other seeds shift the workload timing but the invariants still hold.
  for (uint64_t seed : {11ULL, 42ULL}) {
    ShardKillReport rs = run_shard_kill(opts, seed);
    EXPECT_TRUE(rs.ok) << "seed " << seed << ": " << rs.summary();
  }
}

/// Durable-storage chaos profile: replicas persist through orchestrator
/// volumes, restarts recover from disk, and plans draw the disk fault
/// kinds (torn WAL, partial group commit, crash mid-checkpoint, crash
/// during resync) on top of seeded device-level write loss.
ChaosOptions durable_options() {
  ChaosOptions o = quick_options();
  o.durable_storage = true;
  o.disk_faults.torn_write_prob = 0.05;
  o.disk_faults.lost_write_prob = 0.05;
  return o;
}

TEST(ChaosDurableTest, DiskFaultKindsAppearInGeneratedPlans) {
  ChaosOptions opts = durable_options();
  bool disk_kind = false;
  for (uint64_t seed = 1; seed <= 30 && !disk_kind; ++seed)
    for (const FaultSpec& f : generate_fault_plan(seed, opts))
      if (f.kind == FaultKind::kTornWrite || f.kind == FaultKind::kPartialWal ||
          f.kind == FaultKind::kCrashCheckpoint ||
          f.kind == FaultKind::kCrashResync)
        disk_kind = true;
  EXPECT_TRUE(disk_kind);
  // The durable switch must not perturb non-durable plans: seed-for-seed,
  // the classic five kinds draw identically with it off.
  ChaosOptions base = quick_options();
  auto a = generate_fault_plan(3, base);
  auto b = generate_fault_plan(3, ChaosOptions(base));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].kind, b[i].kind);
}

TEST(ChaosDurableTest, TwentySeedsWithDiskFaultsRecoverCleanly) {
  ChaosOptions opts = durable_options();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ChaosReport rep = run_chaos_seed(seed, opts);
    EXPECT_TRUE(rep.ok) << "seed " << seed << ":\n"
                        << describe(rep.plan) << rep.summary();
    EXPECT_EQ(rep.healthy_at_end, opts.n_instances) << "seed " << seed;
    EXPECT_EQ(rep.lost, 0u) << "seed " << seed;
    EXPECT_GT(rep.served, 0u) << "seed " << seed;
  }
}

TEST(ChaosDurableTest, SameSeedSameReport) {
  ChaosOptions opts = durable_options();
  ChaosReport a = run_chaos_seed(9, opts);
  ChaosReport b = run_chaos_seed(9, opts);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.healthy_at_end, b.healthy_at_end);
  EXPECT_EQ(a.recovery_time, b.recovery_time);
  EXPECT_EQ(a.stats.pages_shipped, b.stats.pages_shipped);
  EXPECT_EQ(a.stats.wal_bytes_replayed, b.stats.wal_bytes_replayed);
}

TEST(ChaosDurableTest, ResyncsWarmIncrementally) {
  // A single crash+restart under a write workload: the restarted replica
  // recovers from its volume and the proxy tops it up incrementally —
  // WAL tail or dirty pages, not a full snapshot.
  ChaosOptions opts = durable_options();
  std::vector<FaultSpec> plan;
  FaultSpec crash;
  crash.kind = FaultKind::kCrashRestart;
  crash.at = 1 * sim::kSecond;
  crash.duration = 500 * sim::kMillisecond;
  crash.instance = 1;
  plan.push_back(crash);
  ChaosReport rep = run_chaos(plan, opts, /*seed=*/4);
  EXPECT_TRUE(rep.ok) << rep.summary();
  EXPECT_GE(rep.stats.resyncs, 1u);
  EXPECT_GT(rep.stats.pages_shipped + rep.stats.wal_bytes_replayed, 0u)
      << "resync fell back to a full snapshot";
}

TEST(ChaosDurableTest, PeerKilledMidResyncNeverReadmitsPartialState) {
  for (uint64_t seed : {1ULL, 5ULL, 12ULL}) {
    ChaosReport rep = run_peer_kill_resync(seed);
    EXPECT_TRUE(rep.ok) << "seed " << seed << ":\n"
                        << describe(rep.plan) << rep.summary();
    EXPECT_EQ(rep.healthy_at_end, rep.n_instances) << "seed " << seed;
    EXPECT_EQ(rep.lost, 0u) << "seed " << seed;
  }
}

TEST(ChaosDescribeTest, HumanReadablePlan) {
  FaultSpec f;
  f.kind = FaultKind::kCrashReplace;
  f.at = 1200 * sim::kMillisecond;
  f.duration = 500 * sim::kMillisecond;
  f.instance = 2;
  std::string s = describe(f);
  EXPECT_NE(s.find("crash-replace"), std::string::npos);
  EXPECT_NE(s.find("@1.20s"), std::string::npos);
  EXPECT_NE(s.find("instance 2"), std::string::npos);
}

}  // namespace
}  // namespace rddr::chaos
