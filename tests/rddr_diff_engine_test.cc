// Differential property tests for the batched DiffEngine data plane.
//
// The SIMD kernels (scalar / SSE2, rddr/diff_simd.h) are
// bit-identical by contract. This suite enforces that contract three
// ways:
//   1. kernel level: every supported Ops table vs naive in-test
//      references, on adversarial buffers (differences planted on and
//      around 16-byte lane boundaries and their multiples);
//   2. primitive level: masks, masked checks and token detection agree
//      across levels on seeded random + adversarial corpora;
//   3. engine level: full batched verdicts (strict and quorum) agree
//      across engines pinned to different levels, and a whole deployment
//      run is byte-identical between "scalar" and "auto".
// Plus the steady-state allocation guarantee: a warmed engine's arena
// never refills again.
//
// Note: the RDDR_SIMD environment variable pins resolve_level() for the
// whole process (tests/run_sanitized.sh uses that to drive this suite
// with SIMD forced off and on under asan/ubsan). The kernel-table tests
// below use simd::ops(Level) directly, so every supported kernel is
// exercised regardless of the pin; the engine-knob tests degrade to
// same-level comparisons under a pin, which is the intent.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/rddr.h"
#include "services/http_service.h"

namespace rddr::core {
namespace {

// ---- naive references ----

size_t naive_mismatch(const char* a, const char* b, size_t n) {
  for (size_t i = 0; i < n; ++i)
    if (a[i] != b[i]) return i;
  return n;
}

size_t naive_suffix_len(const char* a_end, const char* b_end, size_t n) {
  size_t i = 0;
  while (i < n && a_end[-1 - static_cast<ptrdiff_t>(i)] ==
                      b_end[-1 - static_cast<ptrdiff_t>(i)])
    ++i;
  return i;
}

bool naive_alnum(char c) {
  return (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
         (c >= 'a' && c <= 'z');
}

size_t naive_find_non_alnum(const char* p, size_t n) {
  for (size_t i = 0; i < n; ++i)
    if (!naive_alnum(p[i])) return i;
  return n;
}

simd::NwayHit naive_nway(const char* ref, const char* const* cands, size_t k,
                         size_t n) {
  simd::NwayHit best{n, SIZE_MAX};
  for (size_t j = 0; j < k; ++j) {
    size_t m = naive_mismatch(ref, cands[j], n);
    if (m < n && m < best.offset) best = {m, j};
  }
  return best;
}

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out;
  for (int l = 0; l <= static_cast<int>(simd::best_supported()); ++l)
    out.push_back(static_cast<simd::Level>(l));
  return out;
}

/// Knob spellings for every supported level ("scalar" always included).
std::vector<std::string> supported_knobs() {
  std::vector<std::string> out;
  for (simd::Level l : supported_levels()) out.push_back(simd::level_name(l));
  return out;
}

// Offsets that straddle the 16-byte SSE2 lanes and their multiples.
const size_t kLaneOffsets[] = {0,  1,  14, 15, 16, 17, 30, 31,
                               32, 33, 47, 48, 63, 64, 65, 100};

TEST(SimdKernels, MismatchAndSuffixDifferential) {
  Rng rng(1001);
  auto levels = supported_levels();
  ASSERT_GE(levels.size(), 1u);
  for (int iter = 0; iter < 300; ++iter) {
    size_t n = static_cast<size_t>(rng.uniform(0, 130));
    std::string a(n, '\0');
    for (auto& c : a) c = static_cast<char>(rng.uniform(0, 255));
    std::string b = a;
    // Plant 0-2 differences, biased onto lane boundaries.
    for (int d = 0; d < rng.uniform(0, 2); ++d) {
      if (n == 0) break;
      size_t off = (rng.uniform(0, 1) != 0)
                       ? kLaneOffsets[rng.uniform(0, 15)] % n
                       : static_cast<size_t>(rng.uniform(0, static_cast<int64_t>(n) - 1));
      b[off] = static_cast<char>(b[off] + 1);
    }
    size_t want_mis = naive_mismatch(a.data(), b.data(), n);
    size_t want_sfx = naive_suffix_len(a.data() + n, b.data() + n, n);
    for (simd::Level l : levels) {
      const simd::Ops& o = simd::ops(l);
      EXPECT_EQ(o.mismatch(a.data(), b.data(), n), want_mis)
          << simd::level_name(l) << " n=" << n;
      EXPECT_EQ(o.suffix_len(a.data() + n, b.data() + n, n), want_sfx)
          << simd::level_name(l) << " n=" << n;
    }
  }
}

TEST(SimdKernels, FindNonAlnumDifferential) {
  Rng rng(1002);
  auto levels = supported_levels();
  for (int iter = 0; iter < 300; ++iter) {
    size_t n = static_cast<size_t>(rng.uniform(0, 130));
    std::string a = rng.alnum_token(n);
    // Sometimes poison one byte, biased onto lane boundaries; cycle
    // through punctuation on both sides of the alnum ranges ('!' < '0',
    // '~' > 'z', ':' between digits and uppercase) to catch off-by-one
    // range classifications in the SIMD compares.
    if (n > 0 && rng.uniform(0, 2) != 0) {
      size_t off = (rng.uniform(0, 1) != 0)
                       ? kLaneOffsets[rng.uniform(0, 15)] % n
                       : static_cast<size_t>(rng.uniform(0, static_cast<int64_t>(n) - 1));
      const char poisons[] = {'!', '~', ':', '@', '[', '`', '{', ' '};
      a[off] = poisons[rng.uniform(0, 7)];
    }
    size_t want = naive_find_non_alnum(a.data(), n);
    for (simd::Level l : levels)
      EXPECT_EQ(simd::ops(l).find_non_alnum(a.data(), n), want)
          << simd::level_name(l) << " n=" << n;
  }
}

TEST(SimdKernels, NwayMismatchDifferential) {
  Rng rng(1003);
  auto levels = supported_levels();
  for (int iter = 0; iter < 300; ++iter) {
    size_t n = static_cast<size_t>(rng.uniform(1, 130));
    size_t k = static_cast<size_t>(rng.uniform(1, 4));
    std::string ref(n, '\0');
    for (auto& c : ref) c = static_cast<char>(rng.uniform(0, 255));
    std::vector<std::string> cands(k, ref);
    for (auto& cand : cands) {
      if (rng.uniform(0, 2) == 0) continue;  // stays equal
      size_t off = (rng.uniform(0, 1) != 0)
                       ? kLaneOffsets[rng.uniform(0, 15)] % n
                       : static_cast<size_t>(rng.uniform(0, static_cast<int64_t>(n) - 1));
      cand[off] = static_cast<char>(cand[off] ^ 0x5a);
    }
    std::vector<const char*> ptrs;
    for (const auto& cand : cands) ptrs.push_back(cand.data());
    simd::NwayHit want = naive_nway(ref.data(), ptrs.data(), k, n);
    for (simd::Level l : levels) {
      simd::NwayHit got = simd::ops(l).nway_mismatch(ref.data(), ptrs.data(), k, n);
      EXPECT_EQ(got.offset, want.offset) << simd::level_name(l) << " n=" << n;
      EXPECT_EQ(got.instance, want.instance)
          << simd::level_name(l) << " n=" << n;
    }
  }
}

// ---- adversarial corpus for mask/token/verdict differentials ----

/// One random 3-instance corpus mixing the adversarial shapes: tokens
/// straddling lane boundaries, length-mismatched tokens, whole-line
/// noise, stable lines, and occasional genuine divergence.
std::vector<std::vector<std::string>> adversarial_corpus(Rng& rng) {
  std::vector<std::vector<std::string>> inst(3);
  int lines = static_cast<int>(rng.uniform(1, 12));
  for (int i = 0; i < lines; ++i) {
    switch (rng.uniform(0, 4)) {
      case 0: {  // token straddling 16/32-byte boundaries
        std::string pre(static_cast<size_t>(rng.uniform(0, 40)), 'p');
        std::string post(static_cast<size_t>(rng.uniform(0, 40)), 's');
        size_t tok = static_cast<size_t>(rng.uniform(10, 40));
        for (auto& v : inst) v.push_back(pre + rng.alnum_token(tok) + post);
        break;
      }
      case 1: {  // length-mismatched tokens
        for (auto& v : inst)
          v.push_back("sid=" + rng.alnum_token(
                                   static_cast<size_t>(rng.uniform(10, 60))) +
                      ";end");
        break;
      }
      case 2: {  // whole-line noise: entire line differs, varying lengths
        for (auto& v : inst)
          v.push_back(rng.alnum_token(static_cast<size_t>(rng.uniform(1, 70))));
        break;
      }
      case 3: {  // genuine divergence outside any token on one instance
        std::string line = "stable payload " + std::to_string(i);
        for (auto& v : inst) v.push_back(line);
        if (rng.uniform(0, 3) == 0)
          inst[static_cast<size_t>(rng.uniform(0, 2))].back() += "!";
        break;
      }
      default: {  // stable line
        std::string line = "line " + std::to_string(i) + " stable";
        for (auto& v : inst) v.push_back(line);
        break;
      }
    }
  }
  return inst;
}

void fill_canon(CanonicalUnit& out, const std::vector<std::string>& lines,
                Arena& arena) {
  out = CanonicalUnit{};
  out.klass = ByteView("u");
  out.what = ByteView("unit");
  out.per_line = true;
  for (const std::string& l : lines) out.lines.push_back(arena, ByteView(l));
}

TEST(DiffDifferential, MasksAndLineChecksAgreeAcrossLevels) {
  Rng rng(2001);
  auto levels = supported_levels();
  for (int iter = 0; iter < 200; ++iter) {
    auto inst = adversarial_corpus(rng);
    for (size_t i = 0; i < inst[0].size(); ++i) {
      const std::string& a = inst[0][i];
      const std::string& b = inst[1][i];
      const std::string& c = inst[2][i];
      diff::LineMask ref_mask =
          diff::build_line_mask(a, b, simd::ops(simd::Level::kScalar));
      diff::LineCheck ref_chk = diff::masked_line_check(
          a, c, ref_mask, simd::ops(simd::Level::kScalar));
      for (simd::Level l : levels) {
        diff::LineMask m = diff::build_line_mask(a, b, simd::ops(l));
        EXPECT_EQ(m.active, ref_mask.active) << simd::level_name(l);
        EXPECT_EQ(m.prefix, ref_mask.prefix) << simd::level_name(l);
        EXPECT_EQ(m.suffix, ref_mask.suffix) << simd::level_name(l);
        diff::LineCheck chk = diff::masked_line_check(a, c, m, simd::ops(l));
        EXPECT_EQ(static_cast<int>(chk.fail), static_cast<int>(ref_chk.fail))
            << simd::level_name(l);
        EXPECT_EQ(chk.offset, ref_chk.offset) << simd::level_name(l);
      }
    }
  }
}

TEST(DiffDifferential, TokenDetectionAgreesAcrossLevels) {
  Rng rng(2002);
  auto levels = supported_levels();
  for (int iter = 0; iter < 200; ++iter) {
    auto inst = adversarial_corpus(rng);
    // Reference: scalar.
    std::vector<std::vector<std::string>> want;
    for (simd::Level l : levels) {
      Arena arena(4096);
      CanonicalUnit* canon = arena.alloc_array<CanonicalUnit>(3);
      for (size_t i = 0; i < 3; ++i) fill_canon(canon[i], inst[i], arena);
      ArenaVec<diff::TokenSpan> spans =
          diff::detect_tokens(canon, 3, arena, simd::ops(l));
      std::vector<std::vector<std::string>> got;
      for (const diff::TokenSpan& t : spans) {
        std::vector<std::string> per;
        for (size_t a = 0; a < t.n; ++a) per.emplace_back(t.per_instance[a]);
        got.push_back(std::move(per));
      }
      if (l == simd::Level::kScalar) {
        want = got;
      } else {
        EXPECT_EQ(got, want) << simd::level_name(l);
      }
    }
  }
}

TEST(DiffDifferential, BatchVerdictsAgreeAcrossLevels) {
  Rng rng(2003);
  auto knobs = supported_knobs();
  for (int iter = 0; iter < 150; ++iter) {
    auto inst = adversarial_corpus(rng);
    for (VoteMode mode : {VoteMode::kStrict, VoteMode::kQuorum}) {
      bool have_ref = false;
      BatchVerdict ref;
      for (const std::string& knob : knobs) {
        DiffEngineOptions opts;
        opts.simd = knob;
        DiffEngine engine(opts);
        CanonicalUnit* canon = engine.arena().alloc_array<CanonicalUnit>(3);
        for (size_t i = 0; i < 3; ++i)
          fill_canon(canon[i], inst[i], engine.arena());
        BatchVerdict v = engine.compare_canonical(
            canon, 3, /*filter_pair=*/true, mode, nullptr, nullptr);
        if (!have_ref) {
          ref = v;
          have_ref = true;
          continue;
        }
        EXPECT_EQ(v.unanimous, ref.unanimous) << knob;
        EXPECT_EQ(v.agreed, ref.agreed) << knob;
        EXPECT_EQ(v.outlier, ref.outlier) << knob;
        EXPECT_EQ(v.reason, ref.reason) << knob;
        EXPECT_EQ(v.region.line, ref.region.line) << knob;
        EXPECT_EQ(v.region.offset, ref.region.offset) << knob;
        EXPECT_EQ(v.region.instance, ref.region.instance) << knob;
      }
    }
  }
}

// ---- steady-state allocation guarantee ----

TEST(DiffEngineArena, WarmEngineNeverRefills) {
  HttpPlugin plugin;
  DiffEngine engine;
  Rng rng(3001);
  auto page = [&](const std::string& tok) {
    http::Response r = http::make_response(
        200, "<html><input value=\"" + tok + "\"><p>body body body</p></html>");
    return Unit{r.to_bytes(), "http-resp"};
  };
  std::vector<Unit> units{page(rng.alnum_token(32)), page(rng.alnum_token(32)),
                          page(rng.alnum_token(32))};
  KnownVariance kv;
  CompareContext ctx;
  ctx.filter_pair = true;
  ctx.variance = &kv;
  for (int i = 0; i < 5; ++i)
    engine.compare(plugin, units, ctx, VoteMode::kStrict);
  Arena::Stats warm = engine.arena().stats();
  for (int i = 0; i < 200; ++i)
    engine.compare(plugin, units, ctx, VoteMode::kStrict);
  Arena::Stats after = engine.arena().stats();
  EXPECT_EQ(after.refills, warm.refills);
  EXPECT_EQ(after.capacity, warm.capacity);
  EXPECT_EQ(engine.stats().batches, 205u);
  EXPECT_EQ(engine.stats().fast_path, 0u);  // tokens differ: slow path
  EXPECT_GT(engine.stats().mask_builds, 0u);
}

// ---- raw short-circuit: byte-identical batches never reach the parser ----

TEST(DiffEngineRawShortCircuit, IdenticalBatchesNeverParse) {
  HttpPlugin plugin;
  DiffEngine engine;
  http::Response r =
      http::make_response(200, "<html><p>same everywhere</p></html>");
  Unit u{r.to_bytes(), "http-resp"};
  std::vector<Unit> units{u, u, u};
  KnownVariance kv;
  SessionState session;
  CompareContext ctx;
  ctx.filter_pair = true;
  ctx.variance = &kv;
  ctx.session = &session;
  BatchVerdict v = engine.compare(plugin, units, ctx, VoteMode::kStrict);
  EXPECT_TRUE(v.unanimous);
  EXPECT_TRUE(v.agreed);
  EXPECT_EQ(engine.stats().raw_equal, 1u);
  EXPECT_EQ(engine.stats().fast_path, 0u);  // settled before canonicalising
  // forward_downstream reuses the raw verdict: provably no tokens, so no
  // re-canonicalisation and no arena growth.
  Arena::Stats before = engine.arena().stats();
  Bytes fwd = engine.forward_downstream(plugin, units, ctx);
  EXPECT_EQ(fwd, units[0].data);
  EXPECT_TRUE(session.tokens.empty());
  EXPECT_EQ(engine.arena().stats().high_water, before.high_water);
  // A kind mismatch defeats the shortcut even with identical payloads.
  std::vector<Unit> mixed{u, u, Unit{u.data, "http-other"}};
  BatchVerdict bad = engine.compare(plugin, mixed, ctx, VoteMode::kStrict);
  EXPECT_FALSE(bad.agreed);
  EXPECT_EQ(engine.stats().raw_equal, 1u);
}

// ---- deployment byte-identity: Builder.diff scalar vs auto ----

struct DeploymentRun {
  std::vector<int> statuses;
  std::vector<Bytes> bodies;
};

DeploymentRun run_token_deployment(const std::string& simd) {
  sim::Simulator simulator;
  sim::Network net(simulator, 20 * sim::kMicrosecond);
  sim::Host host(simulator, "node", 8, 8LL << 30);
  std::vector<std::unique_ptr<services::HttpServer>> instances;
  for (int i = 0; i < 3; ++i) {
    services::HttpServer::Options o;
    o.address = "svc-" + std::to_string(i) + ":80";
    auto s = std::make_unique<services::HttpServer>(net, host, o);
    auto rng = std::make_shared<Rng>(500 + static_cast<uint64_t>(i));
    s->set_handler([rng](const http::Request&, services::Responder r) {
      r(http::make_response(
          200, "<html><input name=\"csrf\" value=\"" + rng->alnum_token(32) +
                   "\"><p>stable content</p></html>"));
    });
    instances.push_back(std::move(s));
  }
  DiffEngineOptions diff;
  diff.simd = simd;
  auto proxy = NVersionDeployment::Builder()
                   .listen("svc:80")
                   .versions({"svc-0:80", "svc-1:80", "svc-2:80"})
                   .plugin(std::make_shared<HttpPlugin>())
                   .filter_pair(true)
                   .diff(diff)
                   .build(net, host);
  DeploymentRun out;
  for (int i = 0; i < 10; ++i) {
    int status = -2;
    Bytes body;
    services::HttpClient client(net, "client");
    client.get("svc:80", "/", [&](int s, const http::Response* r) {
      status = s;
      if (r) body = r->body;
    });
    simulator.run_until_idle();
    out.statuses.push_back(status);
    out.bodies.push_back(std::move(body));
  }
  return out;
}

TEST(DiffEngineDeployment, ScalarAndAutoRunsByteIdentical) {
  DeploymentRun auto_run = run_token_deployment("auto");
  DeploymentRun scalar_run = run_token_deployment("scalar");
  EXPECT_EQ(auto_run.statuses, scalar_run.statuses);
  EXPECT_EQ(auto_run.bodies, scalar_run.bodies);
  // The benign token pages must actually pass (de-noised, not blocked).
  for (int s : auto_run.statuses) EXPECT_EQ(s, 200);
}

}  // namespace
}  // namespace rddr::core
