// Differential property tests for the batched DiffEngine data plane.
//
// The two kernel tables (rddr/diff_simd.h: simd::native(), SSE2 where
// the build targets it, and simd::scalar(), the oracle) are bit-identical
// by contract. This suite enforces that contract three ways:
//   1. kernel level: both tables vs naive in-test references, on
//      adversarial buffers (differences planted on and around 16-byte
//      lane boundaries and their multiples);
//   2. primitive level: masks, masked checks and token detection agree
//      between native() and scalar() on seeded random + adversarial
//      corpora;
//   3. engine level: full batched verdicts (strict and quorum) agree
//      between a default engine and one built on scalar().
// Plus the steady-state allocation guarantee: a warmed engine's arena
// never refills again.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "proto/http/message.h"
#include "rddr/rddr.h"

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

struct Table {
  const char* name;
  const simd::Ops& ops;
};

/// Both kernel tables, the oracle first.
const Table kTables[] = {{"scalar", simd::scalar()},
                         {"native", simd::native()}};

// Offsets that straddle the 16-byte SSE2 lanes and their multiples.
const size_t kLaneOffsets[] = {0,  1,  14, 15, 16, 17, 30, 31,
                               32, 33, 47, 48, 63, 64, 65, 100};

TEST(SimdKernels, MismatchAndSuffixDifferential) {
  Rng rng(1001);
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
    for (const Table& t : kTables) {
      EXPECT_EQ(t.ops.mismatch(a.data(), b.data(), n), want_mis)
          << t.name << " n=" << n;
      EXPECT_EQ(t.ops.suffix_len(a.data() + n, b.data() + n, n), want_sfx)
          << t.name << " n=" << n;
    }
  }
}

TEST(SimdKernels, FindNonAlnumDifferential) {
  Rng rng(1002);
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
    for (const Table& t : kTables)
      EXPECT_EQ(t.ops.find_non_alnum(a.data(), n), want)
          << t.name << " n=" << n;
  }
}

TEST(SimdKernels, NwayMismatchDifferential) {
  Rng rng(1003);
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
    for (const Table& t : kTables) {
      simd::NwayHit got = t.ops.nway_mismatch(ref.data(), ptrs.data(), k, n);
      EXPECT_EQ(got.offset, want.offset) << t.name << " n=" << n;
      EXPECT_EQ(got.instance, want.instance) << t.name << " n=" << n;
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
  for (int iter = 0; iter < 200; ++iter) {
    auto inst = adversarial_corpus(rng);
    for (size_t i = 0; i < inst[0].size(); ++i) {
      const std::string& a = inst[0][i];
      const std::string& b = inst[1][i];
      const std::string& c = inst[2][i];
      diff::LineMask ref_mask = diff::build_line_mask(a, b, simd::scalar());
      diff::LineCheck ref_chk =
          diff::masked_line_check(a, c, ref_mask, simd::scalar());
      diff::LineMask m = diff::build_line_mask(a, b, simd::native());
      EXPECT_EQ(m.active, ref_mask.active);
      EXPECT_EQ(m.prefix, ref_mask.prefix);
      EXPECT_EQ(m.suffix, ref_mask.suffix);
      diff::LineCheck chk = diff::masked_line_check(a, c, m, simd::native());
      EXPECT_EQ(static_cast<int>(chk.fail), static_cast<int>(ref_chk.fail));
      EXPECT_EQ(chk.offset, ref_chk.offset);
    }
  }
}

TEST(DiffDifferential, TokenDetectionAgreesAcrossLevels) {
  Rng rng(2002);
  auto tokens = [](const std::vector<std::vector<std::string>>& inst,
                   const simd::Ops& ops) {
    Arena arena(4096);
    CanonicalUnit* canon = arena.alloc_array<CanonicalUnit>(3);
    for (size_t i = 0; i < 3; ++i) fill_canon(canon[i], inst[i], arena);
    std::vector<std::vector<std::string>> out;
    for (const diff::TokenSpan& t : diff::detect_tokens(canon, 3, arena, ops)) {
      std::vector<std::string> per;
      for (size_t a = 0; a < t.n; ++a) per.emplace_back(t.per_instance[a]);
      out.push_back(std::move(per));
    }
    return out;
  };
  for (int iter = 0; iter < 200; ++iter) {
    auto inst = adversarial_corpus(rng);
    EXPECT_EQ(tokens(inst, simd::native()), tokens(inst, simd::scalar()));
  }
}

TEST(DiffDifferential, BatchVerdictsAgreeAcrossLevels) {
  Rng rng(2003);
  auto verdict = [](DiffEngine engine,
                    const std::vector<std::vector<std::string>>& inst,
                    VoteMode mode) {
    CanonicalUnit* canon = engine.arena().alloc_array<CanonicalUnit>(3);
    for (size_t i = 0; i < 3; ++i)
      fill_canon(canon[i], inst[i], engine.arena());
    return engine.compare_canonical(canon, 3, /*filter_pair=*/true, mode,
                                    nullptr, nullptr);
  };
  for (int iter = 0; iter < 150; ++iter) {
    auto inst = adversarial_corpus(rng);
    for (VoteMode mode : {VoteMode::kStrict, VoteMode::kQuorum}) {
      BatchVerdict ref = verdict(DiffEngine(simd::scalar()), inst, mode);
      BatchVerdict v = verdict(DiffEngine(), inst, mode);
      EXPECT_EQ(v.unanimous, ref.unanimous);
      EXPECT_EQ(v.agreed, ref.agreed);
      EXPECT_EQ(v.outlier, ref.outlier);
      EXPECT_EQ(v.reason, ref.reason);
      EXPECT_EQ(v.region.line, ref.region.line);
      EXPECT_EQ(v.region.offset, ref.region.offset);
      EXPECT_EQ(v.region.instance, ref.region.instance);
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
    return Unit{SharedBytes(r.to_bytes()), "http-resp"};
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
  Unit u{SharedBytes(r.to_bytes()), "http-resp"};
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
  SharedBytes fwd = engine.forward_downstream(plugin, units, ctx);
  EXPECT_EQ(fwd.view(), units[0].data.view());
  EXPECT_EQ(fwd.data(), units[0].data.data());  // the unit's own bytes
  EXPECT_TRUE(session.tokens.empty());
  EXPECT_EQ(engine.arena().stats().high_water, before.high_water);
  // A kind mismatch defeats the shortcut even with identical payloads.
  std::vector<Unit> mixed{u, u, Unit{u.data, "http-other"}};
  BatchVerdict bad = engine.compare(plugin, mixed, ctx, VoteMode::kStrict);
  EXPECT_FALSE(bad.agreed);
  EXPECT_EQ(engine.stats().raw_equal, 1u);
}

}  // namespace
}  // namespace rddr::core
