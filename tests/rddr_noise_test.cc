// Unit tests for de-noising (filter-pair masks) and ephemeral-token
// detection — the paper's §IV-B2 / §IV-B3 machinery, exercised through
// the batched DiffEngine primitives (rddr/diff_engine.h) that replaced
// the pairwise noise.h API.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rddr/diff_engine.h"

namespace rddr::core {
namespace {

const simd::Ops& O() { return simd::native(); }

/// Builds a per_line canonical unit over `lines` (views into the caller's
/// strings, which must outlive the arena use).
void fill_canon(CanonicalUnit& out, const std::vector<std::string>& lines,
                Arena& arena) {
  out = CanonicalUnit{};
  out.klass = ByteView("u");
  out.what = ByteView("unit");
  out.per_line = true;
  for (const std::string& l : lines) out.lines.push_back(arena, ByteView(l));
}

/// The old pairwise masked_compare, restated as one batched call: `a` is
/// instance 0, `b` instance 1 (the filter pair that defines the mask) and
/// `cand` the instance under test. Returns the divergence reason, or
/// nullopt on agreement — same contract the old API had.
std::optional<std::string> pair_masked_compare(
    const std::vector<std::string>& a, const std::vector<std::string>& b,
    const std::vector<std::string>& cand) {
  DiffEngine engine;
  CanonicalUnit* canon = engine.arena().alloc_array<CanonicalUnit>(3);
  fill_canon(canon[0], a, engine.arena());
  fill_canon(canon[1], b, engine.arena());
  fill_canon(canon[2], cand, engine.arena());
  BatchVerdict v = engine.compare_canonical(canon, 3, /*filter_pair=*/true,
                                            VoteMode::kStrict, nullptr, nullptr);
  if (v.agreed) return std::nullopt;
  return v.reason;
}

/// Old detect_ephemeral_tokens shape over the batched primitive.
std::vector<std::vector<std::string>> detect_tokens_strings(
    const std::vector<std::vector<std::string>>& instance_lines) {
  Arena arena(4096);
  const size_t n = instance_lines.size();
  CanonicalUnit* canon = arena.alloc_array<CanonicalUnit>(n);
  for (size_t i = 0; i < n; ++i) fill_canon(canon[i], instance_lines[i], arena);
  ArenaVec<diff::TokenSpan> spans = diff::detect_tokens(canon, n, arena, O());
  std::vector<std::vector<std::string>> out;
  for (const diff::TokenSpan& t : spans) {
    std::vector<std::string> per;
    for (size_t a = 0; a < t.n; ++a) per.emplace_back(t.per_instance[a]);
    out.push_back(std::move(per));
  }
  return out;
}

TEST(CommonFix, PrefixSuffix) {
  EXPECT_EQ(simd::common_prefix(O(), "abcde", "abXde"), 2u);
  EXPECT_EQ(simd::common_suffix(O(), "abcde", "abXde"), 2u);
  EXPECT_EQ(simd::common_prefix(O(), "same", "same"), 4u);
  EXPECT_EQ(simd::common_prefix(O(), "", "x"), 0u);
  EXPECT_EQ(simd::common_suffix(O(), "abc", "c"), 1u);
}

TEST(NoiseMask, IdenticalPairYieldsEmptyMask) {
  EXPECT_FALSE(diff::build_line_mask("one", "one", O()).active);
  EXPECT_FALSE(diff::build_line_mask("two", "two", O()).active);
}

TEST(NoiseMask, DifferingRegionMasked) {
  diff::LineMask m =
      diff::build_line_mask("session=AAAA; path=/", "session=BBBB; path=/", O());
  ASSERT_TRUE(m.active);
  EXPECT_EQ(m.prefix, 8u);
  EXPECT_EQ(m.suffix, 8u);

  std::vector<std::string> a{"session=AAAA; path=/"};
  std::vector<std::string> b{"session=BBBB; path=/"};
  // Third instance with its own token in the same frame: match.
  EXPECT_FALSE(pair_masked_compare(a, b, {"session=CCCC; path=/"}).has_value());
  // Third instance with a longer token: still within the frame.
  EXPECT_FALSE(
      pair_masked_compare(a, b, {"session=DDDDDD; path=/"}).has_value());
  // Divergence outside the noise region is caught.
  EXPECT_TRUE(pair_masked_compare(a, b, {"session=CCCC; path=/x"}).has_value());
  EXPECT_TRUE(pair_masked_compare(a, b, {"sXssion=CCCC; path=/"}).has_value());
}

TEST(NoiseMask, UnmaskedLineRequiresExactEquality) {
  std::vector<std::string> a{"stable", "noisyAA"};
  std::vector<std::string> b{"stable", "noisyBB"};
  EXPECT_FALSE(pair_masked_compare(a, b, {"stable", "noisyZZ"}).has_value());
  auto reason = pair_masked_compare(a, b, {"stablX", "noisyZZ"});
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("line 0"), std::string::npos);
}

TEST(NoiseMask, LineCountMismatchDiverges) {
  std::vector<std::string> a{"x"}, b{"x"};
  EXPECT_TRUE(pair_masked_compare(a, b, {"x", "y"}).has_value());
}

TEST(NoiseMask, StructuralPairNoiseBlamedOnThePair) {
  // The pair disagreeing on line count is a structural divergence charged
  // to instance 1 — same verdict and reason the old pairwise walk gave.
  std::vector<std::string> a{"x"}, b{"x", "y"};
  auto reason = pair_masked_compare(a, b, {"x"});
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("instance 1"), std::string::npos);
  EXPECT_NE(reason->find("under structural noise"), std::string::npos);
}

TEST(NoiseMask, CandidateShorterThanFrameDiverges) {
  std::vector<std::string> a{"tok=AAAA end"};
  std::vector<std::string> b{"tok=BBBB end"};
  EXPECT_TRUE(pair_masked_compare(a, b, {"tok"}).has_value());
}

TEST(NoiseMask, MaskedLineCheckFailures) {
  diff::LineMask m = diff::build_line_mask("tok=AAAA end", "tok=BBBB end", O());
  ASSERT_TRUE(m.active);
  EXPECT_EQ(diff::masked_line_check("tok=AAAA end", "tok", m, O()).fail,
            diff::LineFail::kShorterThanFrame);
  EXPECT_EQ(diff::masked_line_check("tok=AAAA end", "Xok=CCCC end", m, O()).fail,
            diff::LineFail::kPrefix);
  EXPECT_EQ(diff::masked_line_check("tok=AAAA end", "tok=CCCC enX", m, O()).fail,
            diff::LineFail::kSuffix);
  EXPECT_EQ(diff::masked_line_check("tok=AAAA end", "tok=CCCC end", m, O()).fail,
            diff::LineFail::kNone);
}

TEST(EphemeralTokens, DetectsCsrfStyleToken) {
  std::vector<std::vector<std::string>> lines{
      {"<input value=\"aaaaaaaaaaaaaaaa\">"},
      {"<input value=\"bbbbbbbbbbbbbbbb\">"},
      {"<input value=\"cccccccccccccccc\">"},
  };
  auto tokens = detect_tokens_strings(lines);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0][0], "aaaaaaaaaaaaaaaa");
  EXPECT_EQ(tokens[0][2], "cccccccccccccccc");
}

TEST(EphemeralTokens, ShortRunsRejected) {
  // Paper's criterion: >= 10 chars.
  std::vector<std::vector<std::string>> lines{
      {"id=abc123"},
      {"id=def456"},
      {"id=ghi789"},
  };
  EXPECT_TRUE(detect_tokens_strings(lines).empty());
}

TEST(EphemeralTokens, NonAlnumRunsRejected) {
  std::vector<std::vector<std::string>> lines{
      {"v=aaaa-aaaa-aaaa"},
      {"v=bbbb-bbbb-bbbb"},
      {"v=cccc-cccc-cccc"},
  };
  EXPECT_TRUE(detect_tokens_strings(lines).empty());
}

TEST(EphemeralTokens, LineMustDifferAcrossAllInstances) {
  // Instances 0 and 2 agree, so the line does not qualify.
  std::vector<std::vector<std::string>> lines{
      {"tok=aaaaaaaaaaaa"},
      {"tok=bbbbbbbbbbbb"},
      {"tok=aaaaaaaaaaaa"},
  };
  EXPECT_TRUE(detect_tokens_strings(lines).empty());
}

TEST(EphemeralTokens, StableLinesIgnored) {
  std::vector<std::vector<std::string>> lines{
      {"<html>", "tok=aaaaaaaaaaaa", "</html>"},
      {"<html>", "tok=bbbbbbbbbbbb", "</html>"},
  };
  auto tokens = detect_tokens_strings(lines);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0][1], "bbbbbbbbbbbb");
}

TEST(EphemeralTokens, VariableLengthTokens) {
  std::vector<std::vector<std::string>> lines{
      {"t=aaaaaaaaaaaaaaa;"},
      {"t=bbbbbbbbbbbb;"},
      {"t=cccccccccccccccccc;"},
  };
  auto tokens = detect_tokens_strings(lines);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0][1], "bbbbbbbbbbbb");
}

// Property sweep: random tokens in a fixed frame are always masked; a
// mutation outside the token region is always caught.
class NoisePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NoisePropertyTest, RandomTokensMaskedMutationsCaught) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::string prefix = "Set-Cookie: sid=";
  std::string suffix = "; HttpOnly";
  auto page = [&](const std::string& tok) {
    return std::vector<std::string>{"HTTP/1.1 200 OK", prefix + tok + suffix,
                                    "body line"};
  };
  auto a = page(rng.alnum_token(32));
  auto b = page(rng.alnum_token(32));
  auto c = page(rng.alnum_token(32));
  EXPECT_FALSE(pair_masked_compare(a, b, c).has_value());
  // Mutate the third instance outside the token: must diverge.
  auto d = page(rng.alnum_token(32));
  d[2] = "body line LEAKED-DATA";
  EXPECT_TRUE(pair_masked_compare(a, b, d).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoisePropertyTest,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace rddr::core
