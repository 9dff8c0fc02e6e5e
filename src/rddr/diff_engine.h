// Batched N-way diff-and-denoise engine (the redesigned comparison API).
//
// The old data plane was pairwise: each compare re-canonicalised every
// unit, built the §IV-B2 noise mask from scratch, compared candidates one
// at a time, and the quorum vote then repeated ALL of that once per
// leave-one-out subset — so a single response unit was denoised up to
// N+2 times. DiffEngine replaces that call pattern with one batched call:
//
//   * each unit is canonicalised exactly once (ProtocolPlugin::
//     canonicalize) into arena-backed line views;
//   * the benign fast path scans first-divergence across ALL N responses
//     in one interleaved vectorised pass (SSE2 or scalar — see
//     rddr/diff_simd.h);
//   * on divergence, the filter-pair mask is built once and every quorum
//     subset verdict is derived from precomputed per-instance facts
//     (masked-match bits + exact-equality classes) without re-comparing;
//   * the quorum verdict, divergence reason and divergence region come
//     back from the single call.
//
// Verdicts and reason strings are bit-identical to the historical
// pairwise path (the ctest `pin` runs hold every figure and trace golden
// byte-exact through this engine), and every allocation belongs to the
// per-engine Arena, reset per batch — steady state allocates nothing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rddr/arena.h"
#include "rddr/diff_simd.h"
#include "rddr/plugin.h"

namespace rddr::core {

namespace diff {

/// Per-line noise mask (§IV-B2): enforce the first `prefix` and last
/// `suffix` bytes, ignore the middle. `active` mirrors the old
/// "optional<LineMask> present" state: inactive lines require equality.
struct LineMask {
  uint32_t prefix = 0;
  uint32_t suffix = 0;
  bool active = false;
};

/// Builds one line's mask from the filter pair's copies: common
/// prefix/suffix, clamped to disjoint regions of the shorter line, then
/// widened to alphanumeric-run boundaries (chance agreement between two
/// random tokens must not be enforced on other instances).
LineMask build_line_mask(ByteView a, ByteView b, const simd::Ops& ops);

/// Why one line failed the masked check (kNone: it passed).
enum class LineFail {
  kNone,
  kDiffers,            // unmasked line, bytes differ
  kShorterThanFrame,   // candidate shorter than prefix+suffix
  kPrefix,             // differs inside the enforced prefix
  kSuffix,             // differs inside the enforced suffix
};

struct LineCheck {
  LineFail fail = LineFail::kNone;
  size_t offset = 0;  // byte offset of the failure (best effort)
};

LineCheck masked_line_check(ByteView ref, ByteView cand, const LineMask& m,
                            const simd::Ops& ops);

/// One detected ephemeral token (§IV-B3): per-instance views of an alnum
/// run >= 10 chars that differs across ALL instances. Views alias the
/// canonical lines; materialise before the next arena reset.
struct TokenSpan {
  const ByteView* per_instance = nullptr;  // arena array, length n
  size_t n = 0;
};

/// Scans aligned canonical lines from all n units for ephemeral tokens.
ArenaVec<TokenSpan> detect_tokens(const CanonicalUnit* canon, size_t n,
                                  Arena& arena, const simd::Ops& ops);

}  // namespace diff

/// Verdict of one batched N-way compare. Field semantics match the old
/// QuorumVote exactly (strict mode: agreed == !divergent, outlier unset).
struct BatchVerdict {
  /// Every unit agreed under the plugin's rules.
  bool unanimous = false;
  /// Unanimous, or a strict majority agreed with exactly one outlier.
  bool agreed = false;
  /// Index (into `units`) of the outvoted instance; SIZE_MAX when none.
  size_t outlier = SIZE_MAX;
  /// Divergence reason (the full-group compare's reason) when the batch
  /// was not unanimous; byte-identical to the historical strings.
  std::string reason;
  /// First divergence located by the interleaved scan: canonical line,
  /// byte offset within it, and the diverging instance. `line == SIZE_MAX`
  /// when the divergence was structural (class/line-count) rather than a
  /// byte position.
  struct Region {
    size_t line = SIZE_MAX;
    size_t offset = 0;
    size_t instance = SIZE_MAX;
  } region;
};

enum class VoteMode {
  kStrict,  // unanimity or nothing (DegradationPolicy::kStrict)
  kQuorum,  // leave-one-out majority vote (kQuorum / kFailOpen)
};

class DiffEngine {
 public:
  DiffEngine() : DiffEngine(simd::native()) {}
  /// Runs `ops` instead of simd::native(): the seam the differential
  /// tests use to pit a simd::scalar() engine against a native one.
  explicit DiffEngine(const simd::Ops& ops);

  /// The batched N-way compare: canonicalise once, scan, vote. In
  /// kStrict mode the verdict is the plugin-compare outcome (agreed ==
  /// unanimous); in kQuorum mode it is the full leave-one-out vote.
  /// Resets the arena, so views from the previous batch die here.
  BatchVerdict compare(const ProtocolPlugin& plugin,
                       const std::vector<Unit>& units,
                       const CompareContext& ctx, VoteMode mode);

  /// The one forward entry point, called after an agreeing compare() on
  /// the same `units`: harvests ephemeral tokens (CSRF, session ids:
  /// alphanumeric runs >= 10 chars differing across ALL instances, paper
  /// §IV-B3) into ctx.session and returns instance 0's bytes. Harvests
  /// from that compare()'s canonical forms, only when the plugin opts in,
  /// the batch was unanimous and ctx.session is set; any other batch
  /// harvests nothing.
  Bytes forward_downstream(const ProtocolPlugin& plugin,
                           const std::vector<Unit>& units,
                           const CompareContext& ctx);

  /// Core primitive under compare(): verdict over already-canonical
  /// units. Exposed for tests and microbenches; `plugin`/`units` may be
  /// null (generic class-mismatch reasons are used then). Does NOT reset
  /// the arena — the canonical views must live in arena() or outlive it.
  BatchVerdict compare_canonical(const CanonicalUnit* canon, size_t n,
                                 bool filter_pair, VoteMode mode,
                                 const ProtocolPlugin* plugin,
                                 const std::vector<Unit>* units);

  Arena& arena() { return arena_; }
  const simd::Ops& ops() const { return *ops_; }

  struct Stats {
    uint64_t batches = 0;         // compare() calls
    uint64_t raw_equal = 0;       // byte-identical batches, never parsed
    uint64_t fast_path = 0;       // all-equal, settled by the N-way scan
    uint64_t mask_builds = 0;     // slow-path filter-pair mask builds
    uint64_t quorum_votes = 0;    // divergent batches put to the vote
    uint64_t tokens_harvested = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  const simd::Ops* ops_;
  Arena arena_;
  Stats stats_;
  // Canonical forms of the last compare() batch, for forward_downstream.
  CanonicalUnit* canon_ = nullptr;
  const void* canon_key_ = nullptr;  // &units identity of that batch
  size_t canon_n_ = 0;
  bool last_unanimous_ = false;
  bool last_all_equal_ = false;
};

}  // namespace rddr::core
