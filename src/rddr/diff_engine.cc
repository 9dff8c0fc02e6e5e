#include "rddr/diff_engine.h"

#include <algorithm>

#include "common/strutil.h"

namespace rddr::core {

namespace diff {

namespace {

inline bool is_alnum(unsigned char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

/// printf precision replicating the old "%.80s on c_str()" truncation:
/// stop at 80 bytes or the first NUL, whichever comes first.
inline int reason_prec(ByteView v) {
  size_t lim = std::min<size_t>(v.size(), 80);
  size_t nul = v.substr(0, lim).find('\0');
  if (nul != ByteView::npos) lim = nul;
  return static_cast<int>(lim);
}

inline const char* reason_data(ByteView v) {
  return v.empty() ? "" : v.data();
}

}  // namespace

LineMask build_line_mask(ByteView a, ByteView b, const simd::Ops& ops) {
  LineMask m;
  if (simd::equal(ops, a, b)) return m;  // inactive: exact match required
  m.active = true;
  size_t prefix = simd::common_prefix(ops, a, b);
  size_t suffix = simd::common_suffix(ops, a, b);
  // Prefix and suffix may overlap when one line nearly contains the
  // other; clamp so they describe disjoint regions of the shorter line.
  size_t min_len = std::min(a.size(), b.size());
  if (prefix + suffix > min_len) suffix = min_len - prefix;
  // Widen the noise region to alphanumeric-run boundaries: tokens are
  // alnum runs, and two random tokens can share their first/last
  // characters by chance — without widening, that chance agreement would
  // be enforced on every other instance (a false positive).
  while (prefix > 0 && is_alnum(static_cast<unsigned char>(a[prefix - 1])))
    --prefix;
  while (suffix > 0 &&
         is_alnum(static_cast<unsigned char>(a[a.size() - suffix])))
    --suffix;
  m.prefix = static_cast<uint32_t>(prefix);
  m.suffix = static_cast<uint32_t>(suffix);
  return m;
}

LineCheck masked_line_check(ByteView ref, ByteView cand, const LineMask& m,
                            const simd::Ops& ops) {
  if (!m.active) {
    if (!simd::equal(ops, ref, cand))
      return {LineFail::kDiffers, simd::common_prefix(ops, ref, cand)};
    return {};
  }
  size_t frame = static_cast<size_t>(m.prefix) + m.suffix;
  if (cand.size() < frame) return {LineFail::kShorterThanFrame, cand.size()};
  if (m.prefix > 0) {
    size_t at = ops.mismatch(cand.data(), ref.data(), m.prefix);
    if (at < m.prefix) return {LineFail::kPrefix, at};
  }
  if (m.suffix > 0) {
    size_t matched = ops.suffix_len(cand.data() + cand.size(),
                                    ref.data() + ref.size(), m.suffix);
    if (matched < m.suffix)
      return {LineFail::kSuffix, cand.size() - 1 - matched};
  }
  return {};
}

ArenaVec<TokenSpan> detect_tokens(const CanonicalUnit* canon, size_t n,
                                  Arena& arena, const simd::Ops& ops) {
  ArenaVec<TokenSpan> out;
  if (n < 2) return out;
  const size_t line_count = canon[0].lines.size();
  for (size_t i = 1; i < n; ++i)
    if (canon[i].lines.size() != line_count) return out;

  for (size_t li = 0; li < line_count; ++li) {
    // "Lines that differ across all instances": every instance's line is
    // distinct from every other's.
    bool all_differ = true;
    for (size_t a = 0; a < n && all_differ; ++a)
      for (size_t b = a + 1; b < n && all_differ; ++b)
        if (simd::equal(ops, canon[a].lines[li], canon[b].lines[li]))
          all_differ = false;
    if (!all_differ) continue;

    // Character range that differs: common prefix/suffix over ALL lines.
    ByteView l0 = canon[0].lines[li];
    size_t p = l0.size();
    size_t s = l0.size();
    for (size_t a = 1; a < n; ++a) {
      p = std::min(p, simd::common_prefix(ops, l0, canon[a].lines[li]));
      s = std::min(s, simd::common_suffix(ops, l0, canon[a].lines[li]));
    }
    // Widen to alnum-run boundaries (chance agreement between random
    // tokens must not truncate the captured token).
    while (p > 0 && is_alnum(static_cast<unsigned char>(l0[p - 1]))) --p;
    while (s > 0 && is_alnum(static_cast<unsigned char>(l0[l0.size() - s])))
      --s;
    ByteView* per = arena.alloc_array<ByteView>(n);
    bool ok = true;
    for (size_t a = 0; a < n && ok; ++a) {
      ByteView line = canon[a].lines[li];
      size_t sfx = s;
      if (p + sfx > line.size()) {
        if (p > line.size()) {
          ok = false;
          break;
        }
        sfx = line.size() - p;
      }
      ByteView candidate = line.substr(p, line.size() - p - sfx);
      // Paper's empirically-determined criterion: alphanumeric, >= 10.
      if (candidate.size() < 10 || !simd::all_alnum(ops, candidate)) {
        ok = false;
        break;
      }
      per[a] = candidate;
    }
    if (ok) out.push_back(arena, TokenSpan{per, n});
  }
  return out;
}

}  // namespace diff

// ---------------------------------------------------------------------------
// DiffEngine
// ---------------------------------------------------------------------------

namespace {

// Initial reservation of the per-batch bump arena. The arena grows
// geometrically past it and keeps its capacity across batches, so this only
// sizes the warm-up.
constexpr size_t kArenaReserveBytes = 64 << 10;

using diff::LineCheck;
using diff::LineFail;
using diff::LineMask;

/// Why one instance failed against the reference (or the mask).
enum class InstFail {
  kNone,
  kCountStructural,  // line count mismatch under structural pair noise
  kCount,            // line count mismatch
  kLine,             // a specific line failed (see LineCheck)
};

struct InstResult {
  InstFail fail = InstFail::kNone;
  size_t line = SIZE_MAX;
  LineCheck check;
};

std::string inst_fail_reason(const InstResult& r, const CanonicalUnit& ref,
                             const CanonicalUnit& cand) {
  switch (r.fail) {
    case InstFail::kCountStructural:
      return strformat("line count %zu != %zu under structural noise",
                       cand.lines.size(), ref.lines.size());
    case InstFail::kCount:
      return strformat("line count %zu != %zu", cand.lines.size(),
                       ref.lines.size());
    case InstFail::kLine:
      switch (r.check.fail) {
        case LineFail::kDiffers: {
          ByteView a = ref.lines[r.line];
          ByteView b = cand.lines[r.line];
          return strformat("line %zu differs: '%.*s' vs '%.*s'", r.line,
                           diff::reason_prec(a), diff::reason_data(a),
                           diff::reason_prec(b), diff::reason_data(b));
        }
        case LineFail::kShorterThanFrame:
          return strformat("line %zu shorter than noise frame", r.line);
        case LineFail::kPrefix:
          return strformat("line %zu prefix differs outside noise region",
                           r.line);
        case LineFail::kSuffix:
          return strformat("line %zu suffix differs outside noise region",
                           r.line);
        case LineFail::kNone:
          break;
      }
      break;
    case InstFail::kNone:
      break;
  }
  return "diverged";
}

}  // namespace

DiffEngine::DiffEngine(const simd::Ops& ops)
    : ops_(&ops), arena_(kArenaReserveBytes) {}

BatchVerdict DiffEngine::compare(const ProtocolPlugin& plugin,
                                 const std::vector<Unit>& units,
                                 const CompareContext& ctx, VoteMode mode) {
  ++stats_.batches;
  const size_t n = units.size();
  // Raw short-circuit: canonicalisation is a pure function of (unit, ctx)
  // and every unit in the batch shares ctx, so byte-identical units have
  // identical canonical forms — the batch agrees before anything is
  // parsed. This is the dominant case on benign traffic and keeps the
  // per-batch cost at a memcmp per instance, like the pairwise path's
  // all-equal check, instead of N protocol parses.
  bool raw_equal = n >= 2;
  for (size_t i = 1; i < n && raw_equal; ++i)
    raw_equal =
        units[i].kind == units[0].kind && units[i].data == units[0].data;
  if (raw_equal) {
    ++stats_.raw_equal;
    arena_.reset();
    canon_ = nullptr;
    canon_key_ = &units;  // marks the batch known-identical for forward_
    canon_n_ = n;         // downstream (no tokens to harvest)
    last_all_equal_ = true;
    last_unanimous_ = true;
    BatchVerdict v;
    v.unanimous = v.agreed = true;
    return v;
  }
  arena_.reset();
  canon_ = arena_.alloc_array<CanonicalUnit>(n);
  for (size_t i = 0; i < n; ++i) {
    canon_[i] = CanonicalUnit{};
    plugin.canonicalize(units[i], ctx, arena_, canon_[i]);
  }
  canon_key_ = &units;
  canon_n_ = n;
  BatchVerdict v =
      compare_canonical(canon_, n, ctx.filter_pair, mode, &plugin, &units);
  last_unanimous_ = v.unanimous;
  return v;
}

BatchVerdict DiffEngine::compare_canonical(const CanonicalUnit* canon,
                                           size_t n, bool filter_pair,
                                           VoteMode mode,
                                           const ProtocolPlugin* plugin,
                                           const std::vector<Unit>* units) {
  BatchVerdict v;
  last_all_equal_ = false;
  if (n == 0) {
    v.unanimous = v.agreed = true;
    return v;
  }
  const bool per_line = canon[0].per_line;
  const size_t count0 = canon[0].lines.size();

  // ---- class scan: units in different comparability classes diverge
  // before any content is read (the old kinds_match). ----
  size_t class_bad = SIZE_MAX;
  for (size_t i = 1; i < n; ++i) {
    if (canon[i].klass != canon[0].klass) {
      class_bad = i;
      break;
    }
  }

  if (class_bad == SIZE_MAX) {
    // ---- known-variance exemption (BackendKeyData, ignored
    // ParameterStatus): agrees by definition, content never read. ----
    bool all_exempt = true;
    for (size_t i = 0; i < n && all_exempt; ++i) all_exempt = canon[i].exempt;
    if (all_exempt) {
      v.unanimous = v.agreed = true;
      return v;
    }

    // ---- fast path: the interleaved N-way first-divergence scan. On
    // benign traffic every instance answers identically, so one
    // vectorised pass over the batch settles the verdict with no mask
    // work and no per-subset recomparison at all. ----
    bool counts_ok = true;
    for (size_t i = 1; i < n && counts_ok; ++i)
      counts_ok = canon[i].lines.size() == count0;
    if (counts_ok && n >= 2) {
      const char** cands = arena_.alloc_array<const char*>(n - 1);
      bool all_equal = true;
      for (size_t j = 0; j < count0 && all_equal; ++j) {
        ByteView ref = canon[0].lines[j];
        for (size_t i = 1; i < n; ++i) {
          if (canon[i].lines[j].size() != ref.size()) {
            all_equal = false;
            v.region = {j, std::min(ref.size(), canon[i].lines[j].size()), i};
            break;
          }
          cands[i - 1] = canon[i].lines[j].data();
        }
        if (!all_equal) break;
        if (ref.empty()) continue;
        simd::NwayHit hit =
            ops_->nway_mismatch(ref.data(), cands, n - 1, ref.size());
        if (hit.instance != SIZE_MAX) {
          all_equal = false;
          v.region = {j, hit.offset, hit.instance + 1};
        }
      }
      if (all_equal) {
        ++stats_.fast_path;
        last_all_equal_ = true;
        v.unanimous = v.agreed = true;
        return v;
      }
    }
  }

  // ---- slow path: some instance differs. Precompute per-instance facts
  // once; every verdict (full group + each leave-one-out subset) is then
  // derived from them without re-canonicalising or re-masking. ----

  // Exact-equality classes: cid[i] = lowest j with identical class+content.
  size_t* cid = arena_.alloc_array<size_t>(n);
  for (size_t i = 0; i < n; ++i) {
    cid[i] = i;
    for (size_t j = 0; j < i; ++j) {
      if (cid[j] != j) continue;  // only compare against representatives
      if (canon[j].klass != canon[i].klass) continue;
      if (canon[j].lines.size() != canon[i].lines.size()) continue;
      bool eq = true;
      for (size_t l = 0; l < canon[i].lines.size() && eq; ++l)
        eq = simd::equal(*ops_, canon[j].lines[l], canon[i].lines[l]);
      if (eq) {
        cid[i] = j;
        break;
      }
    }
  }

  // Filter-pair mask facts (§IV-B2), built once from instances 0/1 when a
  // masked context exists (full group of >= 3, or a subset keeping the
  // pair). masked[i] is instance i's verdict against instance 0 under
  // that one mask.
  const bool pair_comparable =
      filter_pair && n >= 3 && canon[1].klass == canon[0].klass;
  bool mask_structural = false;
  LineMask* mask_lines = nullptr;
  InstResult* masked = nullptr;
  bool* masked_ok = nullptr;
  if (pair_comparable) {
    ++stats_.mask_builds;
    mask_structural = canon[1].lines.size() != count0;
    if (!mask_structural) {
      mask_lines = arena_.alloc_array<LineMask>(count0);
      for (size_t j = 0; j < count0; ++j)
        mask_lines[j] =
            diff::build_line_mask(canon[0].lines[j], canon[1].lines[j], *ops_);
    }
    masked = arena_.alloc_array<InstResult>(n);
    masked_ok = arena_.alloc_array<bool>(n);
    for (size_t i = 0; i < n; ++i) {
      masked[i] = InstResult{};
      masked_ok[i] = true;
    }
    for (size_t i = 1; i < n; ++i) {
      if (i == 1) {
        // The mask is built FROM instance 1; under a non-structural mask
        // it passes by construction (the differential property test
        // checks this invariant against the reference implementation).
        if (mask_structural) {
          masked[1] = {InstFail::kCountStructural, SIZE_MAX, {}};
          masked_ok[1] = false;
        }
        continue;
      }
      const CanonicalUnit& c = canon[i];
      if (mask_structural) {
        if (c.lines.size() != count0) {
          masked[i] = {InstFail::kCountStructural, SIZE_MAX, {}};
          masked_ok[i] = false;
        }
        continue;
      }
      if (c.lines.size() != count0) {
        masked[i] = {InstFail::kCount, SIZE_MAX, {}};
        masked_ok[i] = false;
        continue;
      }
      for (size_t j = 0; j < count0; ++j) {
        LineCheck chk = diff::masked_line_check(canon[0].lines[j], c.lines[j],
                                                mask_lines[j], *ops_);
        if (chk.fail != LineFail::kNone) {
          masked[i] = {InstFail::kLine, j, chk};
          masked_ok[i] = false;
          break;
        }
      }
    }
  }

  // Exact walk of instance i against instance 0 (reason detail for the
  // unmasked line-oriented path — behaves like the old empty mask).
  auto exact_fail = [&](size_t i) -> InstResult {
    const CanonicalUnit& c = canon[i];
    if (c.lines.size() != count0) return {InstFail::kCount, SIZE_MAX, {}};
    LineMask inactive;
    for (size_t j = 0; j < count0; ++j) {
      LineCheck chk =
          diff::masked_line_check(canon[0].lines[j], c.lines[j], inactive, *ops_);
      if (chk.fail != LineFail::kNone) return {InstFail::kLine, j, chk};
    }
    return {};
  };

  // ---- full-group verdict (== the old plugin compare). ----
  const bool use_mask_full = filter_pair && n >= 3;
  bool full_divergent = false;
  std::string full_reason;
  auto fill_region = [&](size_t i, const InstResult& r) {
    if (v.region.instance != SIZE_MAX) return;  // fast scan already found it
    if (r.fail == InstFail::kLine)
      v.region = {r.line, r.check.offset, i};
    else
      v.region = {SIZE_MAX, 0, i};
  };
  if (class_bad != SIZE_MAX) {
    full_divergent = true;
    if (plugin && units) {
      full_reason = plugin->class_mismatch_reason(*units, class_bad);
    } else {
      full_reason = strformat(
          "unit class mismatch: instance 0 sent %.*s, instance %zu sent %.*s",
          diff::reason_prec(canon[0].klass), diff::reason_data(canon[0].klass),
          class_bad, diff::reason_prec(canon[class_bad].klass),
          diff::reason_data(canon[class_bad].klass));
    }
    v.region = {SIZE_MAX, 0, class_bad};
  } else if (use_mask_full) {
    const size_t start = per_line ? 1 : 2;
    for (size_t i = start; i < n; ++i) {
      if (masked_ok && !masked_ok[i]) {
        full_divergent = true;
        std::string sub = inst_fail_reason(masked[i], canon[0], canon[i]);
        if (per_line) {
          full_reason = strformat("instance %zu: %s", i, sub.c_str());
        } else {
          full_reason = strformat("%.*s: instance %zu: %s",
                                  diff::reason_prec(canon[0].what),
                                  diff::reason_data(canon[0].what), i,
                                  sub.c_str());
        }
        fill_region(i, masked[i]);
        break;
      }
    }
  } else {
    for (size_t i = 1; i < n; ++i) {
      if (cid[i] != 0) {
        full_divergent = true;
        if (per_line) {
          InstResult r = exact_fail(i);
          full_reason = strformat("instance %zu: %s", i,
                                  inst_fail_reason(r, canon[0], canon[i]).c_str());
          fill_region(i, r);
        } else {
          full_reason = strformat("%.*s differs across instances",
                                  diff::reason_prec(canon[0].what),
                                  diff::reason_data(canon[0].what));
          v.region.instance = v.region.instance == SIZE_MAX ? i : v.region.instance;
        }
        break;
      }
    }
  }

  if (!full_divergent) {
    v.unanimous = v.agreed = true;
    return v;
  }
  v.reason = std::move(full_reason);
  if (mode == VoteMode::kStrict) return v;

  // ---- quorum vote, derived from the precomputed facts (the old code
  // re-ran the whole compare once per leave-one-out subset). ----
  if (n < 3) return v;  // no majority possible
  ++stats_.quorum_votes;
  auto subset_agrees = [&](size_t o) -> bool {
    const size_t rep = o == 0 ? 1 : 0;
    for (size_t i = 0; i < n; ++i)
      if (i != o && canon[i].klass != canon[rep].klass) return false;
    bool exempt = true;
    for (size_t i = 0; i < n && exempt; ++i)
      if (i != o) exempt = canon[i].exempt;
    if (exempt) return true;
    // The de-noise mask is built from units 0 and 1; excluding either
    // breaks the pair, so those subsets fall back to exact comparison.
    const bool use_mask = filter_pair && o > 1 && (n - 1) >= 3;
    if (use_mask) {
      const size_t start = per_line ? 1 : 2;
      for (size_t i = start; i < n; ++i)
        if (i != o && masked_ok && !masked_ok[i]) return false;
      return true;
    }
    for (size_t i = 0; i < n; ++i)
      if (i != o && cid[i] != cid[rep]) return false;
    return true;
  };
  size_t candidate = SIZE_MAX;
  for (size_t o = 0; o < n; ++o) {
    if (subset_agrees(o)) {
      if (candidate != SIZE_MAX) return v;  // ambiguous: several outliers
      candidate = o;
    }
  }
  if (candidate == SIZE_MAX) return v;  // nobody's removal restores accord
  v.agreed = true;
  v.outlier = candidate;
  return v;
}

Bytes DiffEngine::forward_downstream(const ProtocolPlugin& plugin,
                                     const std::vector<Unit>& units,
                                     const CompareContext& ctx) {
  // A token differs across every instance, so only a unanimous batch whose
  // canonical forms were not all equal can hold one. Those forms are the
  // preceding compare()'s, still in the arena; a byte-identical batch
  // never had any.
  const bool compared = canon_key_ == static_cast<const void*>(&units) &&
                        canon_n_ == units.size();
  if (plugin.harvest_tokens() && ctx.session && units.size() >= 2 &&
      compared && last_unanimous_ && !last_all_equal_) {
    ArenaVec<diff::TokenSpan> tokens =
        diff::detect_tokens(canon_, units.size(), arena_, *ops_);
    for (const diff::TokenSpan& t : tokens) {
      std::vector<std::string> per;
      per.reserve(t.n);
      for (size_t a = 0; a < t.n; ++a) per.emplace_back(t.per_instance[a]);
      std::string key = per[0];
      ctx.session->tokens[std::move(key)] = std::move(per);
      ++stats_.tokens_harvested;
    }
  }
  return units[0].data;
}

}  // namespace rddr::core
