// SIMD kernels for the diff-and-denoise data plane.
//
// Two tables of each primitive: native() — SSE2 wherever the build
// targets it (the x86-64 baseline), scalar otherwise — which every
// DiffEngine runs, and scalar(), the portable oracle. Both are
// bit-identical by contract: tests/rddr_diff_engine_test.cc runs a seeded
// differential property suite asserting identical mismatch offsets, masks
// and verdicts between the two, with scalar as the oracle.
//
// The kernels are byte-exact replacements for the scalar loops the old
// pairwise de-noise implementation used; none changes comparison semantics.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace rddr::core::simd {

/// First divergence found by the interleaved N-way scan.
struct NwayHit {
  size_t offset = 0;          // byte offset of the first divergence
  size_t instance = SIZE_MAX;  // candidate index (SIZE_MAX: all equal)
};

/// One kernel table. Engines hold a pointer to theirs, so the
/// differential tests can run a scalar engine beside a native one.
struct Ops {
  /// First index in [0,n) where a and b differ; n when equal.
  size_t (*mismatch)(const char* a, const char* b, size_t n);
  /// Longest common suffix length (<= n) of the n bytes ENDING at a_end
  /// and b_end (exclusive), i.e. scanning backwards.
  size_t (*suffix_len)(const char* a_end, const char* b_end, size_t n);
  /// First index in [0,n) where p is not [0-9A-Za-z]; n when all alnum.
  size_t (*find_non_alnum)(const char* p, size_t n);
  /// Scans cands[0..k) against ref over [0,n) chunk-interleaved (each ref
  /// chunk is loaded once and compared against every candidate before
  /// advancing). Returns the lowest diverging offset; ties broken by the
  /// lowest candidate index. {n, SIZE_MAX} when all k are equal to ref.
  NwayHit (*nway_mismatch)(const char* ref, const char* const* cands,
                           size_t k, size_t n);
};

/// SSE2 where the build defines __SSE2__, scalar() otherwise.
const Ops& native();
/// The portable byte loops: the oracle native() is tested against.
const Ops& scalar();

// ---- thin view-level helpers over a table ----

inline size_t common_prefix(const Ops& o, ByteView a, ByteView b) {
  size_t n = std::min(a.size(), b.size());
  return n == 0 ? 0 : o.mismatch(a.data(), b.data(), n);
}

inline size_t common_suffix(const Ops& o, ByteView a, ByteView b) {
  size_t n = std::min(a.size(), b.size());
  return n == 0 ? 0
               : o.suffix_len(a.data() + a.size(), b.data() + b.size(), n);
}

inline bool equal(const Ops& o, ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  return a.empty() || o.mismatch(a.data(), b.data(), a.size()) == a.size();
}

inline bool all_alnum(const Ops& o, ByteView v) {
  return v.empty() || o.find_non_alnum(v.data(), v.size()) == v.size();
}

}  // namespace rddr::core::simd
