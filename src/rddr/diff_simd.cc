#include "rddr/diff_simd.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rddr::core::simd {

namespace {

inline bool is_alnum(unsigned char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

// ---------------- scalar ----------------

// Each scalar kernel is its byte loop run from index 0; the SSE2 kernels
// run the same loop over their tail, from the first index no 16-byte
// lane covered.

size_t mismatch_from(const char* a, const char* b, size_t i, size_t n) {
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

size_t suffix_len_from(const char* a_end, const char* b_end, size_t i,
                       size_t n) {
  while (i < n && a_end[-1 - static_cast<ptrdiff_t>(i)] ==
                      b_end[-1 - static_cast<ptrdiff_t>(i)])
    ++i;
  return i;
}

size_t find_non_alnum_from(const char* p, size_t i, size_t n) {
  while (i < n && is_alnum(static_cast<unsigned char>(p[i]))) ++i;
  return i;
}

NwayHit nway_mismatch_from(const char* ref, const char* const* cands,
                           size_t k, size_t off, size_t n) {
  for (; off < n; ++off) {
    char r = ref[off];
    for (size_t j = 0; j < k; ++j)
      if (cands[j][off] != r) return {off, j};
  }
  return {n, SIZE_MAX};
}

size_t mismatch_scalar(const char* a, const char* b, size_t n) {
  return mismatch_from(a, b, 0, n);
}

size_t suffix_len_scalar(const char* a_end, const char* b_end, size_t n) {
  return suffix_len_from(a_end, b_end, 0, n);
}

size_t find_non_alnum_scalar(const char* p, size_t n) {
  return find_non_alnum_from(p, 0, n);
}

NwayHit nway_mismatch_scalar(const char* ref, const char* const* cands,
                             size_t k, size_t n) {
  return nway_mismatch_from(ref, cands, k, 0, n);
}

#if defined(__SSE2__)

// ---------------- SSE2 (x86-64 baseline) ----------------

inline uint32_t neq_mask16(const char* a, const char* b) {
  __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  return ~static_cast<uint32_t>(
             _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb))) &
         0xffffu;
}

size_t mismatch_sse2(const char* a, const char* b, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint32_t bad = neq_mask16(a + i, b + i);
    if (bad) return i + static_cast<size_t>(__builtin_ctz(bad));
  }
  return mismatch_from(a, b, i, n);
}

size_t suffix_len_sse2(const char* a_end, const char* b_end, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint32_t bad = neq_mask16(a_end - i - 16, b_end - i - 16);
    if (bad)
      return i + 15 - static_cast<size_t>(31 - __builtin_clz(bad));
  }
  return suffix_len_from(a_end, b_end, i, n);
}

/// Bitmask of non-alnum bytes within one 16-byte lane. Thresholds are all
/// < 0x80 and bytes >= 0x80 read as negative, so signed compares classify
/// exactly like the scalar [0-9A-Za-z] test.
inline uint32_t non_alnum_mask16(const char* p) {
  __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  __m128i digit = _mm_and_si128(_mm_cmpgt_epi8(v, _mm_set1_epi8('0' - 1)),
                                _mm_cmpgt_epi8(_mm_set1_epi8('9' + 1), v));
  __m128i lower = _mm_or_si128(v, _mm_set1_epi8(0x20));
  __m128i alpha =
      _mm_and_si128(_mm_cmpgt_epi8(lower, _mm_set1_epi8('a' - 1)),
                    _mm_cmpgt_epi8(_mm_set1_epi8('z' + 1), lower));
  uint32_t alnum = static_cast<uint32_t>(
      _mm_movemask_epi8(_mm_or_si128(digit, alpha)));
  return ~alnum & 0xffffu;
}

size_t find_non_alnum_sse2(const char* p, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint32_t bad = non_alnum_mask16(p + i);
    if (bad) return i + static_cast<size_t>(__builtin_ctz(bad));
  }
  return find_non_alnum_from(p, i, n);
}

NwayHit nway_mismatch_sse2(const char* ref, const char* const* cands,
                           size_t k, size_t n) {
  size_t off = 0;
  for (; off + 16 <= n; off += 16) {
    __m128i r = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ref + off));
    NwayHit best{n, SIZE_MAX};
    for (size_t j = 0; j < k; ++j) {
      __m128i c =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cands[j] + off));
      uint32_t bad = ~static_cast<uint32_t>(
                         _mm_movemask_epi8(_mm_cmpeq_epi8(r, c))) &
                     0xffffu;
      if (bad) {
        size_t at = off + static_cast<size_t>(__builtin_ctz(bad));
        if (at < best.offset) best = {at, j};
      }
    }
    if (best.instance != SIZE_MAX) return best;
  }
  return nway_mismatch_from(ref, cands, k, off, n);
}

#endif  // __SSE2__

const Ops kScalarOps = {mismatch_scalar, suffix_len_scalar,
                        find_non_alnum_scalar, nway_mismatch_scalar};
#if defined(__SSE2__)
const Ops kSse2Ops = {mismatch_sse2, suffix_len_sse2, find_non_alnum_sse2,
                      nway_mismatch_sse2};
#endif

}  // namespace

const Ops& native() {
#if defined(__SSE2__)
  return kSse2Ops;
#else
  return kScalarOps;
#endif
}

const Ops& scalar() { return kScalarOps; }

}  // namespace rddr::core::simd
