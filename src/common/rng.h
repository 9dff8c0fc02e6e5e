// Seeded random number generation.
//
// Every source of randomness in the repo flows through `Rng` so that whole
// simulations replay deterministically from a single seed. Services that the
// paper assumes use a *cryptographically secure* source (session IDs, CSRF
// tokens — §IV-B2 of the paper) take an independent `Rng` stream per
// instance, derived via `fork()`, so distinct instances never collide.
#pragma once

#include <cstdint>
#include <string>

namespace rddr {

/// Deterministic 64-bit PRNG (xoshiro256** seeded via splitmix64).
///
/// Not cryptographically secure in the real-world sense; within the
/// simulation it plays the role of the paper's CSPRNG because streams forked
/// with distinct labels are independent and collisions are (for our state
/// sizes) never observed.
class Rng {
 public:
  /// Seeds the generator. The same seed always yields the same sequence.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t next();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t uniform(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Exponentially distributed double with the given mean.
  double exponential(double mean);

  /// Random alphanumeric token of length `n` ([0-9a-zA-Z]).
  std::string alnum_token(size_t n);

  /// Derives an independent child stream; `label` decorrelates children
  /// created from the same parent state.
  Rng fork(uint64_t label);

 private:
  uint64_t s_[4];
};

}  // namespace rddr
