#include "common/rng.h"

#include <cmath>

namespace rddr {

namespace {

uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

uint64_t Rng::next() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

int64_t Rng::uniform(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(next());  // full 64-bit range
  return lo + static_cast<int64_t>(next() % span);
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double mean) {
  double u = uniform01();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

std::string Rng::alnum_token(size_t n) {
  static constexpr char kAlphabet[] =
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(kAlphabet[next() % 62]);
  return out;
}

Rng Rng::fork(uint64_t label) {
  // Mix the parent's next output with the label so children with different
  // labels are decorrelated even when forked from identical parent states.
  uint64_t seed = next() ^ (label * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  return Rng(seed);
}

}  // namespace rddr
