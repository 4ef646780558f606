// Deterministic, platform-independent RNG (splitmix64 seeding a
// xoshiro256** core, Box-Muller Gaussians). std::normal_distribution is
// implementation-defined, which would make "same seed, same dataset"
// depend on the standard library — all generators and samplers use this
// instead so results are bit-identical across gcc/clang and OSes.
#ifndef DPC_CORE_RNG_H_
#define DPC_CORE_RNG_H_

#include <cmath>
#include <cstdint>

namespace dpc {

class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 to spread low-entropy seeds over the full state.
    uint64_t x = seed;
    for (int i = 0; i < 4; ++i) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s_[i] = z ^ (z >> 31);
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  /// Uniform integer in [0, n).
  uint64_t NextBelow(uint64_t n) { return n == 0 ? 0 : NextU64() % n; }

  /// Alias for NextBelow, matching the name the bench/ layer uses.
  uint64_t NextBounded(uint64_t n) { return NextBelow(n); }

  /// Standard normal via Box-Muller (one value per call; cache the pair).
  double NextGaussian() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = NextDouble();
    while (u1 <= 0.0) u1 = NextDouble();
    const double u2 = NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  double cached_ = 0.0;
  bool has_cached_ = false;
};

/// One splitmix64-mixed uniform double in [0, 1) from (seed, index) — a
/// stateless per-point coin for deterministic subsampling (CFSFDP-A's
/// density sample, the SVG scatter plots' point thinning). Thresholding
/// it yields nested samples: the set kept at a lower rate is a subset of
/// any higher rate's, independent of thread count and iteration order.
inline double HashToUnit(uint64_t seed, uint64_t index) {
  uint64_t z = seed ^ (index + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace dpc

#endif  // DPC_CORE_RNG_H_
