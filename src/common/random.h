#ifndef PARDB_COMMON_RANDOM_H_
#define PARDB_COMMON_RANDOM_H_

#include <cassert>
#include <cstdint>
#include <vector>

namespace pardb {

// Precomputed division-free reduction modulo a fixed bound. `Mod` returns
// exactly `x % n` for every x — same result as the hardware divide, via a
// 64x64->128 multiply by floor(2^64 / n) and one conditional correction —
// so callers that memoize one FastMod per bound (schedulers draw from the
// same small ready-counts over and over) drop the per-step divide without
// changing a single result.
struct FastMod {
  std::uint64_t n = 0;
  std::uint64_t magic = 0;      // floor(2^64 / n), n >= 2
  std::uint64_t threshold = 0;  // 2^64 mod n (the Rng::Uniform reject bound)

  void Init(std::uint64_t bound) {
    assert(bound > 0);
    n = bound;
    if (bound == 1) {
      magic = 0;
      threshold = 0;
      return;
    }
    // 2^64 = q*n + r with 0 <= r < n: (2^64 - n)/n = q - 1 in u64, and
    // 0 - q*n = 2^64 - q*n = r (mod 2^64), which is also -n % n.
    magic = (0 - bound) / bound + 1;
    threshold = 0 - magic * bound;
  }

  std::uint64_t Mod(std::uint64_t x) const {
    if (n <= 1) return 0;
    // quot is floor(x * magic / 2^64) which is floor(x/n) or one less;
    // a single conditional subtract lands on the exact remainder.
    const std::uint64_t quot = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * magic) >> 64);
    std::uint64_t rem = x - quot * n;
    if (rem >= n) rem -= n;
    return rem;
  }
};

// Deterministic 64-bit PRNG (xoshiro256**). Workloads and simulations must
// be reproducible bit-for-bit from a seed, so std::mt19937 (whose
// distributions are implementation-defined) is not used.
//
// The generator and the bounded draws are header-inline: schedulers call
// Next()/Uniform() once per step, and an out-of-line call plus two hardware
// divides (the old Uniform) measurably dominates a ~100ns step budget.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = SplitMix64(sm);
    // All-zero state would be a fixed point; SplitMix64 cannot produce four
    // zeros from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  // Uniform in [0, 2^64).
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling, so
  // the distribution is exactly uniform.
  std::uint64_t Uniform(std::uint64_t bound) {
    assert(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      std::uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  // Exactly Uniform(fm.n) — same rejection decisions (FastMod::threshold
  // equals -n % n) and the same remainder, so the draw sequence is
  // bit-identical — but with the divides replaced by fm's multiply.
  std::uint64_t UniformFast(const FastMod& fm) {
    for (;;) {
      std::uint64_t r = Next();
      if (r >= fm.threshold) return fm.Mod(r);
    }
  }

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformRange(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(Next());  // full range
    return lo + static_cast<std::int64_t>(Uniform(span));
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> [0,1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  // Fisher-Yates shuffles v in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = Uniform(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  // SplitMix64, used to expand the seed into xoshiro state.
  static std::uint64_t SplitMix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

// Zipfian distribution over {0, ..., n-1} with skew theta (theta = 0 is
// uniform; typical hotspot workloads use 0.7-0.99). Uses the Gray et al.
// rejection-free method with precomputed constants, matching YCSB's
// generator semantics.
class ZipfianGenerator {
 public:
  // n >= 1, theta in [0, 1). theta == 0 degenerates to uniform.
  ZipfianGenerator(std::uint64_t n, double theta);

  std::uint64_t Next(Rng& rng);

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
  double half_pow_theta_;  // 0.5^theta, the rank-1 band's width
};

}  // namespace pardb

#endif  // PARDB_COMMON_RANDOM_H_
