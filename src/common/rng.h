// Deterministic random number generation.
//
// Every stochastic component of the simulator draws from an Rng that is
// forked by name from a single scenario seed. Forking (rather than sharing
// one generator) means modules consume independent streams: adding a draw in
// the mobility model cannot perturb the traffic model, so experiments stay
// reproducible across code evolution as long as stream names are stable.
//
// The core generator is xoshiro256++, seeded through splitmix64 — small,
// fast, and statistically solid for simulation (not cryptographic) use.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace cellscope {

// splitmix64 step; used for seeding and for hashing stream names.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a over a string, for deriving per-stream seeds from names.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  // Named fork: independent stream derived from this stream's seed and a
  // stable name. Forking does not consume randomness from the parent.
  [[nodiscard]] Rng fork(std::string_view stream_name) const;
  // Indexed fork, e.g. one stream per user.
  [[nodiscard]] Rng fork(std::string_view stream_name, std::uint64_t index) const;

  [[nodiscard]] std::uint64_t next();

  // UniformRandomBitGenerator interface (usable with <random> if desired).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  // Uniform double in [0, 1).
  [[nodiscard]] double uniform() {
    // 53 uniform bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  // Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  // Uniform integer in [0, n). n must be > 0.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) {
    assert(n > 0);
    // Lemire-style rejection-free for our (non-adversarial) purposes: the
    // bias of a plain modulo with 64-bit input and n <= 2^32 is immeasurably
    // small, but use the widening multiply anyway.
    const unsigned __int128 product = static_cast<unsigned __int128>(next()) *
                                      static_cast<unsigned __int128>(n);
    return static_cast<std::uint64_t>(product >> 64);
  }
  // Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Bernoulli trial.
  [[nodiscard]] bool chance(double probability) {
    if (probability <= 0.0) return false;
    if (probability >= 1.0) return true;
    return uniform() < probability;
  }

  // Standard normal via Box-Muller (no state carried between calls).
  [[nodiscard]] double normal();
  [[nodiscard]] double normal(double mean, double stddev);
  // Log-normal with the given parameters of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma);
  // Exponential with the given mean (not rate).
  [[nodiscard]] double exponential(double mean);
  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64).
  [[nodiscard]] std::uint64_t poisson(double mean);
  // The same draw for a caller that computed Knuth's threshold,
  // std::exp(-mean), once for many draws of one mean.
  [[nodiscard]] std::uint64_t poisson(double mean, double knuth_threshold);
  // Zipf-like rank draw in [0, n) with exponent s (rank 0 most likely).
  [[nodiscard]] std::uint64_t zipf(std::uint64_t n, double s);
  // Index drawn proportionally to the (non-negative) weights.
  [[nodiscard]] std::size_t categorical(std::span<const double> weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[uniform_index(i)]);
    }
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t seed_ = 0;
  std::uint64_t s_[4] = {};
};

// Defined here rather than in rng.cc: every draw of the per-user day
// kernel starts with it, and those callers live in other libraries.
inline std::uint64_t Rng::next() {
  // xoshiro256++
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

// Precomputed alias-free sampler for repeated categorical draws over a fixed
// weight vector (cumulative distribution + binary search).
class DiscreteSampler {
 public:
  DiscreteSampler() = default;
  explicit DiscreteSampler(std::span<const double> weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return cumulative_.size(); }
  [[nodiscard]] bool empty() const { return cumulative_.empty(); }

 private:
  std::vector<double> cumulative_;
};

}  // namespace cellscope
