#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <numbers>
#include <stdexcept>

namespace cellscope {

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng Rng::fork(std::string_view stream_name) const {
  return Rng{seed_ ^ fnv1a(stream_name)};
}

Rng Rng::fork(std::string_view stream_name, std::uint64_t index) const {
  std::uint64_t mix = seed_ ^ fnv1a(stream_name);
  mix += index * 0x9e3779b97f4a7c15ULL;
  return Rng{splitmix64(mix)};
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  // Box-Muller; discard the second variate to keep the generator stateless.
  const double u1 = std::max(uniform(), 0x1.0p-60);
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double mean) {
  const double u = std::max(uniform(), 0x1.0p-60);
  return -mean * std::log(u);
}

std::uint64_t Rng::poisson(double mean) {
  return poisson(mean, mean > 0.0 && mean < 64.0 ? std::exp(-mean) : 0.0);
}

std::uint64_t Rng::poisson(double mean, double knuth_threshold) {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's product method.
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > knuth_threshold);
    return k - 1;
  }
  // Normal approximation for large means.
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  assert(n > 0);
  // Inverse-CDF over the (small) support; n is at most a few dozen wherever
  // this is used (important places, app catalog), so linear scan is fine.
  double norm = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) norm += 1.0 / std::pow(double(k), s);
  double u = uniform() * norm;
  for (std::uint64_t k = 1; k <= n; ++k) {
    u -= 1.0 / std::pow(double(k), s);
    if (u <= 0.0) return k - 1;
  }
  return n - 1;
}

std::size_t Rng::categorical(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("categorical: weights sum to zero");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

DiscreteSampler::DiscreteSampler(std::span<const double> weights) {
  cumulative_.reserve(weights.size());
  double running = 0.0;
  for (const double w : weights) {
    if (w < 0.0)
      throw std::invalid_argument("DiscreteSampler: negative weight");
    running += w;
    cumulative_.push_back(running);
  }
  if (!cumulative_.empty() && running <= 0.0)
    throw std::invalid_argument("DiscreteSampler: weights sum to zero");
}

std::size_t DiscreteSampler::sample(Rng& rng) const {
  assert(!cumulative_.empty());
  const double u = rng.uniform() * cumulative_.back();
  const auto it =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cumulative_.begin(),
                               static_cast<std::ptrdiff_t>(cumulative_.size()) - 1));
}

}  // namespace cellscope
