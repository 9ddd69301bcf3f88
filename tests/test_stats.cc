// Statistics kernel: the reductions every figure depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"

namespace cellscope::stats {
namespace {

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{5.0}), 5.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{-1.0, 1.0}), 0.0);
}

TEST(Variance, Basics) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0}), 0.0);
  // Sample variance of {2, 4}: mean 3, var ((1)+(1))/(2-1) = 2.
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{2.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{2.0, 4.0}), std::sqrt(2.0));
  // {1..5}: mean 3, sum of squared deviations 10, sample variance 10/4.
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}),
                   2.5);
}

TEST(Quantile, IgnoresNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaNs would poison std::nth_element's strict-weak-ordering contract;
  // the quantile is taken over the finite subset only.
  const std::vector<double> v = {nan, 10.0, nan, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(median(v), 20.0);
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{nan, nan}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{nan}), 0.0);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Median, RobustToOutliers) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{1.0, 2.0, 3.0, 1e9}), 2.5);
}

TEST(Quantile, Interpolation) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.125), 15.0);  // halfway between 10 and 20
}

TEST(Quantile, ClampsOutOfRange) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 2.0), 2.0);
}

TEST(Quantile, UnsortedInput) {
  const std::vector<double> v = {50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 40.0);
}

TEST(Pearson, PerfectCorrelations) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y_pos = {2.0, 4.0, 6.0, 8.0};
  const std::vector<double> y_neg = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(x, y_pos), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, y_neg), -1.0, 1e-12);
}

TEST(Pearson, DegenerateInputs) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> constant = {5.0, 5.0, 5.0};
  const std::vector<double> short_x = {1.0};
  EXPECT_DOUBLE_EQ(pearson(x, constant), 0.0);
  EXPECT_DOUBLE_EQ(pearson(constant, x), 0.0);
  EXPECT_DOUBLE_EQ(pearson(short_x, short_x), 0.0);
  const std::vector<double> mismatched = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(pearson(x, mismatched), 0.0);
}

TEST(Pearson, InvariantToAffineTransform) {
  const std::vector<double> x = {1.0, 5.0, 2.0, 8.0, 3.0};
  const std::vector<double> y = {2.0, 9.0, 4.0, 20.0, 7.0};
  std::vector<double> y_scaled;
  for (const double v : y) y_scaled.push_back(3.0 * v + 10.0);
  EXPECT_NEAR(pearson(x, y), pearson(x, y_scaled), 1e-12);
}

TEST(LinearFit, ExactLine) {
  const std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 3.0, 5.0, 7.0};
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_EQ(fit.n, 4u);
}

TEST(LinearFit, NoisyLineHasHighButImperfectR2) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + ((i % 2) ? 1.0 : -1.0));
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.99);
  EXPECT_LT(fit.r_squared, 1.0);
}

TEST(LinearFit, DegenerateInputs) {
  const std::vector<double> constant = {3.0, 3.0, 3.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  const LinearFit fit = linear_fit(constant, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.r_squared, 0.0);
  EXPECT_EQ(linear_fit({}, {}).n, 0u);
}

TEST(DeltaPercent, Basics) {
  EXPECT_DOUBLE_EQ(delta_percent(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(delta_percent(75.0, 100.0), -25.0);
  EXPECT_DOUBLE_EQ(delta_percent(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(delta_percent(5.0, 0.0), 0.0);  // zero-baseline convention
}

TEST(Running, MatchesBatchStatistics) {
  const std::vector<double> values = {1.0, 4.0, -2.0, 8.0, 3.0, 3.0};
  Running acc;
  for (const double v : values) acc.add(v);
  EXPECT_EQ(acc.count(), values.size());
  EXPECT_NEAR(acc.mean(), mean(values), 1e-12);
  EXPECT_NEAR(acc.variance(), variance(values), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), -2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 8.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 17.0);
}

TEST(Running, EmptyIsZero) {
  Running acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Running, MergeEquivalentToSequential) {
  const std::vector<double> all = {1.0, 2.0, 5.0, -3.0, 7.0, 0.5, 2.5};
  Running left, right, whole;
  for (std::size_t i = 0; i < all.size(); ++i) {
    (i < 3 ? left : right).add(all[i]);
    whole.add(all[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Running, MergeWithEmpty) {
  Running a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean_before = a.mean();
  a.merge(b);  // empty right side
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  b.merge(a);  // empty left side
  EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(Summarize, PercentileOrder) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_LE(s.p10, s.p25);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
  EXPECT_LE(s.p75, s.p90);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p10, 10.9, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
}

TEST(Summarize, Empty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
}

TEST(Summarize, PercentilesSkipNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> v = {nan, 1.0, 2.0, 3.0, nan};
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 5u);  // n counts the raw sample, percentiles only finites
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.p10, 1.2);
  EXPECT_DOUBLE_EQ(s.p90, 2.8);
}

// The sort-based summarize that exact selection replaced, kept as the
// reference: the same finite filter, a full sort, the same interpolation.
Summary sorted_summary(std::span<const double> sample) {
  Summary s;
  s.n = sample.size();
  if (sample.empty()) return s;
  s.mean = mean(sample);
  std::vector<double> scratch;
  for (const double v : sample)
    if (std::isfinite(v)) scratch.push_back(v);
  if (scratch.empty()) return s;
  std::sort(scratch.begin(), scratch.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(scratch.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, scratch.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return scratch[lo] + (scratch[hi] - scratch[lo]) * frac;
  };
  s.p10 = at(0.10);
  s.p25 = at(0.25);
  s.median = at(0.50);
  s.p75 = at(0.75);
  s.p90 = at(0.90);
  return s;
}

void expect_bit_identical(const Summary& want, const Summary& got,
                          const std::string& what) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(want.n, got.n) << what;
  EXPECT_EQ(bits(want.mean), bits(got.mean)) << what;
  EXPECT_EQ(bits(want.p10), bits(got.p10)) << what;
  EXPECT_EQ(bits(want.p25), bits(got.p25)) << what;
  EXPECT_EQ(bits(want.median), bits(got.median)) << what;
  EXPECT_EQ(bits(want.p75), bits(got.p75)) << what;
  EXPECT_EQ(bits(want.p90), bits(got.p90)) << what;
}

// Exact selection equals the sort bit for bit on hostile samples: every
// size from 0 to 64, then log-uniform sizes up to 70,000, drawn from
// palettes heavy in duplicates, zeros of both signs, denormals, NaN and
// infinities (the last two filtered), next to ordinary values.
TEST(Summarize, SelectionMatchesSortBitForBit) {
  std::mt19937_64 gen{20200323};
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto draw = [&](int palette) -> double {
    std::uniform_int_distribution<int> kind(0, 9);
    std::uniform_int_distribution<int> small(-4, 4);
    std::normal_distribution<double> normal(0.0, 100.0);
    switch ((kind(gen) + palette) % 10) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return denorm * small(gen);
      case 3: return small(gen) * 0.5;  // duplicates
      case 4: return (gen() % 50 == 0) ? nan : small(gen);
      case 5: return (gen() % 50 == 0) ? ((gen() & 1) ? inf : -inf) : -0.0;
      default: return normal(gen);
    }
  };
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 64; ++n) sizes.push_back(n);
  std::uniform_real_distribution<double> log_size(std::log(65.0),
                                                  std::log(70'000.0));
  for (int i = 0; i < 120; ++i)
    sizes.push_back(static_cast<std::size_t>(std::exp(log_size(gen))));
  sizes.push_back(70'000);

  std::vector<double> sample;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int palette = static_cast<int>(i % 10);
    sample.clear();
    for (std::size_t k = 0; k < sizes[i]; ++k) sample.push_back(draw(palette));
    expect_bit_identical(sorted_summary(sample), summarize(sample),
                         "size " + std::to_string(sizes[i]) + " palette " +
                             std::to_string(palette));
  }
}

// The signed-zero case the bit-identity argument rests on, pinned: a
// sample of zeros of both signs summarizes to +0.0 whichever zero a
// selection leaves in place.
TEST(Summarize, ZerosOfEitherSignSummarizeToPositiveZero) {
  for (const auto& v : {std::vector<double>{-0.0, 0.0, -0.0},
                        std::vector<double>{-0.0}, std::vector<double>{0.0, -0.0}}) {
    const Summary s = summarize(v);
    for (const double p : {s.p10, s.p25, s.median, s.p75, s.p90})
      EXPECT_EQ(std::bit_cast<std::uint64_t>(p), 0u);
  }
}

TEST(SampleBuffer, Lifecycle) {
  SampleBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  buffer.add(3.0);
  buffer.add(1.0);
  buffer.add(2.0);
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_DOUBLE_EQ(buffer.median(), 2.0);
  EXPECT_DOUBLE_EQ(buffer.mean(), 2.0);
  EXPECT_DOUBLE_EQ(buffer.quantile(1.0), 3.0);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_DOUBLE_EQ(buffer.median(), 0.0);
}

// Property sweep: median of any sample sits within [min, max] and the
// quantile function is monotone in q.
class QuantileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotoneTest, MonotoneAndBounded) {
  const int n = GetParam();
  std::vector<double> v;
  std::uint64_t state = 42 + n;
  for (int i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v.push_back(double(state >> 40));
  }
  double previous = quantile(v, 0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double value = quantile(v, q);
    EXPECT_GE(value, previous);
    previous = value;
  }
  const double med = median(v);
  EXPECT_GE(med, quantile(v, 0.0));
  EXPECT_LE(med, quantile(v, 1.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuantileMonotoneTest,
                         ::testing::Values(1, 2, 3, 10, 101, 1000));

}  // namespace
}  // namespace cellscope::stats
