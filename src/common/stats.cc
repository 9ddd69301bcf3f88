#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace cellscope::stats {

double mean(std::span<const double> sample) {
  if (sample.empty()) return 0.0;
  double total = 0.0;
  for (const double v : sample) total += v;
  return total / static_cast<double>(sample.size());
}

double variance(std::span<const double> sample) {
  if (sample.size() < 2) return 0.0;
  const double m = mean(sample);
  double accum = 0.0;
  for (const double v : sample) accum += (v - m) * (v - m);
  return accum / static_cast<double>(sample.size() - 1);
}

double stddev(std::span<const double> sample) {
  return std::sqrt(variance(sample));
}

namespace {

// Copies only the finite values: NaN breaks strict weak ordering, making
// nth_element/sort UB, so non-finite entries never enter a scratch buffer.
std::vector<double> finite_scratch(std::span<const double> sample) {
  std::vector<double> scratch;
  scratch.reserve(sample.size());
  for (const double v : sample)
    if (std::isfinite(v)) scratch.push_back(v);
  return scratch;
}

// Quantile on a scratch copy we are allowed to reorder.
double quantile_inplace(std::vector<double>& scratch, double q) {
  if (scratch.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(scratch.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, scratch.size() - 1);
  std::nth_element(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(lo),
                   scratch.end());
  const double lo_value = scratch[lo];
  if (hi == lo) return lo_value;
  // nth_element leaves [lo+1, end) all >= lo_value; the hi-th order statistic
  // is the minimum of that suffix.
  const double hi_value =
      *std::min_element(scratch.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                        scratch.end());
  const double frac = pos - static_cast<double>(lo);
  return lo_value + (hi_value - lo_value) * frac;
}
}  // namespace

double quantile(std::span<const double> sample, double q) {
  std::vector<double> scratch = finite_scratch(sample);
  return quantile_inplace(scratch, q);
}

double median(std::span<const double> sample) { return quantile(sample, 0.5); }

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  LinearFit fit;
  if (x.size() != y.size() || x.size() < 2) return fit;
  fit.n = x.size();
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy <= 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

double delta_percent(double value, double baseline) {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (value - baseline) / baseline;
}

void Running::add(double value) {
  ++count_;
  sum_ += value;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  if (count_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
}

void Running::merge(const Running& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.count_) / static_cast<double>(total);
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = total;
}

double Running::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Running::stddev() const { return std::sqrt(variance()); }

Summary summarize(std::span<const double> sample) {
  Summary s;
  s.n = sample.size();
  if (sample.empty()) return s;
  s.mean = mean(sample);
  std::vector<double> scratch = finite_scratch(sample);
  if (scratch.empty()) return s;
  // Exact selection instead of a full sort. The order statistics are
  // requested in ascending position, so each selection partitions only the
  // suffix above the previous one: afterwards scratch[0, selected) holds
  // the `selected` smallest values, every position asked for so far in its
  // sorted place. Equal values are bit-identical except for the sign of a
  // zero, and the interpolation below returns +0.0 whenever its low value
  // is a zero of either sign, so the Summary matches a sort's bit for bit.
  const std::size_t last = scratch.size() - 1;
  std::size_t selected = 0;
  const auto order_statistic = [&](std::size_t k) {
    const auto first = scratch.begin() + static_cast<std::ptrdiff_t>(selected);
    const auto nth = scratch.begin() + static_cast<std::ptrdiff_t>(k);
    if (k == selected) {
      std::iter_swap(nth, std::min_element(first, scratch.end()));
      selected = k + 1;
    } else if (k > selected) {
      std::nth_element(first, nth, scratch.end());
      selected = k + 1;
    }
    return *nth;
  };
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(last);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, last);
    const double frac = pos - static_cast<double>(lo);
    const double lo_value = order_statistic(lo);
    const double hi_value = order_statistic(hi);
    return lo_value + (hi_value - lo_value) * frac;
  };
  s.p10 = at(0.10);
  s.p25 = at(0.25);
  s.median = at(0.50);
  s.p75 = at(0.75);
  s.p90 = at(0.90);
  return s;
}

double SampleBuffer::median() const { return stats::median(values_); }
double SampleBuffer::mean() const { return stats::mean(values_); }
double SampleBuffer::quantile(double q) const { return stats::quantile(values_, q); }
Summary SampleBuffer::summarize() const { return stats::summarize(values_); }

}  // namespace cellscope::stats
