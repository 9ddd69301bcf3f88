// Timing summaries and the result report of the cellscope benchmark.
//
// Every timing is reported as a median plus one tail percentile, printed
// with that percentile and the sample count. A tail is reported only when at
// least kMinBeyond samples lie beyond it; otherwise the timing has no tail.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

inline constexpr std::size_t kMinBeyond = 10;

struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

// Median of an unsorted copy (mean of the two middle values for even n).
inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile `pct` of `v`, if at least kMinBeyond samples lie
// strictly above its rank.
inline std::optional<Tail> tail(std::vector<double> v, double pct) {
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinBeyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  return Tail{pct, v[rank - 1], n - rank};
}

// Least-squares slope of y over x.
inline double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return std::numeric_limits<double>::quiet_NaN();
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) mx += x[i], my += y[i];
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : std::numeric_limits<double>::quiet_NaN();
}

// Latency histogram for operations too many to keep one by one (cache
// hits): 4 ns linear buckets up to 64 us, exact values above. Quantiles
// interpolate linearly inside a bucket.
class LatencyHistogram {
 public:
  static constexpr double kBucketNs = 4.0;
  static constexpr std::size_t kBuckets = 16384;

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void add_ns(double ns) {
    const auto b = static_cast<std::size_t>(ns / kBucketNs);
    if (b < kBuckets) ++counts_[b];
    else overflow_.push_back(ns);
    ++total_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    overflow_.insert(overflow_.end(), other.overflow_.begin(),
                     other.overflow_.end());
    total_ += other.total_;
  }
  [[nodiscard]] std::uint64_t count() const { return total_; }

  // Value at fractional rank q in [0, 1], in ns.
  [[nodiscard]] double quantile_ns(double q) const {
    if (total_ == 0) return std::numeric_limits<double>::quiet_NaN();
    const double target = q * static_cast<double>(total_);
    double seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (seen + c >= target)
        return (static_cast<double>(i) + (target - seen) / c) * kBucketNs;
      seen += c;
    }
    std::vector<double> rest = overflow_;
    std::sort(rest.begin(), rest.end());
    const auto k = static_cast<std::size_t>(std::max(0.0, target - seen));
    return rest[std::min(k, rest.size() - 1)];
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::vector<double> overflow_;
  std::uint64_t total_ = 0;
};

// Named metrics with units, printed for people as they are added and as one
// JSON object at the end.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
    std::cout << "  " << std::left << std::setw(34) << name << " "
              << std::setprecision(6) << value << " " << unit << "\n";
  }

  // Median and tail of `samples`; the tail metric is added only when the
  // samples support one.
  void timing(const std::string& label, const std::vector<double>& samples,
              double tail_pct, const std::string& unit,
              const std::string& median_name = "",
              const std::string& tail_name = "") {
    const double med = median(samples);
    const auto t = tail(samples, tail_pct);
    std::cout << "  " << label << ": median " << std::setprecision(6) << med
              << " " << unit;
    if (t)
      std::cout << ", p" << t->percentile << " " << t->value << " " << unit
                << " (n=" << samples.size() << ", " << t->beyond
                << " beyond)\n";
    else
      std::cout << ", no tail (n=" << samples.size() << ")\n";
    if (!median_name.empty()) metric(median_name, med, unit);
    if (!tail_name.empty() && t) metric(tail_name, t->value, unit);
  }

  // The metrics object, restricted to `names` in that order. Missing or
  // non-finite values are reported in `problems`.
  [[nodiscard]] std::string json(const std::vector<std::string>& names,
                                 std::vector<std::string>& problems) const {
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{";
    bool first = true;
    for (const auto& name : names) {
      const auto it = values_.find(name);
      if (it == values_.end()) {
        problems.push_back("metric " + name + " was not measured");
        continue;
      }
      if (!std::isfinite(it->second.value)) {
        problems.push_back("metric " + name + " is not finite");
        continue;
      }
      os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << it->second.value << ", \"unit\": \"" << it->second.unit << "\"}";
      first = false;
    }
    os << "}";
    return os.str();
  }

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> values_;
};

}  // namespace perfbench
