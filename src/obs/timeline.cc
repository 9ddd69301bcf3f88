#include "obs/timeline.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <ostream>

#include "obs/runtime.h"

namespace cellscope::obs {

namespace {

std::array<std::atomic<std::uint64_t>, kSubsystemCount> g_tracked_bytes{};

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// JSON has no NaN/Inf; degenerate values serialize as 0.
double finite(double value) { return std::isfinite(value) ? value : 0.0; }

}  // namespace

const char* subsystem_name(Subsystem s) {
  switch (s) {
    case Subsystem::kSim: return "sim";
    case Subsystem::kStore: return "store";
    case Subsystem::kAnalysis: return "analysis";
  }
  return "unknown";
}

void track_bytes(Subsystem s, std::uint64_t bytes) {
  g_tracked_bytes[static_cast<std::size_t>(s)].fetch_add(
      bytes, std::memory_order_relaxed);
}

std::uint64_t tracked_bytes(Subsystem s) {
  return g_tracked_bytes[static_cast<std::size_t>(s)].load(
      std::memory_order_relaxed);
}

void reset_tracked_bytes() {
  for (auto& counter : g_tracked_bytes)
    counter.store(0, std::memory_order_relaxed);
}

double rss_slope_kb_per_day(std::span<const TimelineSample> samples,
                            std::int64_t first_day) {
  // Least squares of rss_kb on day over day-boundary samples only: the
  // fallback samples carry day = -1 and would skew the fit.
  double n = 0.0, sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_xy = 0.0;
  for (const auto& s : samples) {
    if (s.day < 0 || s.day < first_day) continue;
    const auto x = static_cast<double>(s.day);
    const auto y = static_cast<double>(s.rss_kb);
    n += 1.0;
    sum_x += x;
    sum_y += y;
    sum_xx += x * x;
    sum_xy += x * y;
  }
  if (n < 2.0) return 0.0;
  const double denom = n * sum_xx - sum_x * sum_x;
  if (denom == 0.0) return 0.0;
  return (n * sum_xy - sum_x * sum_y) / denom;
}

long steady_rss_kb(std::span<const TimelineSample> samples) {
  std::vector<long> rss;
  for (const auto& s : samples)
    if (s.day >= 0) rss.push_back(s.rss_kb);
  if (rss.empty()) return 0;
  // Second half of the run: past the setup/warm-up growth.
  std::vector<long> tail(rss.begin() + static_cast<std::ptrdiff_t>(rss.size() / 2),
                         rss.end());
  std::sort(tail.begin(), tail.end());
  return tail[tail.size() / 2];
}

void Timeline::append_sample(std::int64_t day) {
  // All reads are observational: clocks, /proc, registry counters and the
  // tracked-byte atomics. Nothing here can perturb a simulation.
  const std::uint64_t now = monotonic_ns();
  if (epoch_ns_ == 0) epoch_ns_ = now;
  TimelineSample s;
  s.day = day;
  s.elapsed_seconds = static_cast<double>(now - epoch_ns_) / 1e9;
  s.rss_kb = current_rss_kb();
  s.peak_rss_kb = peak_rss_kb();
  s.sim_bytes = tracked_bytes(Subsystem::kSim);
  s.store_bytes = tracked_bytes(Subsystem::kStore);
  s.analysis_bytes = tracked_bytes(Subsystem::kAnalysis);
  const auto& registry = metrics();
  if (s.elapsed_seconds > 0.0) {
    s.rows_per_sec = static_cast<double>(registry.counter_value(
                         "sim.kpi_rows")) /
                     s.elapsed_seconds;
    s.users_per_sec = static_cast<double>(registry.counter_value(
                          "sim.user_days")) /
                      s.elapsed_seconds;
  }
  s.checkpoint_ms = last_checkpoint_ms_;
  s.flush_ms = last_flush_ms_;
  s.open_worker_lanes = tracer().open_worker_spans();
  samples_.push_back(s);
}

void Timeline::sample_day(std::int64_t day) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  append_sample(day);
}

void Timeline::maybe_sample(double min_interval_seconds) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t now = monotonic_ns();
  if (!samples_.empty() && epoch_ns_ != 0) {
    const double since_last =
        static_cast<double>(now - epoch_ns_) / 1e9 -
        samples_.back().elapsed_seconds;
    if (since_last < min_interval_seconds) return;
  }
  append_sample(-1);
}

void Timeline::record_checkpoint_ms(double ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  last_checkpoint_ms_ = ms;
}

void Timeline::record_flush_ms(double ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  last_flush_ms_ = ms;
}

std::vector<TimelineSample> Timeline::samples() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

bool Timeline::empty() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return samples_.empty();
}

std::uint64_t Timeline::sample_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

double Timeline::slope_kb_per_day() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rss_slope_kb_per_day(samples_);
}

long Timeline::steady_rss() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return steady_rss_kb(samples_);
}

void Timeline::write_csv(std::ostream& os) const {
  const auto snapshot = samples();
  os << "day,elapsed_seconds,rss_kb,peak_rss_kb,sim_bytes,store_bytes,"
        "analysis_bytes,rows_per_sec,users_per_sec,checkpoint_ms,flush_ms,"
        "open_worker_lanes\n";
  for (const auto& s : snapshot) {
    os << s.day << "," << s.elapsed_seconds << "," << s.rss_kb << ","
       << s.peak_rss_kb << "," << s.sim_bytes << "," << s.store_bytes << ","
       << s.analysis_bytes << "," << finite(s.rows_per_sec) << ","
       << finite(s.users_per_sec) << "," << finite(s.checkpoint_ms) << ","
       << finite(s.flush_ms) << "," << s.open_worker_lanes << "\n";
  }
}

void Timeline::write_json(std::ostream& os,
                          std::int64_t kpi_first_day) const {
  const auto snapshot = samples();
  os << "{\n  \"schema\": \"cellscope-timeline/1\",\n";
  os << "  \"rss_slope_kb_per_day\": "
     << finite(rss_slope_kb_per_day(snapshot)) << ",\n";
  os << "  \"rss_slope_kpi_kb_per_day\": "
     << finite(rss_slope_kb_per_day(snapshot, kpi_first_day)) << ",\n";
  os << "  \"steady_rss_kb\": " << steady_rss_kb(snapshot) << ",\n";
  os << "  \"samples\": [";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const auto& s = snapshot[i];
    os << (i ? "," : "") << "\n    {\"day\": " << s.day
       << ", \"elapsed_seconds\": " << finite(s.elapsed_seconds)
       << ", \"rss_kb\": " << s.rss_kb
       << ", \"peak_rss_kb\": " << s.peak_rss_kb
       << ", \"sim_bytes\": " << s.sim_bytes
       << ", \"store_bytes\": " << s.store_bytes
       << ", \"analysis_bytes\": " << s.analysis_bytes
       << ", \"rows_per_sec\": " << finite(s.rows_per_sec)
       << ", \"users_per_sec\": " << finite(s.users_per_sec)
       << ", \"checkpoint_ms\": " << finite(s.checkpoint_ms)
       << ", \"flush_ms\": " << finite(s.flush_ms)
       << ", \"open_worker_lanes\": " << s.open_worker_lanes << "}";
  }
  os << (snapshot.empty() ? "" : "\n  ") << "]\n}\n";
}

void Timeline::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  samples_.clear();
  last_checkpoint_ms_ = 0.0;
  last_flush_ms_ = 0.0;
  epoch_ns_ = 0;
}

}  // namespace cellscope::obs
