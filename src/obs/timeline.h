// Run-health timeline: longitudinal resource accounting for long runs.
//
// The obs layer's manifest (PR 2) snapshots peak RSS once, at exit — memory
// growth over a 58-day run is invisible in it. The Timeline fixes that: a
// deterministic sampler that, at every simulated-day boundary (plus a
// low-rate wall-clock fallback for long phases without day boundaries —
// store scans, imports), appends one TimelineSample recording
//
//   * current and peak RSS,
//   * the per-subsystem tracked-allocation byte counters (sim / store /
//     analysis, below),
//   * cumulative rows/sec and user-days/sec gauges (read back from the
//     process MetricsRegistry — the timeline owns no counters of its own),
//   * the latest checkpoint-publish and store-flush latencies,
//   * the number of worker-lane spans open at sample time.
//
// Samples are append-only and export as `<slug>.timeline.csv` + `.json`
// next to the run manifest. Sampling reads clocks, /proc and counters —
// never RNG streams or model state — so a sampled run's Dataset is
// bit-identical to an unsampled one (enforced by test_determinism).
//
// The per-day RSS series is what the perf-regression gate regresses over:
// rss_slope_kb_per_day() fits a least-squares line through the day samples,
// catching an unbounded per-day allocation that a single peak number hides.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <span>
#include <vector>

namespace cellscope::obs {

// Tracked-allocation subsystems. Each reports coarse byte counts at its
// serial-phase accounting points (obs::track_bytes); the timeline samples
// the running totals. Coarse on purpose: the goal is "which layer grew this
// day", not a heap profiler.
enum class Subsystem : int { kSim = 0, kStore = 1, kAnalysis = 2 };
inline constexpr int kSubsystemCount = 3;

[[nodiscard]] const char* subsystem_name(Subsystem s);

// Adds to / reads a subsystem's tracked byte counter. Relaxed atomics, so
// any thread may call, but the instrumented call sites are serial-phase and
// gated on obs::enabled() like every other obs hook.
void track_bytes(Subsystem s, std::uint64_t bytes);
[[nodiscard]] std::uint64_t tracked_bytes(Subsystem s);
void reset_tracked_bytes();

struct TimelineSample {
  std::int64_t day = -1;        // simulated day; -1 = wall-clock fallback
  double elapsed_seconds = 0.0; // since the timeline epoch (enable/reset)
  long rss_kb = 0;              // current resident set
  long peak_rss_kb = 0;
  std::uint64_t sim_bytes = 0;       // tracked_bytes(kSim) at sample time
  std::uint64_t store_bytes = 0;     // tracked_bytes(kStore)
  std::uint64_t analysis_bytes = 0;  // tracked_bytes(kAnalysis)
  double rows_per_sec = 0.0;    // cumulative sim.kpi_rows / elapsed
  double users_per_sec = 0.0;   // cumulative sim.user_days / elapsed
  double checkpoint_ms = 0.0;   // latest checkpoint publish latency
  double flush_ms = 0.0;        // latest store flush latency
  std::uint32_t open_worker_lanes = 0;  // live worker-lane spans
};

// Least-squares slope of rss_kb over day for the day-boundary samples from
// `first_day` on (fallback samples are excluded); 0 with fewer than two
// such samples. A fit from a run's first KPI day on leaves the warm-up's
// growth and the home detector's release out of the slope.
// Free function so tests can fit synthetic series directly.
[[nodiscard]] double rss_slope_kb_per_day(
    std::span<const TimelineSample> samples, std::int64_t first_day = 0);

// Steady-state RSS estimate: median rss_kb over the second half of the
// day-boundary samples (the run's plateau, past setup growth); 0 when no
// day samples exist.
[[nodiscard]] long steady_rss_kb(std::span<const TimelineSample> samples);

class Timeline {
 public:
  // Appends one day-boundary sample. Serial-phase (the simulator's day
  // tail); a no-op when the obs runtime is disabled.
  void sample_day(std::int64_t day);

  // Low-rate wall-clock fallback for long phases with no day boundary to
  // hook (store scans, imports): appends a day = -1 sample if at least
  // `min_interval_seconds` passed since the last sample of any kind.
  // No-op when disabled.
  void maybe_sample(double min_interval_seconds = 5.0);

  // Latest-latency feeds, recorded by the instrumented subsystems right
  // next to their registry histograms.
  void record_checkpoint_ms(double ms);
  void record_flush_ms(double ms);

  [[nodiscard]] std::vector<TimelineSample> samples() const;
  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::uint64_t sample_count() const;

  // Summary accessors over the current samples.
  [[nodiscard]] double slope_kb_per_day() const;
  [[nodiscard]] long steady_rss() const;

  // day,elapsed_seconds,rss_kb,peak_rss_kb,sim_bytes,store_bytes,
  // analysis_bytes,rows_per_sec,users_per_sec,checkpoint_ms,flush_ms,
  // open_worker_lanes — one row per sample, append order.
  void write_csv(std::ostream& os) const;
  // {"schema": "cellscope-timeline/1", "rss_slope_kb_per_day",
  // "rss_slope_kpi_kb_per_day" (the fit from `kpi_first_day` on),
  // "steady_rss_kb", "samples": [...]}.
  void write_json(std::ostream& os, std::int64_t kpi_first_day) const;

  // Drops every sample and restarts the epoch. Serial-phase only.
  void reset();

 private:
  void append_sample(std::int64_t day);

  mutable std::mutex mutex_;
  std::vector<TimelineSample> samples_;
  double last_checkpoint_ms_ = 0.0;
  double last_flush_ms_ = 0.0;
  std::uint64_t epoch_ns_ = 0;  // 0 = epoch not started yet
};

}  // namespace cellscope::obs
