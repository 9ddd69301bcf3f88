// Deterministic degraded-feed fault injection.
//
// Real measurement feeds are not perfect: passive probes go down for hours,
// cells disappear from the warehouse export for days, and record streams
// arrive with corrupted or duplicated rows. FaultConfig describes those
// degradations as rates; FaultPlan materializes one concrete, reproducible
// realization of them for a scenario window. Every fault family draws from
// its own named fork of the scenario seed, so toggling (say) the KPI outage
// knobs never perturbs the signaling outage windows — experiments stay
// comparable as fault dimensions are swept independently.
//
// Faults degrade *measurement*, never behaviour: subscribers keep moving
// and generating traffic; the plan only decides which telemetry records
// survive the collection pipeline. A scenario with an all-zero FaultConfig
// produces bit-identical datasets to one without any fault machinery.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/simtime.h"

namespace cellscope::sim {

struct FaultConfig {
  // Signaling-probe outage windows (hour granularity). While the probe is
  // down, control-plane events are lost AND the user-day tower observations
  // derived from them lose the affected hours (they come from the same
  // taps, Fig 1 of the paper).
  double signaling_outages_per_week = 0.0;  // expected windows per week
  double signaling_outage_mean_hours = 12.0;

  // KPI collection outages (hour granularity): hourly KPI samples in a down
  // window never reach the daily aggregation.
  double kpi_outages_per_week = 0.0;
  double kpi_outage_mean_hours = 8.0;

  // Per-cell whole-day outages: a cell vanishes from the KPI export for a
  // run of days (decommissioning, transport faults, export misconfig).
  double cell_outage_daily_prob = 0.0;  // per cell, per day
  double cell_outage_mean_days = 2.0;

  // Record-level faults on the warehouse exports. Loss models corrupted
  // rows that quarantine fails to repair; duplication models at-least-once
  // delivery from the export pipeline.
  double observation_loss_rate = 0.0;      // user-day mobility records
  double kpi_record_loss_rate = 0.0;       // cell-day KPI rows
  double kpi_record_duplication_rate = 0.0;

  // True when any knob is non-zero (an all-zero config disables the plan).
  [[nodiscard]] bool any() const;
  // Throws std::invalid_argument on negative rates / probabilities > 1.
  void validate() const;
};

// Convenience preset: `rate` record loss on both feeds plus mild outage
// activity — the shape bench_ext_probe_outage studies.
[[nodiscard]] FaultConfig uniform_loss_faults(double rate);

// Parses the CELLSCOPE_BENCH_FAULTS spec: a comma-separated key=value list.
//   loss=R       observation + KPI record loss rate
//   obs_loss=R   observation record loss rate only
//   kpi_loss=R   KPI record loss rate only
//   dup=R        KPI record duplication rate
//   sig_outages=N / sig_hours=H    signaling windows per week / mean hours
//   kpi_outages=N / kpi_hours=H    KPI windows per week / mean hours
//   cell_daily=P / cell_days=D     per-cell outage entry prob / mean days
// Throws std::invalid_argument on unknown keys or malformed numbers.
[[nodiscard]] FaultConfig parse_fault_spec(std::string_view spec);

// One concrete realization of a FaultConfig over a scenario window.
// Immutable after build(); all queries are const and thread-safe, so worker
// shards can consult the plan concurrently.
class FaultPlan {
 public:
  // [start, end) in sim hours.
  struct Window {
    SimHour start = 0;
    SimHour end = 0;
  };

  FaultPlan() = default;  // empty plan: enabled() == false, nothing faulted

  [[nodiscard]] static FaultPlan build(const FaultConfig& config,
                                       std::uint64_t seed, SimDay first_day,
                                       SimDay last_day,
                                       std::size_t cell_count);

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Feed outage queries (false outside the plan's window).
  [[nodiscard]] bool signaling_down(SimDay day, int hour) const;
  [[nodiscard]] bool kpi_feed_down(SimDay day, int hour) const;
  [[nodiscard]] int signaling_down_hours(SimDay day) const;
  // Bit h set: signaling_down(day, h).
  [[nodiscard]] std::uint32_t signaling_down_mask(SimDay day) const;
  [[nodiscard]] int kpi_down_hours(SimDay day) const;
  [[nodiscard]] bool cell_out(CellId cell, SimDay day) const;

  // Record-level fault decisions: pure functions of (plan seed, key), safe
  // to call from any thread, stable across replays.
  [[nodiscard]] bool drop_observation(std::uint32_t user, SimDay day) const;
  [[nodiscard]] bool drop_kpi_record(std::uint32_t cell, SimDay day) const;
  [[nodiscard]] bool duplicate_kpi_record(std::uint32_t cell,
                                          SimDay day) const;

  // Introspection (tests, bench banners).
  [[nodiscard]] const std::vector<Window>& signaling_windows() const {
    return signaling_windows_;
  }
  [[nodiscard]] const std::vector<Window>& kpi_windows() const {
    return kpi_windows_;
  }
  [[nodiscard]] std::size_t cell_outage_cell_days() const {
    return cell_outage_cell_days_;
  }

 private:
  [[nodiscard]] bool in_window(SimDay day) const {
    return enabled_ && day >= first_day_ && day <= last_day_;
  }

  bool enabled_ = false;
  SimDay first_day_ = 0;
  SimDay last_day_ = -1;
  std::size_t n_days_ = 0;
  std::size_t n_cells_ = 0;

  std::vector<Window> signaling_windows_;
  std::vector<Window> kpi_windows_;
  // Per-hour down bitmaps over [first_day, last_day], empty when the feed
  // has no outages.
  std::vector<std::uint8_t> signaling_down_;
  std::vector<std::uint8_t> kpi_down_;
  // [cell * n_days + day_offset], empty when cell outages are disabled.
  std::vector<std::uint8_t> cell_out_;
  std::size_t cell_outage_cell_days_ = 0;

  double observation_loss_rate_ = 0.0;
  double kpi_record_loss_rate_ = 0.0;
  double kpi_record_duplication_rate_ = 0.0;
  // Base streams for the record-level decisions (forked per record key).
  Rng observation_loss_rng_{0};
  Rng kpi_loss_rng_{0};
  Rng kpi_dup_rng_{0};
};

}  // namespace cellscope::sim
