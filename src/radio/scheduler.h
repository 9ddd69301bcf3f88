// LTE MAC scheduler model.
//
// Produces, per 4G cell and hour, exactly the KPIs Section 2.4 defines:
// UL/DL volume over QCI 1..8 bearers, average number of active DL users,
// radio load as TTI utilization, average user DL throughput, seconds with
// active data, and the conversational-voice (QCI 1) split with its packet
// loss rates. The input is the hour's aggregated offered load, accumulated
// by the simulator from per-user traffic demand; the scheduler applies the
// cell's capacity, derives utilization, and caps per-user throughput at the
// fair share — which is how the paper's "application-limited throughput"
// observation becomes measurable: when demand per user is below the fair
// share, throughput tracks the application, not the network.
#pragma once

#include <cstdint>

#include "radio/cell.h"

namespace cellscope::radio {

// Offered load accumulated for one (cell, hour).
struct CellHourLoad {
  // Data-bearer demand (QCI 2..8), MB for the hour.
  double offered_dl_mb = 0.0;
  double offered_ul_mb = 0.0;
  // Sum over users of seconds with data in the DL buffer this hour.
  double active_dl_user_seconds = 0.0;
  // Mean application-limited per-user DL rate while active, Mbit/s
  // (already reflects provider throttling); <= 0 means "unbounded".
  double app_limited_dl_mbps = 0.0;
  // Distinct users camped on the cell during the hour (active + idle).
  double connected_users = 0.0;
  // Conversational voice (QCI 1).
  double voice_dl_mb = 0.0;
  double voice_ul_mb = 0.0;
  double voice_user_seconds = 0.0;  // sum of in-call seconds
  // Fraction of this cell's voice minutes crossing the inter-MNO trunks.
  double offnet_voice_fraction = 0.0;
};

// Field-wise addition of one accumulator's (cell, hour) load into another.
// The simulator reduces per-chunk load buffers through this in chunk-index
// order, which makes the summation order — and therefore the float bits —
// a function of the chunk grid alone, never of the thread count.
// offnet_voice_fraction is a last-writer value, not a sum: the serial loop
// overwrites it per voice event, so a merge applies `from`'s value only
// when `from` actually carried voice.
inline void merge_load(CellHourLoad& into, const CellHourLoad& from) {
  into.offered_dl_mb += from.offered_dl_mb;
  into.offered_ul_mb += from.offered_ul_mb;
  into.active_dl_user_seconds += from.active_dl_user_seconds;
  into.app_limited_dl_mbps += from.app_limited_dl_mbps;
  into.connected_users += from.connected_users;
  into.voice_dl_mb += from.voice_dl_mb;
  into.voice_ul_mb += from.voice_ul_mb;
  into.voice_user_seconds += from.voice_user_seconds;
  if (from.voice_user_seconds > 0.0)
    into.offnet_voice_fraction = from.offnet_voice_fraction;
}

// The hour's KPI record for one 4G cell (pre-aggregation; the telemetry
// layer reduces these to per-day medians).
struct CellHourKpi {
  double dl_volume_mb = 0.0;   // served, all bearers QCI 1..8
  double ul_volume_mb = 0.0;
  double data_dl_mb = 0.0;     // data bearers only (QCI 2..8)
  double data_ul_mb = 0.0;
  double active_dl_users = 0.0;        // avg users with DL data per TTI proxy
  double tti_utilization = 0.0;        // radio load in [0, 1]
  double user_dl_throughput_mbps = 0.0;
  double active_data_seconds = 0.0;
  double connected_users = 0.0;
  // Voice KPIs (QCI 1).
  double voice_volume_mb = 0.0;
  double simultaneous_voice_users = 0.0;
  double voice_dl_loss_pct = 0.0;
  double voice_ul_loss_pct = 0.0;
};

struct SchedulerParams {
  // Fraction of nominal capacity usable for user-plane data.
  double capacity_efficiency = 0.85;
  // Control-plane TTI overhead per connected (active or idle) user:
  // paging, reference signals, RRC keep-alives. Keeps radio load from
  // tracking data volume one-to-one (Fig 8: load falls less than volume).
  double per_user_overhead = 0.00007;
  // Baseline radio-interface voice packet loss (percent) at zero load.
  double base_voice_loss_pct = 0.15;
  // How strongly cell load inflates radio-interface loss. Expressed per
  // unit of TTI utilization; large because scaled-down cells run at tiny
  // absolute utilization (documented in DESIGN.md).
  double load_loss_slope_pct = 25.0;
};

// Observability: cell-hours scheduled and cell-hours whose offered DL
// demand exceeded capacity and was clipped. Integer totals, so counts kept
// per chunk of cells sum to the same value in any order; the simulator
// publishes them into the metrics registry.
struct SchedulerCounters {
  std::uint64_t hours_scheduled = 0;
  std::uint64_t hours_dl_saturated = 0;

  SchedulerCounters& operator+=(const SchedulerCounters& other) {
    hours_scheduled += other.hours_scheduled;
    hours_dl_saturated += other.hours_dl_saturated;
    return *this;
  }
};

// Stateless beyond its parameters, so one scheduler serves every thread.
class LteScheduler {
 public:
  explicit LteScheduler(const SchedulerParams& params = {});

  // `interconnect_dl_loss_pct` is the current loss on the inter-MNO voice
  // trunks (applies to the off-net share of DL voice only; Section 4.2).
  // A non-null `counters` counts the call; each thread passes its own.
  [[nodiscard]] CellHourKpi schedule_hour(
      const Cell& cell, const CellHourLoad& load,
      double interconnect_dl_loss_pct,
      SchedulerCounters* counters = nullptr) const;

  [[nodiscard]] const SchedulerParams& params() const { return params_; }

 private:
  SchedulerParams params_;
};

}  // namespace cellscope::radio
