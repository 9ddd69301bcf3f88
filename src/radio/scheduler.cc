#include "radio/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cellscope::radio {

namespace {
constexpr double kSecondsPerHour = 3600.0;
}  // namespace

LteScheduler::LteScheduler(const SchedulerParams& params) : params_(params) {}

CellHourKpi LteScheduler::schedule_hour(const Cell& cell,
                                        const CellHourLoad& load,
                                        double interconnect_dl_loss_pct,
                                        SchedulerCounters* counters) const {
  CellHourKpi kpi;

  // Mbit/s of usable capacity -> MB deliverable in one hour.
  const double dl_cap_mb = cell.dl_capacity_mbps * params_.capacity_efficiency *
                           kSecondsPerHour / 8.0;
  const double ul_cap_mb = cell.ul_capacity_mbps * params_.capacity_efficiency *
                           kSecondsPerHour / 8.0;

  // Voice is QCI 1: strictly prioritized, always served (GBR bearer).
  kpi.voice_volume_mb = load.voice_dl_mb + load.voice_ul_mb;
  kpi.simultaneous_voice_users = load.voice_user_seconds / kSecondsPerHour;

  // Data bearers get the remaining capacity.
  const double dl_for_data = std::max(0.0, dl_cap_mb - load.voice_dl_mb);
  const double ul_for_data = std::max(0.0, ul_cap_mb - load.voice_ul_mb);
  if (counters != nullptr) {
    ++counters->hours_scheduled;
    if (load.offered_dl_mb > dl_for_data) ++counters->hours_dl_saturated;
  }
  kpi.data_dl_mb = std::min(load.offered_dl_mb, dl_for_data);
  kpi.data_ul_mb = std::min(load.offered_ul_mb, ul_for_data);
  kpi.dl_volume_mb = kpi.data_dl_mb + load.voice_dl_mb;
  kpi.ul_volume_mb = kpi.data_ul_mb + load.voice_ul_mb;

  // Radio load as TTI utilization: fraction of scheduler resources in use
  // (DL dominated; voice contributes via its GBR share).
  kpi.tti_utilization = std::clamp(
      (kpi.dl_volume_mb + 0.5 * kpi.ul_volume_mb) / std::max(dl_cap_mb, 1e-9) +
          params_.per_user_overhead * load.connected_users,
      0.0, 1.0);

  kpi.active_dl_users = load.active_dl_user_seconds / kSecondsPerHour;
  kpi.active_data_seconds = load.active_dl_user_seconds;
  kpi.connected_users = load.connected_users;

  // Average user DL throughput: the application rate capped by the fair
  // share of cell capacity among simultaneously active users.
  if (load.active_dl_user_seconds > 0.0) {
    const double fair_share_mbps =
        cell.dl_capacity_mbps * params_.capacity_efficiency /
        std::max(1.0, kpi.active_dl_users);
    const double app_rate =
        load.app_limited_dl_mbps > 0.0
            ? load.app_limited_dl_mbps
            : std::numeric_limits<double>::max();
    kpi.user_dl_throughput_mbps = std::min(app_rate, fair_share_mbps);
  }

  // Voice packet loss. Uplink loss is radio-limited and scales with cell
  // load; downlink adds the inter-MNO interconnect loss on the off-net
  // share of calls (Section 4.2's congestion episode).
  if (load.voice_user_seconds > 0.0) {
    const double radio_loss =
        params_.base_voice_loss_pct +
        params_.load_loss_slope_pct * kpi.tti_utilization;
    kpi.voice_ul_loss_pct = radio_loss;
    kpi.voice_dl_loss_pct =
        radio_loss +
        load.offnet_voice_fraction * interconnect_dl_loss_pct;
  }
  return kpi;
}

}  // namespace cellscope::radio
