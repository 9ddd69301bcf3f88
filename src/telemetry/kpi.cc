#include "telemetry/kpi.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <iterator>
#include <span>
#include <stdexcept>

#include "common/stats.h"

namespace cellscope::telemetry {

namespace {
constexpr std::array<std::string_view, kKpiMetricCount> kMetricNames = {
    "DL data volume",        "UL data volume",
    "active DL users",       "TTI utilization",
    "user DL throughput",    "active data seconds",
    "connected users",       "voice volume",
    "simultaneous voice users", "voice DL loss",
    "voice UL loss"};
}  // namespace

std::string_view kpi_metric_name(KpiMetric metric) {
  return kMetricNames[static_cast<int>(metric)];
}

void CellDaySamples::record(const radio::CellHourKpi& kpi) {
  if (hours >= kHoursPerDay)
    throw std::logic_error("CellDaySamples: more than 24 hours recorded");
  const std::array<double, kKpiMetricCount> hour = {
      kpi.dl_volume_mb,        kpi.ul_volume_mb,
      kpi.active_dl_users,     kpi.tti_utilization,
      kpi.user_dl_throughput_mbps, kpi.active_data_seconds,
      kpi.connected_users,     kpi.voice_volume_mb,
      kpi.simultaneous_voice_users, kpi.voice_dl_loss_pct,
      kpi.voice_ul_loss_pct};
  for (std::size_t m = 0; m < hour.size(); ++m)
    values[m * kHoursPerDay + static_cast<std::size_t>(hours)] = hour[m];
  ++hours;
}

CellDayRecord CellDaySamples::reduce(CellId cell, SimDay day,
                                     DailyReduction reduction) const {
  assert(hours > 0);
  CellDayRecord row;
  row.cell = cell;
  row.day = day;
  for (std::size_t m = 0; m < kKpiFields.size(); ++m) {
    const std::span<const double> metric{&values[m * kHoursPerDay],
                                         static_cast<std::size_t>(hours)};
    row.*kKpiFields[m] = reduction == DailyReduction::kMedian
                             ? stats::median(metric)
                             : stats::mean(metric);
  }
  return row;
}

void KpiStore::add_day(std::vector<CellDayRecord> rows) {
  if (rows.empty()) return;
  std::vector<SimDay> days(rows.size());
  std::transform(rows.begin(), rows.end(), days.begin(),
                 [](const CellDayRecord& r) { return r.day; });
  std::sort(days.begin(), days.end());
  if (!empty() && days.front() <= last_day()) {
    // Gaps are allowed (real exports can miss days); going backwards or
    // splitting one day across add_day calls is a bug.
    throw std::logic_error("KpiStore: days must be added in increasing order");
  }

  // Per-day counts. A run's batch is one day; an import's may hold several,
  // all of them after every day already counted.
  std::uint64_t total = row_count();
  for (std::size_t i = 0; i < days.size(); ++i) {
    ++total;
    if (i + 1 == days.size() || days[i + 1] != days[i])
      through_.emplace_back(days[i], total);
  }

  if (records_.empty()) {
    records_ = std::move(rows);
  } else {
    records_.insert(records_.end(), rows.begin(), rows.end());
  }
}

const std::vector<CellDayRecord>& KpiStore::records() const {
  if (released())
    throw std::logic_error(
        "KpiStore: rows were released to a sink; read them from the store");
  return records_;
}

std::uint64_t KpiStore::rows_through(SimDay day) const {
  const auto after = std::upper_bound(
      through_.begin(), through_.end(), day,
      [](SimDay d, const std::pair<SimDay, std::uint64_t>& entry) {
        return d < entry.first;
      });
  return after == through_.begin() ? 0 : std::prev(after)->second;
}

}  // namespace cellscope::telemetry
