#include "telemetry/kpi.h"

#include <algorithm>
#include <array>
#include <cassert>
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

KpiAggregator::KpiAggregator(std::size_t cell_count, DailyReduction reduction)
    : reduction_(reduction), cells_(cell_count) {}

void KpiAggregator::begin_day(SimDay day) {
  if (day_open_)
    throw std::logic_error("KpiAggregator: previous day not finished");
  day_ = day;
  day_open_ = true;
  // A cell's samples are read only up to its recorded hours, so resetting
  // the counts is enough; stale samples beyond them are never seen.
  for (auto& cell : cells_) cell.hours = 0;
}

void KpiAggregator::record_hour(CellId cell, const radio::CellHourKpi& kpi) {
  assert(day_open_);
  assert(cell.value() < cells_.size());
  cells_[cell.value()].record(kpi);
}

std::vector<CellDayRecord> KpiAggregator::finish_day() {
  if (!day_open_)
    throw std::logic_error("KpiAggregator: no day in progress");
  std::vector<CellDayRecord> rows;
  rows.reserve(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c].hours == 0) continue;
    rows.push_back(cells_[c].reduce(CellId{static_cast<std::uint32_t>(c)},
                                    day_, reduction_));
  }
  day_open_ = false;
  return rows;
}

void KpiStore::add_day(std::vector<CellDayRecord> rows) {
  if (rows.empty()) return;
  const auto [earliest, latest] = std::minmax_element(
      rows.begin(), rows.end(),
      [](const CellDayRecord& a, const CellDayRecord& b) {
        return a.day < b.day;
      });
  if (!records_.empty() && earliest->day <= last_day_) {
    // Gaps are allowed (real exports can miss days); going backwards or
    // splitting one day across add_day calls is a bug.
    throw std::logic_error("KpiStore: days must be added in increasing order");
  }
  if (records_.empty()) first_day_ = earliest->day;
  last_day_ = latest->day;
  records_.insert(records_.end(), rows.begin(), rows.end());
}

}  // namespace cellscope::telemetry
