#include "telemetry/kpi.h"

#include <algorithm>
#include <array>
#include <cassert>
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

KpiAggregator::KpiAggregator(std::size_t cell_count, DailyReduction reduction)
    : cell_count_(cell_count), reduction_(reduction) {
  samples_.assign(cell_count_ * kKpiMetricCount * kHoursPerDay, 0.0);
  hours_recorded_.assign(cell_count_, 0);
}

std::size_t KpiAggregator::slot(std::size_t cell, int metric,
                                int hour) const {
  return (cell * kKpiMetricCount + static_cast<std::size_t>(metric)) *
             kHoursPerDay +
         static_cast<std::size_t>(hour);
}

void KpiAggregator::begin_day(SimDay day) {
  if (day_open_)
    throw std::logic_error("KpiAggregator: previous day not finished");
  day_ = day;
  day_open_ = true;
  // A cell's samples are read only up to its recorded hours, so resetting
  // the counts is enough; stale samples beyond them are never seen.
  std::fill(hours_recorded_.begin(), hours_recorded_.end(), 0);
}

void KpiAggregator::record_hour(CellId cell, const radio::CellHourKpi& kpi) {
  assert(day_open_);
  const std::size_t c = cell.value();
  assert(c < cell_count_);
  const int hour = hours_recorded_[c];
  if (hour >= kHoursPerDay)
    throw std::logic_error("KpiAggregator: more than 24 hours recorded");
  const std::array<double, kKpiMetricCount> values = {
      kpi.dl_volume_mb,        kpi.ul_volume_mb,
      kpi.active_dl_users,     kpi.tti_utilization,
      kpi.user_dl_throughput_mbps, kpi.active_data_seconds,
      kpi.connected_users,     kpi.voice_volume_mb,
      kpi.simultaneous_voice_users, kpi.voice_dl_loss_pct,
      kpi.voice_ul_loss_pct};
  for (int m = 0; m < kKpiMetricCount; ++m)
    samples_[slot(c, m, hour)] = values[static_cast<std::size_t>(m)];
  ++hours_recorded_[c];
}

void KpiAggregator::reduce_cells(std::size_t first, std::size_t end,
                                 std::vector<CellDayRecord>& rows) const {
  if (!day_open_)
    throw std::logic_error("KpiAggregator: no day in progress");
  end = std::min(end, cell_count_);
  for (std::size_t c = first; c < end; ++c) {
    const int n = hours_recorded_[c];
    if (n == 0) continue;
    CellDayRecord row;
    row.cell = CellId{static_cast<std::uint32_t>(c)};
    row.day = day_;
    for (int m = 0; m < kKpiMetricCount; ++m) {
      const std::span<const double> hours{&samples_[slot(c, m, 0)],
                                          static_cast<std::size_t>(n)};
      row.*kKpiFields[static_cast<std::size_t>(m)] =
          reduction_ == DailyReduction::kMedian ? stats::median(hours)
                                                : stats::mean(hours);
    }
    rows.push_back(row);
  }
}

void KpiAggregator::end_day() {
  if (!day_open_)
    throw std::logic_error("KpiAggregator: no day in progress");
  day_open_ = false;
}

std::vector<CellDayRecord> KpiAggregator::finish_day() {
  std::vector<CellDayRecord> rows;
  rows.reserve(cell_count_);
  reduce_cells(0, cell_count_, rows);
  end_day();
  return rows;
}

void KpiStore::add_day(std::vector<CellDayRecord> rows) {
  if (rows.empty()) return;
  const SimDay day = rows.front().day;
  if (records_.empty()) {
    first_day_ = day;
  } else if (day <= last_day_) {
    // Gaps are allowed (real exports can miss days); going backwards or
    // splitting one day across add_day calls is a bug.
    throw std::logic_error("KpiStore: days must be added in increasing order");
  }
  last_day_ = day;
  records_.insert(records_.end(), rows.begin(), rows.end());
}

}  // namespace cellscope::telemetry
