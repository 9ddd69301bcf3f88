// Radio Network Performance feed.
//
// Section 2.4: KPIs are collected hourly per 4G cell, then "aggregate[d]
// per day [by extracting] the (hourly) median value per cell", giving one
// value per metric per cell per day. KpiAggregator implements exactly that
// reduction (with the mean available as the documented ablation), and
// KpiStore holds the resulting daily records for the analysis layer.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/simtime.h"
#include "radio/scheduler.h"

namespace cellscope::telemetry {

// One cell-day row of the performance feed (daily medians of hourly KPIs).
struct CellDayRecord {
  CellId cell;
  SimDay day = 0;
  double dl_volume_mb = 0.0;
  double ul_volume_mb = 0.0;
  double active_dl_users = 0.0;
  double tti_utilization = 0.0;
  double user_dl_throughput_mbps = 0.0;
  double active_data_seconds = 0.0;
  double connected_users = 0.0;
  double voice_volume_mb = 0.0;
  double simultaneous_voice_users = 0.0;
  double voice_dl_loss_pct = 0.0;
  double voice_ul_loss_pct = 0.0;
};

enum class KpiMetric : std::uint8_t {
  kDlVolume = 0,
  kUlVolume,
  kActiveDlUsers,
  kTtiUtilization,
  kUserDlThroughput,
  kActiveDataSeconds,
  kConnectedUsers,
  kVoiceVolume,
  kSimultaneousVoiceUsers,
  kVoiceDlLoss,
  kVoiceUlLoss,
};
inline constexpr int kKpiMetricCount = 11;

// The metric fields of a CellDayRecord in KpiMetric order: the one place a
// record maps onto its metric columns.
inline constexpr std::array<double CellDayRecord::*, kKpiMetricCount>
    kKpiFields = {
        &CellDayRecord::dl_volume_mb,     &CellDayRecord::ul_volume_mb,
        &CellDayRecord::active_dl_users,  &CellDayRecord::tti_utilization,
        &CellDayRecord::user_dl_throughput_mbps,
        &CellDayRecord::active_data_seconds, &CellDayRecord::connected_users,
        &CellDayRecord::voice_volume_mb,
        &CellDayRecord::simultaneous_voice_users,
        &CellDayRecord::voice_dl_loss_pct, &CellDayRecord::voice_ul_loss_pct};

[[nodiscard]] std::string_view kpi_metric_name(KpiMetric metric);
[[nodiscard]] inline double kpi_value(const CellDayRecord& record,
                                      KpiMetric metric) {
  return record.*kKpiFields[static_cast<std::size_t>(metric)];
}

enum class DailyReduction : std::uint8_t {
  kMedian = 0,  // what the paper reports
  kMean,        // ablation (DESIGN.md Section 5)
};

// One cell's hourly KPI samples over a day, in record order: the block
// KpiAggregator keeps per cell and the KPI day close keeps per work item.
// reduce() is the one per-cell daily reduction both use.
struct CellDaySamples {
  // [metric][k]: the metric's value in the k-th recorded hour. Only the
  // first `hours` entries of each metric are ever read.
  std::array<double, kKpiMetricCount * kHoursPerDay> values;
  int hours = 0;

  // Appends one hour. Throws std::logic_error past 24 hours.
  void record(const radio::CellHourKpi& kpi);
  // The cell's row: each metric reduced over its recorded hours, in record
  // order. Requires at least one recorded hour.
  [[nodiscard]] CellDayRecord reduce(CellId cell, SimDay day,
                                     DailyReduction reduction) const;
};

class KpiAggregator {
 public:
  // `cell_count` indexes cells densely by CellId value.
  KpiAggregator(std::size_t cell_count,
                DailyReduction reduction = DailyReduction::kMedian);

  void begin_day(SimDay day);
  void record_hour(CellId cell, const radio::CellHourKpi& kpi);
  // Reduces the open day's hourly samples to one CellDayRecord per cell,
  // in cell order, and closes the day. Cells with no recorded hours
  // produce no row (not monitored today, e.g. legacy RATs).
  [[nodiscard]] std::vector<CellDayRecord> finish_day();

 private:
  DailyReduction reduction_;
  SimDay day_ = 0;
  bool day_open_ = false;
  std::vector<CellDaySamples> cells_;  // by CellId value
};

// All cell-day rows of the analysis window, with lookup helpers.
class KpiStore {
 public:
  // Appends one day's rows. first_day()/last_day() cover every row of the
  // batch. Throws std::logic_error, adding nothing, when the batch's
  // earliest day is not after the stored last day.
  void add_day(std::vector<CellDayRecord> rows);

  [[nodiscard]] const std::vector<CellDayRecord>& records() const {
    return records_;
  }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] SimDay first_day() const { return first_day_; }
  [[nodiscard]] SimDay last_day() const { return last_day_; }

 private:
  std::vector<CellDayRecord> records_;
  SimDay first_day_ = 0;
  SimDay last_day_ = -1;
};

}  // namespace cellscope::telemetry
