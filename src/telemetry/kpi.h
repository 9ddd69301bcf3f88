// Radio Network Performance feed.
//
// Section 2.4: KPIs are collected hourly per 4G cell, then "aggregate[d]
// per day [by extracting] the (hourly) median value per cell", giving one
// value per metric per cell per day. CellDaySamples implements exactly that
// reduction (with the mean available as the documented ablation), and
// KpiStore holds the resulting daily records for the analysis layer.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
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

// One cell's hourly KPI samples over a day, in record order: the block the
// KPI day close keeps per work item. reduce() is the one per-cell daily
// reduction.
struct CellDaySamples {
  // [metric][k]: the metric's value in the k-th recorded hour. Only the
  // first `hours` entries of each metric are ever read, so setting `hours`
  // to 0 starts a new day.
  std::array<double, kKpiMetricCount * kHoursPerDay> values;
  int hours = 0;

  // Appends one hour. Throws std::logic_error past 24 hours.
  void record(const radio::CellHourKpi& kpi);
  // The cell's row: each metric reduced over its recorded hours, in record
  // order. Requires at least one recorded hour.
  [[nodiscard]] CellDayRecord reduce(CellId cell, SimDay day,
                                     DailyReduction reduction) const;
};

// All cell-day rows of the analysis window, with lookup helpers.
//
// Each row has one owner. A run that streams its rows to a store hands
// each day over and then calls release_rows(): the store keeps the row
// count, the day range and the per-day counts, but no rows. Everything
// else (imports, store reads, sinkless runs) keeps every row.
class KpiStore {
 public:
  // Appends one batch of rows: one day in a run, any days in an import.
  // first_day()/last_day() cover every row of the batch. Throws
  // std::logic_error, adding nothing, when the batch's earliest day is not
  // after the stored last day, released rows included.
  void add_day(std::vector<CellDayRecord> rows);

  // Every row, in add order. Throws std::logic_error once rows were
  // released: a released store must never read as an empty or short feed.
  [[nodiscard]] const std::vector<CellDayRecord>& records() const;
  // The rows added since the last release_rows() (every row before one).
  [[nodiscard]] std::span<const CellDayRecord> retained() const {
    return records_;
  }
  // Frees the retained rows. Counts and the day range stay, and later
  // batches are held until the next release.
  void release_rows() { records_ = {}; }
  [[nodiscard]] bool released() const {
    return row_count() > records_.size();
  }

  // Rows ever added, released or not.
  [[nodiscard]] std::uint64_t row_count() const {
    return through_.empty() ? 0 : through_.back().second;
  }
  // Rows ever added whose day is at or before `day`.
  [[nodiscard]] std::uint64_t rows_through(SimDay day) const;

  // These describe every row ever added, released or not; an empty store's
  // range is [0, -1].
  [[nodiscard]] bool empty() const { return through_.empty(); }
  [[nodiscard]] SimDay first_day() const {
    return empty() ? 0 : through_.front().first;
  }
  [[nodiscard]] SimDay last_day() const {
    return empty() ? -1 : through_.back().first;
  }

 private:
  std::vector<CellDayRecord> records_;
  // (day, rows through that day), one entry per day that has rows,
  // ascending by day.
  std::vector<std::pair<SimDay, std::uint64_t>> through_;
};

}  // namespace cellscope::telemetry
