// Grouped network-performance series.
//
// Sections 4.1-4.5 and 5 slice the per-cell daily KPI records along three
// geographies: named regions (Fig 8), geodemographic clusters (Figs 10, 12)
// and London postal areas (Fig 11). This module builds, for any cell->group
// map, the per-day per-group *median across cells* of a KPI, and derives
// the weekly-median delta-% lines the figures plot. Group maps for the
// three geographies (plus "UK — all regions") are provided as helpers over
// the radio topology.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/timeseries.h"
#include "geo/uk_model.h"
#include "radio/topology.h"
#include "telemetry/kpi.h"

namespace cellscope::analysis {

// Cell-to-group assignment: groups[cell id] in [0, group_count), or
// kUngrouped to exclude the cell. A cell may additionally belong to the
// special "all" group when `all_group` is set (the "UK - all regions" line).
struct CellGrouping {
  static constexpr std::int32_t kUngrouped = -1;

  std::vector<std::int32_t> group_of;  // by CellId value
  std::vector<std::string> names;      // group display names
  std::int32_t all_group = kUngrouped; // optional catch-all group index

  [[nodiscard]] std::size_t group_count() const { return names.size(); }
};

// "UK - all regions" + the five Section 4.3 analysis counties.
[[nodiscard]] CellGrouping group_by_region(const geo::UkGeography& geography,
                                           const radio::RadioTopology& topology);

// The eight OAC supergroups (Fig 10). `restrict_to_county`, if valid,
// limits cells to that county (Fig 12: London clusters).
[[nodiscard]] CellGrouping group_by_cluster(
    const geo::UkGeography& geography, const radio::RadioTopology& topology,
    CountyId restrict_to_county = CountyId::invalid());

// Inner London postal areas (Fig 11: EC, WC, N, ... — the LADs of the
// Inner London county).
[[nodiscard]] CellGrouping group_by_london_postal_area(
    const geo::UkGeography& geography, const radio::RadioTopology& topology);

// One group per radio technology (2G/3G/4G). Only meaningful on stores
// collected with collect_legacy_kpis; the default store contains 4G only.
[[nodiscard]] CellGrouping group_by_rat(const radio::RadioTopology& topology);

// How the per-cell daily values reduce into the group's daily value.
// Per-cell KPI panels use the median across cells (the paper's "median
// variation per cluster"); totals ("the total number of users connected to
// the network", Section 4.4) use the sum.
enum class CellReduction : std::uint8_t { kMedian = 0, kMean, kSum };

// Per-day per-group reduction (across cells) of one KPI metric.
class KpiGroupSeries {
 public:
  KpiGroupSeries() = default;

  // Builds from the full KPI store; records must be day-ordered (KpiStore
  // guarantees this).
  KpiGroupSeries(const telemetry::KpiStore& store,
                 const CellGrouping& grouping, telemetry::KpiMetric metric,
                 CellReduction reduction = CellReduction::kMedian);
  // The same over any day-ordered rows, covering their day range.
  KpiGroupSeries(std::span<const telemetry::CellDayRecord> rows,
                 const CellGrouping& grouping, telemetry::KpiMetric metric,
                 CellReduction reduction = CellReduction::kMedian);

  [[nodiscard]] const DailySeries& group(std::size_t index) const {
    return series_.at(index);
  }
  [[nodiscard]] std::size_t group_count() const { return series_.size(); }

  // Cells that actually reported into the group's daily value (0 = the day
  // is a gap for that group — its cells were all dark, not all idle).
  [[nodiscard]] std::size_t cells_reporting(std::size_t group,
                                            SimDay day) const;

  // Weekly-median delta-% vs the group's own baseline-week median daily
  // value (the Fig 8..12 line shape). Weeks with fewer than `min_samples`
  // covered days are omitted rather than reduced over their remnants.
  [[nodiscard]] std::vector<WeekPoint> weekly_delta(std::size_t group,
                                                    int baseline_week,
                                                    int from_week,
                                                    int to_week,
                                                    int min_samples = 1) const;

  // The group's baseline: median of its daily values over `baseline_week`.
  [[nodiscard]] double baseline(std::size_t group, int baseline_week) const;

  // Coverage-checked baseline: throws std::runtime_error when the baseline
  // week has fewer than `min_days` covered days for the group.
  [[nodiscard]] double baseline(std::size_t group, int baseline_week,
                                int min_days) const;

 private:
  friend class KpiGroupSeriesBuilder;

  std::vector<DailySeries> series_;
  std::vector<DailySeries> cell_counts_;  // per-day cells reporting
};

// Incremental construction of a KpiGroupSeries from day-ordered rows —
// what the store's vectorized scan path (store/scan.h) feeds without ever
// materializing a KpiStore. The KpiStore constructor above is implemented
// on this builder, so the in-memory and scan paths share one reduction
// code path and produce bitwise-identical series from the same rows.
class KpiGroupSeriesBuilder {
 public:
  // The series will cover [first_day, last_day] (the scan path takes the
  // range from the shard footers; the in-memory path from the KpiStore).
  KpiGroupSeriesBuilder(const CellGrouping& grouping, SimDay first_day,
                        SimDay last_day,
                        CellReduction reduction = CellReduction::kMedian);

  // Rows must arrive with days non-decreasing (store row order). A cell
  // outside the grouping map contributes only to the all-group, like an
  // explicitly ungrouped cell.
  void add(SimDay day, std::uint32_t cell, double value);

  // Flushes the last open day and hands over the series; the builder is
  // spent afterwards.
  [[nodiscard]] KpiGroupSeries finish();

 private:
  const CellGrouping* grouping_;
  CellReduction reduction_;
  std::vector<stats::SampleBuffer> buffers_;
  KpiGroupSeries out_;
  SimDay current_;

  void flush_day(SimDay day);
  [[nodiscard]] double reduce(const stats::SampleBuffer& buffer) const;
};

}  // namespace cellscope::analysis
