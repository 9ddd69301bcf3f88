#include "analysis/network_metrics.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/stats.h"

namespace cellscope::analysis {

namespace {
// The five Section 4.3 counties, in figure order.
constexpr std::array<geo::Region, 5> kFigureRegions = {
    geo::Region::kOuterLondon, geo::Region::kInnerLondon,
    geo::Region::kGreaterManchester, geo::Region::kWestMidlands,
    geo::Region::kWestYorkshire};
}  // namespace

CellGrouping group_by_region(const geo::UkGeography& geography,
                             const radio::RadioTopology& topology) {
  (void)geography;
  CellGrouping grouping;
  grouping.names.emplace_back("UK - all regions");
  grouping.all_group = 0;
  for (const auto region : kFigureRegions)
    grouping.names.emplace_back(geo::region_name(region));

  grouping.group_of.assign(topology.cells().size(), CellGrouping::kUngrouped);
  for (const auto cell_id : topology.lte_cells()) {
    const auto& site = topology.site(topology.cell(cell_id).site);
    std::int32_t group = CellGrouping::kUngrouped;
    for (std::size_t r = 0; r < kFigureRegions.size(); ++r) {
      if (site.region == kFigureRegions[r]) {
        group = static_cast<std::int32_t>(r + 1);
        break;
      }
    }
    grouping.group_of[cell_id.value()] = group;
  }
  return grouping;
}

CellGrouping group_by_cluster(const geo::UkGeography& geography,
                              const radio::RadioTopology& topology,
                              CountyId restrict_to_county) {
  CellGrouping grouping;
  for (const auto cluster : geo::all_oac_clusters())
    grouping.names.emplace_back(geo::oac_name(cluster));

  grouping.group_of.assign(topology.cells().size(), CellGrouping::kUngrouped);
  for (const auto cell_id : topology.lte_cells()) {
    const auto& site = topology.site(topology.cell(cell_id).site);
    if (restrict_to_county.valid() && site.county != restrict_to_county)
      continue;
    const auto& district = geography.district(site.district);
    grouping.group_of[cell_id.value()] =
        static_cast<std::int32_t>(district.cluster);
  }
  return grouping;
}

CellGrouping group_by_london_postal_area(
    const geo::UkGeography& geography, const radio::RadioTopology& topology) {
  CellGrouping grouping;
  const auto inner = geography.county_by_name("Inner London");
  std::vector<std::int32_t> lad_to_group(geography.lads().size(),
                                         CellGrouping::kUngrouped);
  for (const auto& lad : geography.lads()) {
    if (!inner || lad.county != *inner) continue;
    lad_to_group[lad.id.value()] =
        static_cast<std::int32_t>(grouping.names.size());
    grouping.names.push_back(lad.name);
  }

  grouping.group_of.assign(topology.cells().size(), CellGrouping::kUngrouped);
  for (const auto cell_id : topology.lte_cells()) {
    const auto& site = topology.site(topology.cell(cell_id).site);
    const auto& district = geography.district(site.district);
    grouping.group_of[cell_id.value()] = lad_to_group[district.lad.value()];
  }
  return grouping;
}

CellGrouping group_by_rat(const radio::RadioTopology& topology) {
  CellGrouping grouping;
  grouping.names = {"2G", "3G", "4G"};
  grouping.group_of.assign(topology.cells().size(), CellGrouping::kUngrouped);
  for (const auto& cell : topology.cells())
    grouping.group_of[cell.id.value()] = static_cast<std::int32_t>(cell.rat);
  return grouping;
}

KpiGroupSeries::KpiGroupSeries(const telemetry::KpiStore& store,
                               const CellGrouping& grouping,
                               telemetry::KpiMetric metric,
                               CellReduction reduction)
    : KpiGroupSeries(std::span{store.records()}, grouping, metric,
                     reduction) {}

KpiGroupSeries::KpiGroupSeries(std::span<const telemetry::CellDayRecord> rows,
                               const CellGrouping& grouping,
                               telemetry::KpiMetric metric,
                               CellReduction reduction) {
  if (rows.empty()) return;
  const auto [earliest, latest] = std::minmax_element(
      rows.begin(), rows.end(),
      [](const telemetry::CellDayRecord& a,
         const telemetry::CellDayRecord& b) { return a.day < b.day; });
  KpiGroupSeriesBuilder builder{grouping, earliest->day, latest->day,
                                reduction};
  for (const auto& record : rows)
    builder.add(record.day, record.cell.value(),
                telemetry::kpi_value(record, metric));
  *this = builder.finish();
}

KpiGroupSeriesBuilder::KpiGroupSeriesBuilder(const CellGrouping& grouping,
                                             SimDay first_day,
                                             SimDay last_day,
                                             CellReduction reduction)
    : grouping_(&grouping),
      reduction_(reduction),
      buffers_(grouping.group_count()),
      current_(first_day) {
  out_.series_.reserve(grouping.group_count());
  out_.cell_counts_.reserve(grouping.group_count());
  for (std::size_t g = 0; g < grouping.group_count(); ++g) {
    out_.series_.emplace_back(first_day, last_day);
    out_.cell_counts_.emplace_back(first_day, last_day);
  }
}

void KpiGroupSeriesBuilder::add(SimDay day, std::uint32_t cell,
                                double value) {
  // Rows are day-major: a day change flushes the per-group reductions.
  if (day != current_) {
    flush_day(current_);
    current_ = day;
  }
  const auto group = cell < grouping_->group_of.size()
                         ? grouping_->group_of[cell]
                         : CellGrouping::kUngrouped;
  if (group != CellGrouping::kUngrouped)
    buffers_[static_cast<std::size_t>(group)].add(value);
  if (grouping_->all_group != CellGrouping::kUngrouped)
    buffers_[static_cast<std::size_t>(grouping_->all_group)].add(value);
}

KpiGroupSeries KpiGroupSeriesBuilder::finish() {
  flush_day(current_);
  return std::move(out_);
}

double KpiGroupSeriesBuilder::reduce(const stats::SampleBuffer& buffer) const {
  switch (reduction_) {
    case CellReduction::kMedian: return buffer.median();
    case CellReduction::kMean: return buffer.mean();
    case CellReduction::kSum: return buffer.mean() *
                                     static_cast<double>(buffer.size());
  }
  return buffer.median();
}

void KpiGroupSeriesBuilder::flush_day(SimDay day) {
  for (std::size_t g = 0; g < buffers_.size(); ++g) {
    if (!buffers_[g].empty()) {
      out_.series_[g].set(day, reduce(buffers_[g]));
      out_.cell_counts_[g].set(day,
                               static_cast<double>(buffers_[g].size()));
    }
    buffers_[g].clear();
  }
}

std::size_t KpiGroupSeries::cells_reporting(std::size_t group,
                                            SimDay day) const {
  const auto& counts = cell_counts_.at(group);
  return counts.has(day) ? static_cast<std::size_t>(counts.value(day)) : 0;
}

std::vector<WeekPoint> KpiGroupSeries::weekly_delta(std::size_t group,
                                                    int baseline_week,
                                                    int from_week,
                                                    int to_week,
                                                    int min_samples) const {
  return weekly_median_delta_percent(series_.at(group),
                                     baseline(group, baseline_week),
                                     from_week, to_week, min_samples);
}

double KpiGroupSeries::baseline(std::size_t group, int baseline_week) const {
  return series_.at(group).week_median(baseline_week);
}

double KpiGroupSeries::baseline(std::size_t group, int baseline_week,
                                int min_days) const {
  const int covered = series_.at(group).week_covered_days(baseline_week);
  if (covered < min_days)
    throw std::runtime_error(
        "KpiGroupSeries::baseline: baseline week " +
        std::to_string(baseline_week) + " has " + std::to_string(covered) +
        " covered day(s) for group " + std::to_string(group) +
        ", fewer than the required " + std::to_string(min_days));
  return series_.at(group).week_median(baseline_week);
}

}  // namespace cellscope::analysis
