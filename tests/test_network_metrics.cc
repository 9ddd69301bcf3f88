// Cell groupings and grouped KPI series.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "analysis/network_metrics.h"

namespace cellscope::analysis {
namespace {

class NetworkMetricsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    geography_ = new geo::UkGeography(geo::UkGeography::build());
    radio::TopologyConfig config;
    config.expected_subscribers = 30'000;
    config.seed = 5;
    topology_ =
        new radio::RadioTopology(radio::RadioTopology::build(*geography_, config));
  }
  static void TearDownTestSuite() {
    delete topology_;
    delete geography_;
  }
  static const geo::UkGeography& geo() { return *geography_; }
  static const radio::RadioTopology& topo() { return *topology_; }

 private:
  static const geo::UkGeography* geography_;
  static const radio::RadioTopology* topology_;
};
const geo::UkGeography* NetworkMetricsTest::geography_ = nullptr;
const radio::RadioTopology* NetworkMetricsTest::topology_ = nullptr;

TEST_F(NetworkMetricsTest, RegionGroupingHasUkPlusFiveRegions) {
  const auto grouping = group_by_region(geo(), topo());
  ASSERT_EQ(grouping.group_count(), 6u);
  EXPECT_EQ(grouping.names[0], "UK - all regions");
  EXPECT_EQ(grouping.all_group, 0);
  // Every LTE cell is either in a named region group or only in "all".
  for (const auto id : topo().lte_cells()) {
    const auto g = grouping.group_of[id.value()];
    if (g == CellGrouping::kUngrouped) continue;
    EXPECT_GE(g, 1);
    EXPECT_LT(g, 6);
    const auto& site = topo().site(topo().cell(id).site);
    EXPECT_EQ(grouping.names[static_cast<std::size_t>(g)],
              geo::region_name(site.region));
  }
  // Legacy cells are never grouped.
  for (const auto& cell : topo().cells()) {
    if (cell.rat != radio::Rat::k4G) {
      EXPECT_EQ(grouping.group_of[cell.id.value()], CellGrouping::kUngrouped);
    }
  }
}

TEST_F(NetworkMetricsTest, ClusterGroupingMapsEveryLteCell) {
  const auto grouping = group_by_cluster(geo(), topo());
  EXPECT_EQ(grouping.group_count(),
            static_cast<std::size_t>(geo::kOacClusterCount));
  EXPECT_EQ(grouping.all_group, CellGrouping::kUngrouped);
  for (const auto id : topo().lte_cells()) {
    const auto g = grouping.group_of[id.value()];
    ASSERT_NE(g, CellGrouping::kUngrouped);
    const auto& site = topo().site(topo().cell(id).site);
    EXPECT_EQ(g, static_cast<std::int32_t>(
                     geo().district(site.district).cluster));
  }
}

TEST_F(NetworkMetricsTest, ClusterGroupingCanRestrictToCounty) {
  const auto inner = *geo().county_by_name("Inner London");
  const auto grouping = group_by_cluster(geo(), topo(), inner);
  std::set<std::int32_t> populated;
  for (const auto id : topo().lte_cells()) {
    const auto g = grouping.group_of[id.value()];
    if (g == CellGrouping::kUngrouped) continue;
    populated.insert(g);
    EXPECT_EQ(topo().site(topo().cell(id).site).county, inner);
  }
  // Exactly the three London clusters (Section 5.2).
  EXPECT_EQ(populated.size(), 3u);
}

TEST_F(NetworkMetricsTest, LondonPostalAreaGrouping) {
  const auto grouping = group_by_london_postal_area(geo(), topo());
  EXPECT_EQ(grouping.group_count(), 8u);  // EC WC N E SE SW W NW
  const auto inner = *geo().county_by_name("Inner London");
  for (const auto id : topo().lte_cells()) {
    const auto g = grouping.group_of[id.value()];
    const auto& site = topo().site(topo().cell(id).site);
    if (site.county == inner)
      EXPECT_NE(g, CellGrouping::kUngrouped);
    else
      EXPECT_EQ(g, CellGrouping::kUngrouped);
  }
}

// Synthetic KPI store for the series math.
telemetry::KpiStore synthetic_store(double group0_dl, double group1_dl,
                                    int days = 14) {
  telemetry::KpiStore store;
  for (SimDay d = 0; d < days; ++d) {
    std::vector<telemetry::CellDayRecord> rows;
    for (std::uint32_t c = 0; c < 4; ++c) {
      radio::CellHourKpi kpi;
      // Cells 0,1 -> group 0; cells 2,3 -> group 1. Second week doubles.
      const double base = c < 2 ? group0_dl : group1_dl;
      kpi.dl_volume_mb = base * (d >= 7 ? 2.0 : 1.0) + c;  // slight spread
      kpi.connected_users = 5.0 + c;
      telemetry::CellDaySamples samples;
      for (int h = 0; h < 24; ++h) samples.record(kpi);
      rows.push_back(
          samples.reduce(CellId{c}, d, telemetry::DailyReduction::kMedian));
    }
    store.add_day(std::move(rows));
  }
  return store;
}

CellGrouping two_groups() {
  CellGrouping grouping;
  grouping.names = {"g0", "g1"};
  grouping.group_of = {0, 0, 1, 1};
  return grouping;
}

TEST(KpiGroupSeries, MedianAcrossCellsPerDay) {
  const auto store = synthetic_store(100.0, 10.0);
  KpiGroupSeries series{store, two_groups(), telemetry::KpiMetric::kDlVolume};
  ASSERT_EQ(series.group_count(), 2u);
  // Group 0 day 0: cells at 100 and 101 -> median 100.5.
  EXPECT_DOUBLE_EQ(series.group(0).value(0), 100.5);
  EXPECT_DOUBLE_EQ(series.group(1).value(0), 12.5);
  // Second week doubles.
  EXPECT_DOUBLE_EQ(series.group(0).value(7), 200.5);
}

TEST(KpiGroupSeries, SumReduction) {
  const auto store = synthetic_store(100.0, 10.0);
  KpiGroupSeries series{store, two_groups(), telemetry::KpiMetric::kDlVolume,
                        CellReduction::kSum};
  EXPECT_DOUBLE_EQ(series.group(0).value(0), 201.0);  // 100 + 101
  EXPECT_DOUBLE_EQ(series.group(1).value(0), 25.0);   // 12 + 13
}

TEST(KpiGroupSeries, WeeklyDeltaAgainstOwnBaseline) {
  const auto store = synthetic_store(100.0, 10.0);
  KpiGroupSeries series{store, two_groups(), telemetry::KpiMetric::kDlVolume};
  const auto weekly = series.weekly_delta(0, /*baseline_week=*/6, 6, 7);
  ASSERT_EQ(weekly.size(), 2u);
  EXPECT_DOUBLE_EQ(weekly[0].value, 0.0);
  EXPECT_NEAR(weekly[1].value, 99.0, 1.5);  // ~+100%
}

TEST(KpiGroupSeries, UngroupedCellsExcluded) {
  const auto store = synthetic_store(100.0, 10.0);
  CellGrouping grouping;
  grouping.names = {"only-cell-0"};
  grouping.group_of = {0, CellGrouping::kUngrouped, CellGrouping::kUngrouped,
                       CellGrouping::kUngrouped};
  KpiGroupSeries series{store, grouping, telemetry::KpiMetric::kDlVolume};
  EXPECT_DOUBLE_EQ(series.group(0).value(0), 100.0);
}

TEST(KpiGroupSeries, AllGroupReceivesEverything) {
  const auto store = synthetic_store(100.0, 10.0);
  CellGrouping grouping;
  grouping.names = {"all", "g0"};
  grouping.all_group = 0;
  grouping.group_of = {1, 1, CellGrouping::kUngrouped,
                       CellGrouping::kUngrouped};
  KpiGroupSeries series{store, grouping, telemetry::KpiMetric::kDlVolume};
  // "all" sees the four cells {100, 101, 12, 13} -> median 56.5.
  EXPECT_DOUBLE_EQ(series.group(0).value(0), 56.5);
  EXPECT_DOUBLE_EQ(series.group(1).value(0), 100.5);
}

TEST(KpiGroupSeries, EmptyStoreYieldsNoGroups) {
  telemetry::KpiStore store;
  KpiGroupSeries series{store, two_groups(),
                        telemetry::KpiMetric::kDlVolume};
  EXPECT_EQ(series.group_count(), 0u);
}

}  // namespace
}  // namespace cellscope::analysis
