// KPI aggregation: hourly -> daily medians per cell; the KPI store.
#include <gtest/gtest.h>

#include "telemetry/kpi.h"

namespace cellscope::telemetry {
namespace {

radio::CellHourKpi hour_kpi(double dl) {
  radio::CellHourKpi kpi;
  kpi.dl_volume_mb = dl;
  kpi.ul_volume_mb = dl / 10.0;
  kpi.active_dl_users = dl / 100.0;
  kpi.tti_utilization = dl / 10'000.0;
  kpi.user_dl_throughput_mbps = 3.0;
  kpi.active_data_seconds = dl;
  kpi.connected_users = 20.0;
  kpi.voice_volume_mb = 1.0;
  kpi.simultaneous_voice_users = 0.5;
  kpi.voice_dl_loss_pct = 0.4;
  kpi.voice_ul_loss_pct = 0.3;
  return kpi;
}

TEST(KpiAggregator, DailyMedianOfHourlySamples) {
  KpiAggregator aggregator{2};
  aggregator.begin_day(30);
  // Cell 0: 24 hours with volumes 1..24 -> median 12.5.
  for (int h = 1; h <= 24; ++h)
    aggregator.record_hour(CellId{0}, hour_kpi(h));
  const auto rows = aggregator.finish_day();
  ASSERT_EQ(rows.size(), 1u);  // cell 1 had no samples
  EXPECT_EQ(rows[0].cell, CellId{0});
  EXPECT_EQ(rows[0].day, 30);
  EXPECT_DOUBLE_EQ(rows[0].dl_volume_mb, 12.5);
  EXPECT_DOUBLE_EQ(rows[0].ul_volume_mb, 1.25);
  EXPECT_DOUBLE_EQ(rows[0].user_dl_throughput_mbps, 3.0);
  EXPECT_DOUBLE_EQ(rows[0].connected_users, 20.0);
}

TEST(KpiAggregator, MeanReductionAblation) {
  KpiAggregator aggregator{1, DailyReduction::kMean};
  aggregator.begin_day(5);
  aggregator.record_hour(CellId{0}, hour_kpi(0.0));
  aggregator.record_hour(CellId{0}, hour_kpi(0.0));
  aggregator.record_hour(CellId{0}, hour_kpi(90.0));
  const auto rows = aggregator.finish_day();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].dl_volume_mb, 30.0);  // mean, not median (0)
}

TEST(KpiAggregator, MedianIgnoresOutlierHour) {
  KpiAggregator aggregator{1};
  aggregator.begin_day(5);
  for (int h = 0; h < 23; ++h) aggregator.record_hour(CellId{0}, hour_kpi(10.0));
  aggregator.record_hour(CellId{0}, hour_kpi(100'000.0));
  const auto rows = aggregator.finish_day();
  EXPECT_DOUBLE_EQ(rows[0].dl_volume_mb, 10.0);
}

TEST(KpiAggregator, LifecycleErrors) {
  KpiAggregator aggregator{1};
  EXPECT_THROW((void)aggregator.finish_day(), std::logic_error);
  aggregator.begin_day(1);
  EXPECT_THROW(aggregator.begin_day(2), std::logic_error);
  for (int h = 0; h < 24; ++h) aggregator.record_hour(CellId{0}, hour_kpi(1.0));
  EXPECT_THROW(aggregator.record_hour(CellId{0}, hour_kpi(1.0)),
               std::logic_error);
  (void)aggregator.finish_day();
  aggregator.begin_day(2);  // reusable after finish
  const auto rows = aggregator.finish_day();
  EXPECT_TRUE(rows.empty());
}

TEST(KpiAggregator, ResetsBetweenDays) {
  KpiAggregator aggregator{1};
  aggregator.begin_day(1);
  aggregator.record_hour(CellId{0}, hour_kpi(50.0));
  (void)aggregator.finish_day();
  aggregator.begin_day(2);
  aggregator.record_hour(CellId{0}, hour_kpi(10.0));
  const auto rows = aggregator.finish_day();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].dl_volume_mb, 10.0);
  EXPECT_EQ(rows[0].day, 2);
}

TEST(KpiStore, TracksDaySpan) {
  KpiStore store;
  EXPECT_TRUE(store.empty());
  KpiAggregator aggregator{1};
  for (SimDay d = 21; d <= 23; ++d) {
    aggregator.begin_day(d);
    aggregator.record_hour(CellId{0}, hour_kpi(double(d)));
    store.add_day(aggregator.finish_day());
  }
  EXPECT_FALSE(store.empty());
  EXPECT_EQ(store.first_day(), 21);
  EXPECT_EQ(store.last_day(), 23);
  EXPECT_EQ(store.records().size(), 3u);
}

TEST(KpiStore, AllowsGapsButRejectsBackwardDays) {
  KpiStore store;
  KpiAggregator aggregator{1};
  aggregator.begin_day(10);
  aggregator.record_hour(CellId{0}, hour_kpi(1.0));
  store.add_day(aggregator.finish_day());
  aggregator.begin_day(12);  // gap: day 11 missing (allowed for imports)
  aggregator.record_hour(CellId{0}, hour_kpi(1.0));
  EXPECT_NO_THROW(store.add_day(aggregator.finish_day()));
  EXPECT_EQ(store.last_day(), 12);
  aggregator.begin_day(11);  // backwards: a bug
  aggregator.record_hour(CellId{0}, hour_kpi(1.0));
  EXPECT_THROW(store.add_day(aggregator.finish_day()), std::logic_error);
}

// A batch is one day, but the store's day range comes from every row: a
// batch that mixes days widens it, and the next batch must start after the
// latest day seen.
TEST(KpiStore, DayRangeCoversEveryRowOfABatch) {
  const auto row = [](SimDay day) {
    CellDayRecord record;
    record.day = day;
    return record;
  };
  KpiStore store;
  store.add_day({row(5), row(7), row(4)});
  EXPECT_EQ(store.first_day(), 4);
  EXPECT_EQ(store.last_day(), 7);
  EXPECT_THROW(store.add_day({row(7)}), std::logic_error);
  EXPECT_THROW(store.add_day({row(9), row(6)}), std::logic_error);
  EXPECT_EQ(store.records().size(), 3u);
  EXPECT_EQ(store.last_day(), 7);
  store.add_day({row(8)});
  EXPECT_EQ(store.first_day(), 4);
  EXPECT_EQ(store.last_day(), 8);
}

TEST(KpiStore, EmptyDayIsANoOp) {
  KpiStore store;
  store.add_day({});
  EXPECT_TRUE(store.empty());
}

TEST(KpiValue, MapsEveryMetric) {
  CellDayRecord record;
  record.dl_volume_mb = 1;
  record.ul_volume_mb = 2;
  record.active_dl_users = 3;
  record.tti_utilization = 4;
  record.user_dl_throughput_mbps = 5;
  record.active_data_seconds = 6;
  record.connected_users = 7;
  record.voice_volume_mb = 8;
  record.simultaneous_voice_users = 9;
  record.voice_dl_loss_pct = 10;
  record.voice_ul_loss_pct = 11;
  for (int m = 0; m < kKpiMetricCount; ++m) {
    EXPECT_DOUBLE_EQ(kpi_value(record, static_cast<KpiMetric>(m)),
                     double(m + 1));
    EXPECT_FALSE(kpi_metric_name(static_cast<KpiMetric>(m)).empty());
  }
}

}  // namespace
}  // namespace cellscope::telemetry
