// KPI aggregation: hourly -> daily medians per cell; the KPI store.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <stdexcept>

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

// One cell's row: the given hourly samples reduced over the day.
CellDayRecord cell_day(CellId cell, SimDay day,
                       std::initializer_list<double> hourly_dl,
                       DailyReduction reduction = DailyReduction::kMedian) {
  CellDaySamples samples;
  for (const double dl : hourly_dl) samples.record(hour_kpi(dl));
  return samples.reduce(cell, day, reduction);
}

TEST(CellDaySamples, DailyMedianOfHourlySamples) {
  CellDaySamples samples;
  // 24 hours with volumes 1..24 -> median 12.5.
  for (int h = 1; h <= 24; ++h) samples.record(hour_kpi(h));
  ASSERT_EQ(samples.hours, 24);
  const CellDayRecord row = samples.reduce(CellId{0}, 30, DailyReduction::kMedian);
  EXPECT_EQ(row.cell, CellId{0});
  EXPECT_EQ(row.day, 30);
  EXPECT_DOUBLE_EQ(row.dl_volume_mb, 12.5);
  EXPECT_DOUBLE_EQ(row.ul_volume_mb, 1.25);
  EXPECT_DOUBLE_EQ(row.user_dl_throughput_mbps, 3.0);
  EXPECT_DOUBLE_EQ(row.connected_users, 20.0);
}

TEST(CellDaySamples, MeanReductionAblation) {
  const CellDayRecord row =
      cell_day(CellId{0}, 5, {0.0, 0.0, 90.0}, DailyReduction::kMean);
  EXPECT_DOUBLE_EQ(row.dl_volume_mb, 30.0);  // mean, not median (0)
}

TEST(CellDaySamples, MedianIgnoresOutlierHour) {
  CellDaySamples samples;
  for (int h = 0; h < 23; ++h) samples.record(hour_kpi(10.0));
  samples.record(hour_kpi(100'000.0));
  EXPECT_DOUBLE_EQ(
      samples.reduce(CellId{0}, 5, DailyReduction::kMedian).dl_volume_mb,
      10.0);
}

TEST(CellDaySamples, RefusesA25thHour) {
  CellDaySamples samples;
  for (int h = 0; h < 24; ++h) samples.record(hour_kpi(1.0));
  EXPECT_THROW(samples.record(hour_kpi(1.0)), std::logic_error);
  EXPECT_EQ(samples.hours, 24);
}

// The KPI day close starts each cell's day by zeroing the hour count; the
// samples beyond it are never read.
TEST(CellDaySamples, ResetsBetweenDays) {
  CellDaySamples samples;
  samples.record(hour_kpi(50.0));
  (void)samples.reduce(CellId{0}, 1, DailyReduction::kMedian);
  samples.hours = 0;
  samples.record(hour_kpi(10.0));
  const CellDayRecord row = samples.reduce(CellId{0}, 2, DailyReduction::kMedian);
  EXPECT_DOUBLE_EQ(row.dl_volume_mb, 10.0);
  EXPECT_EQ(row.day, 2);
}

TEST(KpiStore, TracksDaySpan) {
  KpiStore store;
  EXPECT_TRUE(store.empty());
  for (SimDay d = 21; d <= 23; ++d)
    store.add_day({cell_day(CellId{0}, d, {double(d)})});
  EXPECT_FALSE(store.empty());
  EXPECT_EQ(store.first_day(), 21);
  EXPECT_EQ(store.last_day(), 23);
  EXPECT_EQ(store.records().size(), 3u);
}

TEST(KpiStore, AllowsGapsButRejectsBackwardDays) {
  KpiStore store;
  store.add_day({cell_day(CellId{0}, 10, {1.0})});
  // Gap: day 11 missing (allowed for imports).
  EXPECT_NO_THROW(store.add_day({cell_day(CellId{0}, 12, {1.0})}));
  EXPECT_EQ(store.last_day(), 12);
  // Backwards: a bug.
  EXPECT_THROW(store.add_day({cell_day(CellId{0}, 11, {1.0})}),
               std::logic_error);
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


// --- Row ownership: a store that hands its rows to a sink releases them
// and keeps only their counts.

CellDayRecord row_on(std::uint32_t cell, SimDay day) {
  CellDayRecord record;
  record.cell = CellId{cell};
  record.day = day;
  return record;
}

TEST(KpiStore, ReleaseKeepsCountsAndDayRange) {
  KpiStore store;
  store.add_day({row_on(0, 21), row_on(1, 21), row_on(2, 21)});
  store.add_day({row_on(0, 23), row_on(1, 23)});
  store.release_rows();
  EXPECT_TRUE(store.released());
  EXPECT_FALSE(store.empty());
  EXPECT_TRUE(store.retained().empty());
  EXPECT_EQ(store.row_count(), 5u);
  EXPECT_EQ(store.first_day(), 21);
  EXPECT_EQ(store.last_day(), 23);
  EXPECT_EQ(store.rows_through(20), 0u);
  EXPECT_EQ(store.rows_through(21), 3u);
  EXPECT_EQ(store.rows_through(22), 3u);
  EXPECT_EQ(store.rows_through(23), 5u);
  EXPECT_EQ(store.rows_through(99), 5u);
}

TEST(KpiStore, ReadingReleasedRowsThrows) {
  KpiStore store;
  store.add_day({row_on(0, 21)});
  store.release_rows();
  EXPECT_THROW((void)store.records(), std::logic_error);
  // Rows added after the release do not make the feed whole again.
  store.add_day({row_on(0, 22)});
  EXPECT_THROW((void)store.records(), std::logic_error);
  ASSERT_EQ(store.retained().size(), 1u);
  EXPECT_EQ(store.retained()[0].day, 22);
}

TEST(KpiStore, ReleasingNothingKeepsTheFeedReadable) {
  KpiStore store;
  store.release_rows();
  EXPECT_FALSE(store.released());
  EXPECT_TRUE(store.records().empty());
  store.add_day({row_on(0, 21)});
  EXPECT_EQ(store.records().size(), 1u);
}

TEST(KpiStore, AddDayAfterAReleaseKeepsCountingAndOrdering) {
  KpiStore store;
  store.add_day({row_on(0, 21), row_on(1, 21)});
  store.release_rows();
  // The released day still bounds what may follow.
  EXPECT_THROW(store.add_day({row_on(0, 21)}), std::logic_error);
  EXPECT_THROW(store.add_day({row_on(0, 20)}), std::logic_error);
  EXPECT_EQ(store.row_count(), 2u);
  store.add_day({row_on(0, 22), row_on(1, 22), row_on(2, 22)});
  EXPECT_EQ(store.row_count(), 5u);
  EXPECT_EQ(store.rows_through(21), 2u);
  EXPECT_EQ(store.rows_through(22), 5u);
  EXPECT_EQ(store.first_day(), 21);
  EXPECT_EQ(store.last_day(), 22);
  EXPECT_EQ(store.retained().size(), 3u);
  store.release_rows();
  EXPECT_TRUE(store.retained().empty());
  EXPECT_EQ(store.row_count(), 5u);
}

// One batch holding two days with day 5 split around day 6, the shape of
// the audit's split-day mutation: each day is counted on its own.
TEST(KpiStore, MixedDayBatchCountsPerDay) {
  KpiStore store;
  store.add_day({row_on(0, 5), row_on(2, 6), row_on(1, 5)});
  EXPECT_EQ(store.row_count(), 3u);
  EXPECT_EQ(store.rows_through(4), 0u);
  EXPECT_EQ(store.rows_through(5), 2u);
  EXPECT_EQ(store.rows_through(6), 3u);
  store.add_day({row_on(0, 8), row_on(0, 7), row_on(1, 8), row_on(1, 7)});
  EXPECT_EQ(store.rows_through(6), 3u);
  EXPECT_EQ(store.rows_through(7), 5u);
  EXPECT_EQ(store.rows_through(8), 7u);
  EXPECT_EQ(store.records().size(), 7u);
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
