// DailySeries and the figure-shaped reductions.
#include <gtest/gtest.h>

#include "common/timeseries.h"

namespace cellscope {
namespace {

TEST(DailySeries, SetAndGet) {
  DailySeries s{0, 9};
  EXPECT_FALSE(s.has(3));
  s.set(3, 5.0);
  EXPECT_TRUE(s.has(3));
  EXPECT_DOUBLE_EQ(s.value(3), 5.0);
  EXPECT_EQ(s.count(3), 1u);
}

TEST(DailySeries, AddAverages) {
  DailySeries s{0, 9};
  s.add(2, 10.0);
  s.add(2, 20.0);
  s.add(2, 30.0);
  EXPECT_DOUBLE_EQ(s.value(2), 20.0);
  EXPECT_EQ(s.count(2), 3u);
}

TEST(DailySeries, SetOverwritesAccumulation) {
  DailySeries s{0, 9};
  s.add(1, 100.0);
  s.set(1, 7.0);
  EXPECT_DOUBLE_EQ(s.value(1), 7.0);
  EXPECT_EQ(s.count(1), 1u);
}

TEST(DailySeries, OutOfRangeQueriesAreSafe) {
  DailySeries s{5, 10};
  EXPECT_FALSE(s.has(4));
  EXPECT_FALSE(s.has(11));
  EXPECT_EQ(s.count(11), 0u);
}

TEST(DailySeries, WritesOutsideTheWindowThrow) {
  DailySeries s{5, 10};
  EXPECT_THROW(s.set(4, 1.0), std::out_of_range);
  EXPECT_THROW(s.set(11, 1.0), std::out_of_range);
  EXPECT_THROW(s.add(-1, 1.0), std::out_of_range);
  EXPECT_THROW(s.add(11, 1.0), std::out_of_range);
  for (SimDay d = 5; d <= 10; ++d) EXPECT_FALSE(s.has(d));
  s.set(10, 2.0);
  EXPECT_DOUBLE_EQ(s.value(10), 2.0);
}

TEST(DailySeries, ValueThrowsOnMissingDay) {
  DailySeries s{5, 10};
  s.set(6, 2.0);
  // A missing day is a gap, not a zero: value() refuses to invent data.
  EXPECT_THROW(s.value(4), std::out_of_range);   // outside the window
  EXPECT_THROW(s.value(7), std::out_of_range);   // inside, never set
  EXPECT_DOUBLE_EQ(s.value(6), 2.0);
}

TEST(DailySeries, ValueOrFillsMissingDaysExplicitly) {
  DailySeries s{5, 10};
  s.set(6, 2.0);
  EXPECT_DOUBLE_EQ(s.value_or(6), 2.0);
  EXPECT_DOUBLE_EQ(s.value_or(7), 0.0);
  EXPECT_DOUBLE_EQ(s.value_or(7, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(s.value_or(4, 9.0), 9.0);
}

TEST(DailySeries, InvalidRangeThrows) {
  EXPECT_THROW((DailySeries{10, 5}), std::invalid_argument);
}

TEST(DailySeries, WeekReductions) {
  // Week 6 of 2020 = sim days 0..6.
  DailySeries s{0, 13};
  for (SimDay d = 0; d < 7; ++d) s.set(d, static_cast<double>(d + 1));
  EXPECT_DOUBLE_EQ(s.week_mean(6), 4.0);    // mean of 1..7
  EXPECT_DOUBLE_EQ(s.week_median(6), 4.0);  // median of 1..7
  EXPECT_TRUE(s.week_values(7).empty());
  EXPECT_DOUBLE_EQ(s.week_mean(7), 0.0);
}

TEST(DailySeries, WeekValuesSkipMissingDays) {
  DailySeries s{0, 6};
  s.set(0, 2.0);
  s.set(3, 4.0);
  const auto values = s.week_values(6);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[0], 2.0);
  EXPECT_DOUBLE_EQ(values[1], 4.0);
}

TEST(DailyDelta, ComputesPercentages) {
  DailySeries s{0, 2};
  s.set(0, 100.0);
  s.set(1, 150.0);
  s.set(2, 50.0);
  const auto delta = daily_delta_percent(s, 100.0);
  ASSERT_EQ(delta.size(), 3u);
  EXPECT_DOUBLE_EQ(delta[0].value, 0.0);
  EXPECT_DOUBLE_EQ(delta[1].value, 50.0);
  EXPECT_DOUBLE_EQ(delta[2].value, -50.0);
  EXPECT_EQ(delta[1].day, 1);
}

TEST(DailyDelta, SkipsDaysWithoutData) {
  DailySeries s{0, 4};
  s.set(1, 10.0);
  s.set(3, 30.0);
  const auto delta = daily_delta_percent(s, 10.0);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0].day, 1);
  EXPECT_EQ(delta[1].day, 3);
  EXPECT_DOUBLE_EQ(delta[1].value, 200.0);
}

TEST(WeeklyDelta, MedianReduction) {
  // Weeks 6 and 7; week 7 values are double week 6's.
  DailySeries s{0, 13};
  for (SimDay d = 0; d < 7; ++d) s.set(d, 10.0);
  for (SimDay d = 7; d < 14; ++d) s.set(d, 20.0);
  const auto weekly = weekly_median_delta_percent(s, 10.0, 6, 7);
  ASSERT_EQ(weekly.size(), 2u);
  EXPECT_EQ(weekly[0].week, 6);
  EXPECT_DOUBLE_EQ(weekly[0].value, 0.0);
  EXPECT_EQ(weekly[1].week, 7);
  EXPECT_DOUBLE_EQ(weekly[1].value, 100.0);
}

TEST(WeeklyDelta, MedianVsMeanDifferOnSkewedWeeks) {
  DailySeries s{0, 6};
  // Six days at 10, one huge outlier.
  for (SimDay d = 0; d < 6; ++d) s.set(d, 10.0);
  s.set(6, 1000.0);
  const auto med = weekly_median_delta_percent(s, 10.0, 6, 6);
  const auto avg = weekly_mean_delta_percent(s, 10.0, 6, 6);
  ASSERT_EQ(med.size(), 1u);
  ASSERT_EQ(avg.size(), 1u);
  EXPECT_DOUBLE_EQ(med[0].value, 0.0);   // median immune to the outlier
  EXPECT_GT(avg[0].value, 1000.0);       // mean dominated by it
}

TEST(WeeklyDelta, EmptyWeeksAreOmitted) {
  DailySeries s{0, 20};
  s.set(0, 5.0);  // week 6 only
  const auto weekly = weekly_median_delta_percent(s, 5.0, 6, 8);
  ASSERT_EQ(weekly.size(), 1u);
  EXPECT_EQ(weekly[0].week, 6);
}

TEST(DailySeries, WeekCoveredDaysCountsOnlySetDays) {
  DailySeries s{0, 13};
  EXPECT_EQ(s.week_covered_days(6), 0);
  s.set(0, 1.0);
  s.set(3, 1.0);
  s.set(6, 1.0);
  s.set(7, 1.0);  // week 7
  EXPECT_EQ(s.week_covered_days(6), 3);
  EXPECT_EQ(s.week_covered_days(7), 1);
  EXPECT_EQ(s.week_covered_days(8), 0);  // outside the series window
}

TEST(WeeklyDelta, MinSamplesOmitsSparseWeeks) {
  DailySeries s{0, 13};
  // Week 6 fully covered, week 7 only two days.
  for (SimDay d = 0; d < 7; ++d) s.set(d, 10.0);
  s.set(7, 20.0);
  s.set(8, 20.0);
  const auto all = weekly_median_delta_percent(s, 10.0, 6, 7, 1);
  ASSERT_EQ(all.size(), 2u);
  const auto filtered = weekly_median_delta_percent(s, 10.0, 6, 7, 3);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].week, 6);
  // The same threshold applies to the mean reduction.
  const auto mean_filtered = weekly_mean_delta_percent(s, 10.0, 6, 7, 3);
  ASSERT_EQ(mean_filtered.size(), 1u);
  EXPECT_EQ(mean_filtered[0].week, 6);
}

TEST(WeeklyDelta, MinSamplesPropertyNeverAdmitsSparserWeeks) {
  // Property: raising min_samples can only shrink the reported week set,
  // and a week survives threshold k iff it has >= k covered days.
  DailySeries s{0, 7 * 4 - 1};
  // Weeks 6..9 covered with 1, 3, 5, 7 days respectively.
  const int covered[] = {1, 3, 5, 7};
  for (int w = 0; w < 4; ++w)
    for (int d = 0; d < covered[w]; ++d)
      s.set(static_cast<SimDay>(7 * w + d), 10.0);
  std::size_t previous = 5;
  for (int k = 1; k <= 8; ++k) {
    const auto weekly = weekly_median_delta_percent(s, 10.0, 6, 9, k);
    std::size_t expected = 0;
    for (const int c : covered)
      if (c >= k) ++expected;
    EXPECT_EQ(weekly.size(), expected) << "min_samples=" << k;
    EXPECT_LE(weekly.size(), previous);
    previous = weekly.size();
  }
}

TEST(DailySeries, FirstLastWeekHelpers) {
  DailySeries s{0, 20};
  EXPECT_EQ(s.first_week(), 6);
  EXPECT_EQ(s.last_week(), 8);
  EXPECT_EQ(s.first_day(), 0);
  EXPECT_EQ(s.last_day(), 20);
}

}  // namespace
}  // namespace cellscope
