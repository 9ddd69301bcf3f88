// Control-plane intensity series.
#include <gtest/gtest.h>

#include "analysis/signaling_series.h"

namespace cellscope::analysis {
namespace {

using traffic::SignalingEvent;
using traffic::SignalingEventType;

void emit(telemetry::SignalingProbe& probe, SimDay day,
          SignalingEventType type, int count, int failures = 0) {
  for (int i = 0; i < count; ++i) {
    SignalingEvent event;
    event.user = UserId{1};
    event.hour = first_hour(day) + 10;
    event.type = type;
    event.success = i >= failures;
    probe.on_event(event);
  }
}

TEST(SignalingSeries, DailyTotalsPerType) {
  telemetry::SignalingProbe probe;
  emit(probe, 21, SignalingEventType::kHandover, 5);
  emit(probe, 21, SignalingEventType::kAttach, 2);
  emit(probe, 22, SignalingEventType::kHandover, 3);
  const auto handovers =
      signaling_series(probe, SignalingEventType::kHandover);
  EXPECT_DOUBLE_EQ(handovers.value(21), 5.0);
  EXPECT_DOUBLE_EQ(handovers.value(22), 3.0);
  const auto attaches = signaling_series(probe, SignalingEventType::kAttach);
  EXPECT_DOUBLE_EQ(attaches.value(21), 2.0);
  EXPECT_DOUBLE_EQ(attaches.value(22), 0.0);
}

TEST(SignalingSeries, FailureRateInPercent) {
  telemetry::SignalingProbe probe;
  emit(probe, 21, SignalingEventType::kAttach, 10, /*failures=*/2);
  const auto failures =
      signaling_failure_series(probe, SignalingEventType::kAttach);
  EXPECT_DOUBLE_EQ(failures.value(21), 20.0);
}

TEST(SignalingSeries, EmptyProbeYieldsEmptySeries) {
  telemetry::SignalingProbe probe;
  EXPECT_TRUE(signaling_series(probe, SignalingEventType::kAttach).empty());
  EXPECT_TRUE(
      signaling_weekly_delta(probe, SignalingEventType::kAttach, 9, 9, 19)
          .empty());
}

TEST(SignalingSeries, WeeklyDeltaAgainstBaselineWeek) {
  telemetry::SignalingProbe probe;
  // Week 9 (days 21-27): 10 handovers/day; week 10: 5/day.
  for (SimDay d = 21; d <= 27; ++d)
    emit(probe, d, SignalingEventType::kHandover, 10);
  for (SimDay d = 28; d <= 34; ++d)
    emit(probe, d, SignalingEventType::kHandover, 5);
  const auto weekly = signaling_weekly_delta(
      probe, SignalingEventType::kHandover, 9, 9, 10);
  ASSERT_EQ(weekly.size(), 2u);
  EXPECT_DOUBLE_EQ(weekly[0].value, 0.0);
  EXPECT_DOUBLE_EQ(weekly[1].value, -50.0);
}

}  // namespace
}  // namespace cellscope::analysis
