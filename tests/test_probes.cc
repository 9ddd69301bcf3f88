// Passive signaling probe aggregation.
#include <gtest/gtest.h>

#include "telemetry/probes.h"

namespace cellscope::telemetry {
namespace {

traffic::SignalingEvent make_event(SimDay day,
                                   traffic::SignalingEventType type,
                                   bool success = true) {
  traffic::SignalingEvent event;
  event.user = UserId{1};
  event.hour = first_hour(day) + 10;
  event.type = type;
  event.success = success;
  return event;
}

TEST(SignalingProbe, CountsPerDayAndType) {
  SignalingProbe probe;
  probe.on_event(make_event(5, traffic::SignalingEventType::kAttach));
  probe.on_event(make_event(5, traffic::SignalingEventType::kAttach, false));
  probe.on_event(make_event(5, traffic::SignalingEventType::kHandover));
  probe.on_event(make_event(6, traffic::SignalingEventType::kAttach));
  ASSERT_EQ(probe.days().size(), 2u);
  const auto* day5 = probe.day(5);
  ASSERT_NE(day5, nullptr);
  EXPECT_EQ(day5->total[static_cast<int>(
                traffic::SignalingEventType::kAttach)],
            2u);
  EXPECT_EQ(day5->failures[static_cast<int>(
                traffic::SignalingEventType::kAttach)],
            1u);
  EXPECT_EQ(day5->total_events(), 3u);
  EXPECT_DOUBLE_EQ(
      day5->failure_rate(traffic::SignalingEventType::kAttach), 0.5);
  EXPECT_DOUBLE_EQ(
      day5->failure_rate(traffic::SignalingEventType::kDetach), 0.0);
}

TEST(SignalingProbe, UnknownDayReturnsNull) {
  SignalingProbe probe;
  probe.on_event(make_event(5, traffic::SignalingEventType::kAttach));
  EXPECT_EQ(probe.day(7), nullptr);
}

TEST(SignalingProbe, DaysAppearChronologically) {
  SignalingProbe probe;
  for (SimDay d = 0; d < 10; ++d)
    probe.on_event(make_event(d, traffic::SignalingEventType::kServiceRequest));
  ASSERT_EQ(probe.days().size(), 10u);
  for (SimDay d = 0; d < 10; ++d) EXPECT_EQ(probe.days()[d].day, d);
}

// The simulator adds one counter per chunk where it used to feed the
// probe event by event: both must leave the probe in the same state,
// including no day at all for a day whose events were all dropped.
TEST(SignalingProbe, AddMatchesPerEventIngest) {
  Rng rng{41};
  SignalingProbe per_event;
  SignalingProbe added;
  for (SimDay day = 10; day < 40; ++day) {
    // Every fourth day the probe is down all day.
    const std::uint32_t mask =
        day % 4 == 0 ? 0xffffffu
                     : static_cast<std::uint32_t>(rng.next() & 0xffffffu);
    const auto slices = 1 + rng.uniform_index(5);
    for (std::uint64_t s = 0; s < slices; ++s) {
      SignalingDayCounter counter;
      counter.outage_mask = mask;
      const auto n_events = rng.uniform_index(40);
      for (std::uint64_t e = 0; e < n_events; ++e) {
        auto event = make_event(
            day, static_cast<traffic::SignalingEventType>(
                     rng.uniform_index(traffic::kSignalingEventTypeCount)),
            !rng.chance(0.2));
        event.hour = first_hour(day) +
                     static_cast<SimHour>(rng.uniform_index(kHoursPerDay));
        counter.on_event(event);
        if (!((mask >> hour_of_day(event.hour)) & 1u))
          per_event.on_event(event);
      }
      added.add(day, counter);
    }
  }
  ASSERT_EQ(added.days().size(), per_event.days().size());
  EXPECT_LT(added.days().size(), 30u);  // the all-down days are absent
  for (std::size_t d = 0; d < added.days().size(); ++d) {
    EXPECT_EQ(added.days()[d].day, per_event.days()[d].day);
    EXPECT_EQ(added.days()[d].total, per_event.days()[d].total);
    EXPECT_EQ(added.days()[d].failures, per_event.days()[d].failures);
  }
  EXPECT_EQ(added.events_ingested(), per_event.events_ingested());
}

TEST(SignalingProbe, AddRefusesADayBeforeTheLastOne) {
  SignalingProbe probe;
  SignalingDayCounter counter;
  counter.on_event(make_event(12, traffic::SignalingEventType::kAttach));
  probe.add(12, counter);
  probe.add(12, counter);
  EXPECT_THROW(probe.add(11, counter), std::logic_error);
  EXPECT_THROW(probe.add(11, SignalingDayCounter{}), std::logic_error);
  ASSERT_EQ(probe.days().size(), 1u);
  EXPECT_EQ(probe.days()[0].total[0], 2u);
}

TEST(SignalingProbe, EmptyCountsAreZero) {
  DailySignalingCounts counts;
  EXPECT_EQ(counts.total_events(), 0u);
  EXPECT_DOUBLE_EQ(
      counts.failure_rate(traffic::SignalingEventType::kAttach), 0.0);
}

}  // namespace
}  // namespace cellscope::telemetry
