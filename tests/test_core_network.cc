// Signaling generation: the control-plane event stream of Section 2.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "telemetry/probes.h"
#include "traffic/core_network.h"

namespace cellscope::traffic {
namespace {

struct RecordingSink {
  void on_event(const SignalingEvent& event) { events.push_back(event); }
  [[nodiscard]] int count(SignalingEventType type) const {
    int n = 0;
    for (const auto& e : events) n += e.type == type;
    return n;
  }
  std::vector<SignalingEvent> events;
};

population::Subscriber native_user() {
  population::Subscriber user;
  user.id = UserId{7};
  user.tac = Tac{35'000'001};
  user.native = true;
  user.smartphone = true;
  return user;
}

std::vector<CellStay> simple_day() {
  return {{CellId{1}, 0, 9}, {CellId{2}, 9, 17}, {CellId{1}, 17, 24}};
}

TEST(Signaling, EmptyStaysProduceNoEvents) {
  SignalingGenerator generator;
  RecordingSink sink;
  Rng rng{1};
  generator.generate_day(native_user(), {}, 10, 3, 1, rng, sink);
  EXPECT_TRUE(sink.events.empty());
}

TEST(Signaling, MorningAttachSequence) {
  SignalingGenerator generator;
  RecordingSink sink;
  Rng rng{2};
  const auto stays = simple_day();
  generator.generate_day(native_user(), stays, 10, 0, 0, rng, sink);
  ASSERT_GE(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].type, SignalingEventType::kAttach);
  EXPECT_EQ(sink.events[1].type, SignalingEventType::kAuthentication);
  EXPECT_EQ(sink.events[2].type, SignalingEventType::kSessionEstablishment);
  EXPECT_EQ(sink.events[0].cell, CellId{1});
}

TEST(Signaling, MobilityEventsOnEveryCellChange) {
  SignalingGenerator generator;
  RecordingSink sink;
  Rng rng{3};
  generator.generate_day(native_user(), simple_day(), 10, 0, 0, rng, sink);
  // Two cell changes -> two TAU-or-handover events.
  EXPECT_EQ(sink.count(SignalingEventType::kTrackingAreaUpdate) +
                sink.count(SignalingEventType::kHandover),
            2);
}

TEST(Signaling, NoMobilityEventsForStaticDay) {
  SignalingGenerator generator;
  RecordingSink sink;
  Rng rng{4};
  const std::vector<CellStay> home_all_day = {{CellId{5}, 0, 24}};
  generator.generate_day(native_user(), home_all_day, 10, 0, 0, rng, sink);
  EXPECT_EQ(sink.count(SignalingEventType::kTrackingAreaUpdate), 0);
  EXPECT_EQ(sink.count(SignalingEventType::kHandover), 0);
}

TEST(Signaling, ServiceRequestsMatchActiveHours) {
  SignalingGenerator generator;
  RecordingSink sink;
  Rng rng{5};
  generator.generate_day(native_user(), simple_day(), 10, 7, 0, rng, sink);
  EXPECT_EQ(sink.count(SignalingEventType::kServiceRequest), 7);
  EXPECT_EQ(sink.count(SignalingEventType::kEcmIdleTransition), 7);
}

TEST(Signaling, VoiceCallsRideDedicatedBearers) {
  SignalingGenerator generator;
  RecordingSink sink;
  Rng rng{6};
  generator.generate_day(native_user(), simple_day(), 10, 0, 4, rng, sink);
  EXPECT_EQ(sink.count(SignalingEventType::kDedicatedBearerSetup), 4);
  EXPECT_EQ(sink.count(SignalingEventType::kDedicatedBearerRelease), 4);
}

TEST(Signaling, EventsCarrySubscriberIdentity) {
  SignalingGenerator generator;
  RecordingSink sink;
  Rng rng{7};
  const auto user = native_user();
  generator.generate_day(user, simple_day(), 10, 2, 1, rng, sink);
  for (const auto& event : sink.events) {
    EXPECT_EQ(event.user, user.id);
    EXPECT_EQ(event.tac, user.tac);
    EXPECT_EQ(event.mcc, 234);  // O2 UK home PLMN
    EXPECT_EQ(event.mnc, 10);
  }
}

TEST(Signaling, RoamersCarryForeignPlmn) {
  SignalingGenerator generator;
  RecordingSink sink;
  Rng rng{8};
  auto roamer = native_user();
  roamer.native = false;
  generator.generate_day(roamer, simple_day(), 10, 0, 0, rng, sink);
  ASSERT_FALSE(sink.events.empty());
  EXPECT_NE(sink.events[0].mcc, 234);
}

TEST(Signaling, EventHoursFallWithinTheDay) {
  SignalingGenerator generator;
  RecordingSink sink;
  Rng rng{9};
  const SimDay day = 33;
  generator.generate_day(native_user(), simple_day(), day, 5, 3, rng, sink);
  for (const auto& event : sink.events) {
    EXPECT_GE(event.hour, first_hour(day));
    EXPECT_LT(event.hour, first_hour(day + 1));
  }
}

TEST(Signaling, AttachFailuresAtConfiguredRate) {
  SignalingParams params;
  params.attach_failure_rate = 0.2;
  SignalingGenerator generator{params};
  RecordingSink sink;
  Rng rng{10};
  for (int i = 0; i < 2000; ++i)
    generator.generate_day(native_user(), simple_day(), 10, 0, 0, rng, sink);
  int failures = 0, attaches = 0;
  for (const auto& e : sink.events) {
    if (e.type != SignalingEventType::kAttach) continue;
    ++attaches;
    failures += !e.success;
  }
  ASSERT_EQ(attaches, 2000);
  EXPECT_NEAR(double(failures) / attaches, 0.2, 0.03);
}

TEST(Signaling, DetachProbability) {
  SignalingGenerator generator;
  RecordingSink sink;
  Rng rng{11};
  for (int i = 0; i < 3000; ++i)
    generator.generate_day(native_user(), simple_day(), 10, 0, 0, rng, sink);
  EXPECT_NEAR(double(sink.count(SignalingEventType::kDetach)) / 3000, 0.10,
              0.02);
}

// The simulator counts each chunk's events in a SignalingDayCounter; a
// recording sink sees the events themselves. Driven by the same generator
// from the same stream, the counter must hold exactly what the recorded
// events, filtered through the outage mask, add up to, and both runs must
// consume the same draws.
TEST(SignalingProperty, CounterAgreesWithRecordedEvents) {
  SignalingGenerator generator;
  Rng inputs{2025};
  for (int trial = 0; trial < 3000; ++trial) {
    population::Subscriber user = native_user();
    user.id = UserId{static_cast<std::uint32_t>(trial)};
    user.native = inputs.chance(0.7);

    // 1-24 contiguous stays over a small cell pool, so repeated and
    // back-to-back cells both occur.
    const auto n_stays = 1 + static_cast<int>(inputs.uniform_index(24));
    std::vector<int> cuts;
    for (int h = 1; h < kHoursPerDay; ++h) cuts.push_back(h);
    inputs.shuffle(cuts);
    cuts.resize(static_cast<std::size_t>(n_stays - 1));
    std::sort(cuts.begin(), cuts.end());
    cuts.push_back(kHoursPerDay);
    std::vector<CellStay> stays;
    int start = 0;
    for (const int end : cuts) {
      const CellId cell{static_cast<std::uint32_t>(inputs.uniform_index(4))};
      stays.push_back({cell, static_cast<std::uint8_t>(start),
                       static_cast<std::uint8_t>(end)});
      start = end;
    }
    const auto active_hours = static_cast<int>(inputs.uniform_index(25));
    const auto calls = static_cast<int>(inputs.uniform_index(13));
    const auto day = static_cast<SimDay>(inputs.uniform_index(98));

    telemetry::SignalingDayCounter counter;
    if (inputs.chance(0.75))
      counter.outage_mask =
          static_cast<std::uint32_t>(inputs.next() & 0xffffffu);

    const std::uint64_t seed = inputs.next();
    Rng recorded_rng{seed};
    Rng counted_rng{seed};
    RecordingSink recorder;
    generator.generate_day(user, stays, day, active_hours, calls,
                           recorded_rng, recorder);
    generator.generate_day(user, stays, day, active_hours, calls,
                           counted_rng, counter);

    telemetry::SignalingDayCounter expected;
    for (const auto& event : recorder.events) {
      ASSERT_EQ(day_of(event.hour), day);
      if ((counter.outage_mask >> hour_of_day(event.hour)) & 1u) {
        ++expected.dropped;
        continue;
      }
      ++expected.forwarded;
      ++expected.total[static_cast<std::size_t>(event.type)];
      if (!event.success)
        ++expected.failures[static_cast<std::size_t>(event.type)];
    }
    ASSERT_EQ(counter.total, expected.total) << "trial " << trial;
    ASSERT_EQ(counter.failures, expected.failures) << "trial " << trial;
    ASSERT_EQ(counter.forwarded, expected.forwarded) << "trial " << trial;
    ASSERT_EQ(counter.dropped, expected.dropped) << "trial " << trial;
    ASSERT_EQ(recorded_rng.next(), counted_rng.next()) << "trial " << trial;
  }
}

TEST(Signaling, EventNamesAreDistinct) {
  std::set<std::string_view> names;
  for (int i = 0; i < kSignalingEventTypeCount; ++i)
    names.insert(signaling_event_name(static_cast<SignalingEventType>(i)));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kSignalingEventTypeCount));
}

}  // namespace
}  // namespace cellscope::traffic
