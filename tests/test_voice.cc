// Conversational voice model.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "sim/scenario.h"
#include "traffic/voice.h"

namespace cellscope::traffic {
namespace {

population::Subscriber adult() {
  population::Subscriber user;
  user.native = true;
  user.smartphone = true;
  user.archetype = population::Archetype::kOfficeWorker;
  return user;
}

double mean_minutes(const VoiceModel& model,
                    const population::Subscriber& user, SimDay day,
                    int hour, int n = 20000) {
  Rng rng{11};
  double total = 0.0;
  for (int i = 0; i < n; ++i)
    total += model.sample_hour(user, day, hour, rng).minutes;
  return total / n;
}

TEST(Voice, M2mNeverCalls) {
  mobility::PolicyTimeline policy;
  VoiceModel model{policy};
  population::Subscriber meter;
  meter.smartphone = false;
  Rng rng{1};
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(model.sample_hour(meter, 10, 10, rng).minutes, 0.0);
}

TEST(Voice, BaselineDailyMinutesMatchParameter) {
  mobility::PolicyTimeline policy;
  VoiceModel model{policy};
  const auto user = adult();
  // Sum the hourly means across a baseline day: should recover
  // daily_minutes within sampling tolerance.
  double daily = 0.0;
  for (int h = 0; h < 24; ++h)
    daily += mean_minutes(model, user, 10, h, 4000);
  EXPECT_NEAR(daily, model.params().daily_minutes, 1.5);
}

TEST(Voice, PolicyMultiplierLiftsMinutes) {
  mobility::PolicyTimeline policy;
  VoiceModel model{policy};
  const auto user = adult();
  const double baseline = mean_minutes(model, user, week_start_day(9), 10);
  const double spike = mean_minutes(model, user, week_start_day(12), 10);
  EXPECT_NEAR(spike / baseline,
              policy.voice_demand_multiplier(week_start_day(12)), 0.25);
}

TEST(Voice, DiurnalShape) {
  EXPECT_GT(VoiceModel::diurnal_weight(10), VoiceModel::diurnal_weight(3));
  EXPECT_GT(VoiceModel::diurnal_weight(18), 1.0);
  EXPECT_LT(VoiceModel::diurnal_weight(2), 0.1);
  double total = 0.0;
  for (int h = 0; h < 24; ++h) total += VoiceModel::diurnal_weight(h);
  EXPECT_NEAR(total / 24.0, 1.0, 0.05);
}

TEST(Voice, RetireesCallMoreThanStudents) {
  mobility::PolicyTimeline policy;
  VoiceModel model{policy};
  auto retiree = adult();
  retiree.archetype = population::Archetype::kRetiree;
  auto student = adult();
  student.archetype = population::Archetype::kStudent;
  EXPECT_GT(mean_minutes(model, retiree, 10, 10),
            mean_minutes(model, student, 10, 10) * 1.5);
}

TEST(Voice, VolumesAreSymmetricAndProportionalToMinutes) {
  mobility::PolicyTimeline policy;
  VoiceModel model{policy};
  const auto user = adult();
  Rng rng{2};
  for (int i = 0; i < 2000; ++i) {
    const auto v = model.sample_hour(user, 40, 11, rng);
    if (v.minutes <= 0.0) {
      EXPECT_DOUBLE_EQ(v.dl_mb, 0.0);
      continue;
    }
    EXPECT_DOUBLE_EQ(v.dl_mb, v.ul_mb);
    EXPECT_NEAR(v.dl_mb, v.minutes * model.params().mb_per_minute, 1e-9);
    EXPECT_NEAR(v.in_call_seconds, v.minutes * 60.0, 1e-9);
    EXPECT_DOUBLE_EQ(v.offnet_fraction, model.params().offnet_fraction);
  }
}

TEST(Voice, MinutesAreCappedAtTheHour) {
  mobility::PolicyTimeline policy;
  VoiceParams params;
  params.daily_minutes = 5'000.0;  // absurd appetite
  VoiceModel model{policy, params};
  const auto user = adult();
  Rng rng{3};
  for (int i = 0; i < 200; ++i)
    EXPECT_LE(model.sample_hour(user, 50, 11, rng).minutes, 60.0);
}

TEST(Voice, CallArrivalsAreBursty) {
  // Many hours have zero minutes; a few have long conversations.
  mobility::PolicyTimeline policy;
  VoiceModel model{policy};
  const auto user = adult();
  Rng rng{4};
  int zero_hours = 0, long_hours = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto v = model.sample_hour(user, 10, 11, rng);
    zero_hours += v.minutes == 0.0;
    long_hours += v.minutes > 5.0;
  }
  EXPECT_GT(zero_hours, 2500);
  EXPECT_GT(long_hours, 10);
}

// The day table only moves sample_hour's rate computation out of the hour
// loop: it must give the per-call path's values and draws bit for bit on
// every archetype, hour and day of the default window, under the
// counterfactual policies, and past Knuth's range (a normal draw).
TEST(VoiceProperty, DayTableMatchesThePerCallPathBitForBit) {
  const auto bits = [](const HourVoice& v) {
    return std::vector<std::uint64_t>{
        std::bit_cast<std::uint64_t>(v.minutes),
        std::bit_cast<std::uint64_t>(v.dl_mb),
        std::bit_cast<std::uint64_t>(v.ul_mb),
        std::bit_cast<std::uint64_t>(v.in_call_seconds),
        std::bit_cast<std::uint64_t>(v.offnet_fraction)};
  };
  mobility::PolicyParams no_lockdown;
  no_lockdown.lockdown_enabled = false;
  mobility::PolicyParams surge;
  surge.voice_surge_scale = 2.5;
  mobility::PolicyParams no_surge;
  no_surge.voice_surge_scale = 0.0;
  VoiceParams heavy;
  heavy.daily_minutes = 6000.0;  // hourly call means past 64
  const std::vector<std::pair<mobility::PolicyParams, VoiceParams>> cases = {
      {{}, {}}, {no_lockdown, {}}, {surge, {}}, {no_surge, {}}, {{}, heavy}};

  const sim::ScenarioConfig window = sim::default_scenario();
  Rng seeds{2026};
  std::uint64_t hours_with_calls = 0;
  for (const auto& [policy_params, voice_params] : cases) {
    const mobility::PolicyTimeline policy{policy_params};
    const VoiceModel model{policy, voice_params};
    for (SimDay day = window.first_day(); day <= window.last_day(); ++day) {
      const VoiceDayRates rates = model.day_rates(day);
      for (int a = 0; a < population::kArchetypeCount; ++a) {
        auto user = adult();
        user.archetype = static_cast<population::Archetype>(a);
        user.smartphone = a != 0 || day % 2 == 0;  // M2M on some days
        for (int h = 0; h < kHoursPerDay; ++h) {
          const std::uint64_t seed = seeds.next();
          Rng per_call{seed};
          Rng table{seed};
          const HourVoice expected = model.sample_hour(user, day, h, per_call);
          const HourVoice got = model.sample_hour(user, rates, h, table);
          ASSERT_EQ(bits(got), bits(expected))
              << "day " << day << " archetype " << a << " hour " << h;
          ASSERT_EQ(table.next(), per_call.next())
              << "day " << day << " archetype " << a << " hour " << h;
          hours_with_calls += expected.minutes > 0.0;
        }
      }
    }
  }
  EXPECT_GT(hours_with_calls, 10'000u);
}

}  // namespace
}  // namespace cellscope::traffic
