// Daily trajectory generation under the policy timeline.
#include <gtest/gtest.h>

#include "mobility/trajectory.h"
#include "population/generator.h"

namespace cellscope::mobility {
namespace {

// Shared slow-to-build substrate.
class TrajectoryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    geography_ = new geo::UkGeography(geo::UkGeography::build());
    catalog_ = new population::DeviceCatalog(
        population::DeviceCatalog::build(1));
    population::PopulationGenerator generator{*geography_, *catalog_};
    population::PopulationConfig config;
    config.num_users = 4'000;
    config.seed = 31;
    population_ = new population::Population(generator.generate(config));
    policy_ = new PolicyTimeline();
    builder_ = new PlacesBuilder(*geography_);
    generator_ = new TrajectoryGenerator(*geography_, *policy_);
  }
  static void TearDownTestSuite() {
    delete generator_;
    delete builder_;
    delete policy_;
    delete population_;
    delete catalog_;
    delete geography_;
  }

  static UserPlaces places_for(std::size_t i) {
    Rng rng = Rng{77}.fork("places", i);
    return builder_->build(population_->subscribers[i], rng);
  }

  // First subscriber of the wanted archetype (with a workplace when
  // relevant).
  static std::size_t find_user(population::Archetype archetype,
                               bool needs_work = false) {
    for (std::size_t i = 0; i < population_->subscribers.size(); ++i) {
      const auto& s = population_->subscribers[i];
      if (s.archetype == archetype && s.native && s.smartphone &&
          (!needs_work || s.work_district.valid()))
        return i;
    }
    ADD_FAILURE() << "no such archetype in the population";
    return 0;
  }

  static const geo::UkGeography* geography_;
  static const population::DeviceCatalog* catalog_;
  static const population::Population* population_;
  static const PolicyTimeline* policy_;
  static const PlacesBuilder* builder_;
  static const TrajectoryGenerator* generator_;
};
const geo::UkGeography* TrajectoryTest::geography_ = nullptr;
const population::DeviceCatalog* TrajectoryTest::catalog_ = nullptr;
const population::Population* TrajectoryTest::population_ = nullptr;
const PolicyTimeline* TrajectoryTest::policy_ = nullptr;
const PlacesBuilder* TrajectoryTest::builder_ = nullptr;
const TrajectoryGenerator* TrajectoryTest::generator_ = nullptr;

TEST_F(TrajectoryTest, PlansCoverTheFullDayContiguously) {
  Rng root{1};
  for (std::size_t i = 0; i < 300; ++i) {
    const auto& user = population_->subscribers[i];
    auto places = places_for(i);
    UserState state;
    for (const SimDay day : {SimDay{10}, SimDay{40}, SimDay{60}}) {
      Rng rng = root.fork("day", i * 100 + static_cast<std::size_t>(day));
      const auto plan = generator_->plan_day(user, places, state, day, rng);
      ASSERT_FALSE(plan.empty());
      int expected_start = 0;
      for (const auto& stay : plan.stays) {
        EXPECT_EQ(stay.start_hour, expected_start);
        EXPECT_GT(stay.end_hour, stay.start_hour);
        EXPECT_LT(stay.place, places.size());
        expected_start = stay.end_hour;
      }
      EXPECT_EQ(expected_start, kHoursPerDay);
    }
  }
}

TEST_F(TrajectoryTest, OfficeWorkerCommutesOnBaselineWeekdays) {
  const auto i = find_user(population::Archetype::kOfficeWorker, true);
  const auto& user = population_->subscribers[i];
  auto places = places_for(i);
  UserState state;
  int commute_days = 0;
  Rng root{2};
  for (SimDay day = 7; day < 35; ++day) {  // baseline weeks
    if (is_weekend(day)) continue;
    Rng rng = root.fork("d", static_cast<std::uint64_t>(day));
    const auto plan = generator_->plan_day(user, places, state, day, rng);
    int work_hours = 0;
    for (const auto& stay : plan.stays)
      if (stay.place == places.work_index)
        work_hours += stay.end_hour - stay.start_hour;
    if (work_hours >= 6) ++commute_days;
  }
  EXPECT_EQ(commute_days, 20);  // every baseline weekday
}

TEST_F(TrajectoryTest, OfficeWorkerStaysHomeUnderLockdown) {
  const auto i = find_user(population::Archetype::kOfficeWorker, true);
  const auto& user = population_->subscribers[i];
  auto places = places_for(i);
  UserState state;
  Rng root{3};
  const SimDay day = timeline::kLockdownOrder + 2;
  for (int rep = 0; rep < 20; ++rep) {
    Rng rng = root.fork("d", static_cast<std::uint64_t>(rep));
    const auto plan = generator_->plan_day(user, places, state, day, rng);
    for (const auto& stay : plan.stays)
      EXPECT_NE(stay.place, places.work_index);
  }
}

TEST_F(TrajectoryTest, KeyWorkerKeepsCommutingUnderLockdown) {
  const auto i = find_user(population::Archetype::kKeyWorker, true);
  const auto& user = population_->subscribers[i];
  auto places = places_for(i);
  UserState state;
  Rng rng{4};
  const SimDay day = timeline::kLockdownOrder + 1;  // a Tuesday
  const auto plan = generator_->plan_day(user, places, state, day, rng);
  bool at_work = false;
  for (const auto& stay : plan.stays)
    at_work |= stay.place == places.work_index;
  EXPECT_TRUE(at_work);
}

TEST_F(TrajectoryTest, WfhAdoptionIsSticky) {
  const auto i = find_user(population::Archetype::kOfficeWorker, true);
  auto user = population_->subscribers[i];
  user.wfh_capable = true;
  auto places = places_for(i);
  UserState state;
  Rng root{5};
  // Walk through the voluntary phase; once WFH flips it stays.
  bool adopted = false;
  for (SimDay day = timeline::kWorkFromHomeAdvice;
       day < timeline::kLockdownOrder; ++day) {
    Rng rng = root.fork("d", static_cast<std::uint64_t>(day));
    (void)generator_->plan_day(user, places, state, day, rng);
    if (state.wfh_active) adopted = true;
    if (adopted) {
      EXPECT_TRUE(state.wfh_active);
    }
  }
  EXPECT_TRUE(adopted);  // 0.9 adoption across several days
}

TEST_F(TrajectoryTest, NonCapableWorkersNeverActivateWfh) {
  const auto i = find_user(population::Archetype::kOfficeWorker, true);
  auto user = population_->subscribers[i];
  user.wfh_capable = false;
  auto places = places_for(i);
  UserState state;
  Rng root{6};
  for (SimDay day = timeline::kWorkFromHomeAdvice; day < 90; ++day) {
    Rng rng = root.fork("d", static_cast<std::uint64_t>(day));
    (void)generator_->plan_day(user, places, state, day, rng);
  }
  EXPECT_FALSE(state.wfh_active);
}

TEST_F(TrajectoryTest, StudentsStopAtSchoolClosure) {
  const auto i = find_user(population::Archetype::kStudent, true);
  const auto& user = population_->subscribers[i];
  auto places = places_for(i);
  UserState state;
  Rng root{7};
  // Before closures (a weekday): at school.
  Rng before_rng = root.fork("b");
  const auto before = generator_->plan_day(
      user, places, state, timeline::kVenueClosures - 4, before_rng);
  bool at_school = false;
  for (const auto& stay : before.stays)
    at_school |= stay.place == places.work_index;
  EXPECT_TRUE(at_school);
  // After closures: never.
  for (int rep = 0; rep < 10; ++rep) {
    Rng rng = root.fork("a", static_cast<std::uint64_t>(rep));
    const auto after = generator_->plan_day(
        user, places, state, timeline::kVenueClosures + 3 + rep, rng);
    for (const auto& stay : after.stays)
      EXPECT_NE(stay.place, places.work_index);
  }
}

TEST_F(TrajectoryTest, DepartedUsersAreSilent) {
  const auto& user = population_->subscribers[0];
  auto places = places_for(0);
  UserState state;
  state.departed = true;
  Rng rng{8};
  const auto plan = generator_->plan_day(user, places, state, 50, rng);
  EXPECT_TRUE(plan.empty());
}

TEST_F(TrajectoryTest, RelocatedUsersLiveAtTheRefuge) {
  // Find a second-home owner (guaranteed refuge).
  std::size_t idx = 0;
  for (std::size_t i = 0; i < population_->subscribers.size(); ++i) {
    if (population_->subscribers[i].second_home) {
      idx = i;
      break;
    }
  }
  const auto& user = population_->subscribers[idx];
  auto places = places_for(idx);
  ASSERT_TRUE(places.has_refuge());
  UserState state;
  state.relocated = true;
  Rng rng{9};
  const auto plan = generator_->plan_day(user, places, state, 55, rng);
  ASSERT_FALSE(plan.empty());
  for (const auto& stay : plan.stays) {
    const auto county = places.places[stay.place].county;
    EXPECT_EQ(county, places.places[places.refuge_index].county);
  }
}

TEST_F(TrajectoryTest, LockdownCutsAwayHours) {
  // Aggregate: mean hours away from home fall sharply under lockdown.
  Rng root{10};
  double before_away = 0.0, during_away = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    const auto& user = population_->subscribers[i];
    if (!user.native || !user.smartphone) continue;
    auto places = places_for(i);
    UserState state;
    const auto away_hours = [&](SimDay day, std::uint64_t salt) {
      Rng rng = root.fork("x", i * 1000 + salt);
      const auto plan = generator_->plan_day(user, places, state, day, rng);
      int away = 0;
      for (const auto& stay : plan.stays)
        if (stay.place != UserPlaces::kHomeIndex)
          away += stay.end_hour - stay.start_hour;
      return away;
    };
    before_away += away_hours(15, 1);  // baseline Tuesday (week 8)
    during_away += away_hours(57, 2);  // lockdown Tuesday (week 14)
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(during_away, 0.5 * before_away);
  EXPECT_GT(during_away, 0.0);  // essential mobility persists
}

TEST_F(TrajectoryTest, PreLockdownRushBoostsGetaways) {
  Rng root{11};
  int rush_trips = 0, normal_trips = 0;
  const SimDay rush_saturday = timeline::kLockdownOrder - 2;
  const SimDay normal_saturday = rush_saturday - 14;  // baseline Saturday
  for (std::size_t i = 0; i < population_->subscribers.size(); ++i) {
    const auto& user = population_->subscribers[i];
    if (!user.native || !user.smartphone) continue;
    auto places = places_for(i);
    if (!places.has_getaway()) continue;
    UserState state;
    const auto trips = [&](SimDay day, std::uint64_t salt) {
      Rng rng = root.fork("g", i * 7 + salt);
      const auto plan = generator_->plan_day(user, places, state, day, rng);
      for (const auto& stay : plan.stays)
        if (stay.place == places.getaway_index) return 1;
      return 0;
    };
    normal_trips += trips(normal_saturday, 1);
    rush_trips += trips(rush_saturday, 2);
  }
  // Rush multiplier x4 against the week-12 suppression: still a clear jump.
  EXPECT_GT(rush_trips, normal_trips);
}

TEST(CompressSlots, SingleStay) {
  std::array<std::uint8_t, kHoursPerDay> slots;
  slots.fill(0);
  // The output is replaced, not appended to.
  std::vector<Stay> stays = {{3, 0, 24}, {4, 0, 24}};
  compress_slots(slots, stays);
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_EQ(stays[0].place, 0);
  EXPECT_EQ(stays[0].start_hour, 0);
  EXPECT_EQ(stays[0].end_hour, 24);
}

TEST(CompressSlots, AlternatingPattern) {
  std::array<std::uint8_t, kHoursPerDay> slots;
  slots.fill(0);
  slots[9] = slots[10] = 1;
  slots[15] = 2;
  std::vector<Stay> stays;
  compress_slots(slots, stays);
  ASSERT_EQ(stays.size(), 5u);
  EXPECT_EQ(stays[1].place, 1);
  EXPECT_EQ(stays[1].start_hour, 9);
  EXPECT_EQ(stays[1].end_hour, 11);
  EXPECT_EQ(stays[3].place, 2);
  // Round trip: total covered hours = 24.
  int total = 0;
  for (const auto& s : stays) total += s.end_hour - s.start_hour;
  EXPECT_EQ(total, 24);
}

}  // namespace
}  // namespace cellscope::mobility
