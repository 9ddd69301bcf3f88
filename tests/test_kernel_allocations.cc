// Heap allocations on the per-user day path. This binary replaces the
// global operator new with one that counts calls, so each test can require
// that a kernel allocates nothing once its reused buffers have warmed up.
// It is a binary of its own because the replacement is process-wide.
//
// Not covered here, and still allocating per eligible user-day: the copies
// of the day's observation the simulator hands to the home detector (warm-up
// days) and to the London matrix (tracked residents). Both feeds leave the
// chunk reduce with ROADMAP item 7(b).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "analysis/mobility_metrics.h"
#include "mobility/place.h"
#include "mobility/trajectory.h"
#include "population/generator.h"
#include "telemetry/probes.h"
#include "traffic/core_network.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cellscope {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(KernelAllocations, TheCounterSeesAllocations) {
  const std::uint64_t before = allocations();
  auto* boxed = new std::vector<int>(16);
  delete boxed;
  EXPECT_EQ(allocations() - before, 2u);
}

TEST(KernelAllocations, PlanDayIntoAReusedPlanAllocatesNothing) {
  const auto geography = geo::UkGeography::build();
  const auto catalog = population::DeviceCatalog::build(1);
  population::PopulationGenerator generator{geography, catalog};
  population::PopulationConfig config;
  config.num_users = 2'000;
  config.seed = 5;
  const auto population = generator.generate(config);
  const mobility::PolicyTimeline policy;
  const mobility::PlacesBuilder builder{geography};
  const mobility::TrajectoryGenerator trajectories{geography, policy};

  std::vector<mobility::UserPlaces> places;
  for (std::size_t i = 0; i < population.subscribers.size(); ++i) {
    Rng rng = Rng{9}.fork("places", i);
    places.push_back(builder.build(population.subscribers[i], rng));
  }
  std::vector<mobility::UserState> states(places.size());
  // Weekdays and weekends before the WFH advice, in lockdown and in the
  // regional relaxation.
  const std::vector<SimDay> days = {12, 13, 14, 40, 45, 55, 57, 60, 90, 95};

  mobility::DayPlan plan;
  Rng warm_up{1};
  trajectories.plan_day(population.subscribers[0], places[0], states[0],
                        days[0], warm_up, plan);

  const std::uint64_t before = allocations();
  std::size_t stays = 0;
  for (const SimDay day : days) {
    for (std::size_t i = 0; i < places.size(); ++i) {
      Rng rng = Rng{3}.fork("day", i * 1024 + static_cast<std::size_t>(day));
      trajectories.plan_day(population.subscribers[i], places[i], states[i],
                            day, rng, plan);
      stays += plan.stays.size();
    }
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(stays, days.size() * places.size());
}

telemetry::UserDayObservation observation_of(int towers, Rng& rng) {
  telemetry::UserDayObservation obs;
  for (int t = 0; t < towers; ++t) {
    telemetry::TowerStay stay;
    stay.site = SiteId{static_cast<std::uint32_t>(t)};
    stay.location = {51.5 + rng.uniform(-0.2, 0.2),
                     -0.1 + rng.uniform(-0.3, 0.3)};
    stay.hours = static_cast<float>(1 + rng.uniform_index(6));
    for (auto& bin : stay.bin_hours)
      bin = static_cast<float>(rng.uniform_index(3));
    obs.stays.push_back(stay);
  }
  return obs;
}

TEST(KernelAllocations, DayMetricsAllocateNothing) {
  Rng rng{17};
  std::vector<telemetry::UserDayObservation> observations;
  for (int towers = 1; towers <= kHoursPerDay; ++towers)
    observations.push_back(observation_of(towers, rng));
  (void)analysis::compute_day_metrics(observations.front());

  const std::uint64_t before = allocations();
  double checksum = 0.0;
  for (const auto& obs : observations) {
    // The whole day, each four-hour bin, and a top-K cut that selects.
    if (const auto m = analysis::compute_day_metrics(obs))
      checksum += m->entropy + m->gyration_km;
    for (int bin = 0; bin < kFourHourBinsPerDay; ++bin) {
      analysis::MobilityMetricOptions options;
      options.four_hour_bin = bin;
      if (const auto m = analysis::compute_day_metrics(obs, options))
        checksum += m->entropy;
    }
    analysis::MobilityMetricOptions top5;
    top5.top_k = 5;
    if (const auto m = analysis::compute_day_metrics(obs, top5))
      checksum += m->gyration_km;
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(checksum, 0.0);
}

TEST(KernelAllocations, SignalingIntoTheDayCounterAllocatesNothing) {
  const traffic::SignalingGenerator generator;
  population::Subscriber user;
  user.id = UserId{3};
  user.smartphone = true;
  const std::vector<traffic::CellStay> stays = {{CellId{1}, 0, 8},
                                                {CellId{2}, 8, 12},
                                                {CellId{3}, 12, 13},
                                                {CellId{2}, 13, 18},
                                                {CellId{4}, 18, 21},
                                                {CellId{1}, 21, 24}};
  telemetry::SignalingDayCounter counter;
  counter.outage_mask = 0x00f000u;
  Rng rng{23};
  generator.generate_day(user, stays, 40, 12, 2, rng, counter);

  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    user.native = i % 5 != 0;  // roamers draw a foreign PLMN
    generator.generate_day(user, stays, 40, i % 25, i % 13, rng, counter);
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(counter.forwarded, 0u);
  EXPECT_GT(counter.dropped, 0u);
}

}  // namespace
}  // namespace cellscope
