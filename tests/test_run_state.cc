// RunState (sim/run_state.h): the run-local half of a checkpoint record.
//
//   * save/restore round-trips every field bit for bit: the user flags, the
//     appended refuge places, the home detector's warm-up accumulators, the
//     interconnect calibration and the RAT-hour totals.
//   * A restore replaces the state, so replaying a log restores each
//     record in turn and ends exactly at the last one.
//   * A record for another population, or with a user, refuge index, place
//     kind, count, district, county or site out of range, is refused with
//     BlobError.
//   * finalize_homes() returns the detector's homes and leaves it holding
//     no accumulator.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/blob.h"
#include "sim/run_state.h"

namespace cellscope::sim {
namespace {

constexpr std::size_t kUsers = 4;
constexpr SubstrateBounds kBounds{.districts = 8, .counties = 4, .sites = 16};

// User i has 1 + i % 2 generated places.
RunState fresh() {
  std::vector<mobility::UserPlaces> places(kUsers);
  for (std::size_t i = 0; i < kUsers; ++i) places[i].places.resize(1 + i % 2);
  analysis::HomeDetectionParams params;
  params.first_day = 0;
  params.end_day = 21;
  return RunState{std::move(places), params};
}

std::vector<std::uint8_t> saved(const RunState& state) {
  BlobWriter w;
  state.save(w);
  return w.take();
}

void restore(RunState& state, const std::vector<std::uint8_t>& bytes) {
  BlobReader r{bytes};
  state.restore(r, kBounds);
  EXPECT_TRUE(r.done());
}

// Mid-warm-up: every field off its default.
RunState evolved() {
  RunState s = fresh();
  s.user_states[1].departed = true;
  s.user_states[2].relocated = true;
  s.user_states[2].relocation_decided = true;
  s.user_states[3].wfh_active = true;
  mobility::Place refuge;
  refuge.kind = mobility::PlaceKind::kRefuge;
  refuge.district = PostcodeDistrictId{7};
  refuge.county = CountyId{3};
  refuge.location = {51.5072, -0.1276};
  refuge.weight = 0.1;
  s.user_places[2].places.push_back(refuge);
  s.user_places[2].refuge_index =
      static_cast<std::uint8_t>(s.user_places[2].size() - 1);
  for (SimDay day = 0; day < 3; ++day) {
    telemetry::UserDayObservation night;
    night.user = UserId{3};
    night.day = day;
    night.stays.push_back({});
    night.stays.back().site = SiteId{11 + static_cast<std::uint32_t>(day % 2)};
    night.stays.back().district = PostcodeDistrictId{5};
    night.stays.back().county = CountyId{2};
    night.stays.back().night_hours = 6.5f / static_cast<float>(day + 1);
    s.home_detector.observe(night);
  }
  s.week9_busy_hour_minutes = 1234.0 / 7.0;
  s.interconnect_calibrated = true;
  s.lte_hours = 1e6 + 0.1;
  s.legacy_hours = 3.0 / 7.0;
  return s;
}

TEST(RunState, RoundTripIsBitIdentical) {
  const RunState original = evolved();
  const std::vector<std::uint8_t> bytes = saved(original);
  RunState restored = fresh();
  restore(restored, bytes);
  EXPECT_EQ(saved(restored), bytes);

  for (std::size_t i = 0; i < kUsers; ++i) {
    const mobility::UserState& a = original.user_states[i];
    const mobility::UserState& b = restored.user_states[i];
    EXPECT_EQ(a.departed, b.departed);
    EXPECT_EQ(a.relocated, b.relocated);
    EXPECT_EQ(a.wfh_active, b.wfh_active);
    EXPECT_EQ(a.relocation_decided, b.relocation_decided);
    EXPECT_EQ(original.user_places[i].size(), restored.user_places[i].size());
    EXPECT_EQ(original.user_places[i].refuge_index,
              restored.user_places[i].refuge_index);
  }
  const mobility::Place& refuge = restored.user_places[2].places.back();
  EXPECT_EQ(refuge.kind, mobility::PlaceKind::kRefuge);
  EXPECT_EQ(refuge.district, PostcodeDistrictId{7});
  EXPECT_EQ(refuge.county, CountyId{3});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(refuge.location.lat_deg),
            std::bit_cast<std::uint64_t>(51.5072));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(refuge.weight),
            std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(restored.home_detector.save_state().size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.week9_busy_hour_minutes),
            std::bit_cast<std::uint64_t>(original.week9_busy_hour_minutes));
  EXPECT_TRUE(restored.interconnect_calibrated);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.lte_hours),
            std::bit_cast<std::uint64_t>(original.lte_hours));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.legacy_hours),
            std::bit_cast<std::uint64_t>(original.legacy_hours));
}

TEST(RunState, RestoreReplacesEarlierRecords) {
  const std::vector<std::uint8_t> before = saved(fresh());
  const std::vector<std::uint8_t> after = saved(evolved());
  RunState state = fresh();
  // A log replays every record in turn; the appended refuge is not doubled.
  for (const auto* record : {&before, &after, &after}) restore(state, *record);
  EXPECT_EQ(saved(state), after);
  EXPECT_EQ(state.user_places[2].size(), 2u);

  // Finalized homes: the detector's accumulators are no longer saved.
  RunState finalized = evolved();
  finalized.homes_finalized = true;
  restore(state, saved(finalized));
  EXPECT_TRUE(state.homes_finalized);
  EXPECT_EQ(saved(state), saved(finalized));
}

// A record for kUsers users appending one place to user 2 (whose one
// generated place makes the appended place index 1), with one detector
// user at one site; each field can be set out of range.
struct Craft {
  std::uint64_t users = kUsers;
  std::uint32_t appended_user = 2;
  std::uint8_t refuge_index = 1;
  std::uint8_t kind = static_cast<std::uint8_t>(mobility::PlaceKind::kRefuge);
  std::uint32_t place_district = kBounds.districts - 1;
  std::uint32_t place_county = kBounds.counties - 1;
  std::uint64_t detector_users = 1;
  std::uint32_t detector_user = 3;
  std::uint64_t detector_sites = 1;
  std::uint32_t detector_site = kBounds.sites - 1;
  std::uint32_t detector_district = kBounds.districts - 1;
  std::uint32_t detector_county = kBounds.counties - 1;
};

std::vector<std::uint8_t> crafted(const Craft& c) {
  BlobWriter w;
  w.u64(c.users);
  for (std::size_t i = 0; i < kUsers; ++i) w.u8(0);
  w.u64(1);
  w.u32(c.appended_user);
  w.u8(c.refuge_index);
  w.u8(1);
  w.u8(c.kind);
  w.u32(c.place_district);
  w.u32(c.place_county);
  w.f64(0.0);
  w.f64(0.0);
  w.f64(1.0);
  w.u8(0);  // homes not finalized: detector state follows
  w.u64(c.detector_users);
  w.u32(c.detector_user);
  w.u32(1);
  w.i64(0);
  w.u64(c.detector_sites);
  w.u32(c.detector_site);
  w.f64(1.0);
  w.u32(c.detector_district);
  w.u32(c.detector_county);
  w.f64(0.0);
  w.u8(0);
  w.f64(0.0);
  w.f64(0.0);
  return w.take();
}

TEST(RunState, RefusesOutOfRangeRecords) {
  {
    RunState state = fresh();
    ASSERT_NO_THROW(restore(state, crafted({})));
    EXPECT_EQ(state.user_places[2].size(), 2u);
    EXPECT_EQ(state.home_detector.save_state().size(), 1u);
  }
  const auto refused = [](const char* what, const Craft& craft) {
    SCOPED_TRACE(what);
    RunState state = fresh();
    const std::vector<std::uint8_t> bytes = crafted(craft);
    BlobReader r{bytes};
    EXPECT_THROW(state.restore(r, kBounds), BlobError);
  };
  refused("another population", {.users = kUsers + 1});
  refused("appended-place user beyond the population",
          {.appended_user = kUsers});
  refused("refuge index beyond the user's places", {.refuge_index = 2});
  refused("unknown place kind",
          {.kind = static_cast<std::uint8_t>(mobility::PlaceKind::kRefuge) + 1});
  refused("detector user beyond the population", {.detector_user = kUsers});
  refused("detector user count beyond the record",
          {.detector_users = std::uint64_t{1} << 40});
  refused("detector site count beyond the record",
          {.detector_sites = std::uint64_t{1} << 40});
  // Substrate ids, each one past its range: the simulator would index the
  // geography or topology with them.
  refused("appended-place district beyond the geography",
          {.place_district = kBounds.districts});
  refused("appended-place county beyond the geography",
          {.place_county = kBounds.counties});
  refused("detector site beyond the topology",
          {.detector_site = kBounds.sites});
  refused("detector district beyond the geography",
          {.detector_district = kBounds.districts});
  refused("detector county beyond the geography",
          {.detector_county = kBounds.counties});
}

TEST(RunState, FinalizeHomesReleasesTheDetector) {
  RunState state = evolved();
  // User 1 sleeps at site 9 for 14 nights: one home; user 3 stays a
  // candidate below the threshold.
  for (SimDay day = 0; day < 14; ++day) {
    telemetry::UserDayObservation night;
    night.user = UserId{1};
    night.day = day;
    night.stays.push_back({});
    night.stays.back().site = SiteId{9};
    night.stays.back().district = PostcodeDistrictId{6};
    night.stays.back().county = CountyId{1};
    night.stays.back().night_hours = 7.0f;
    state.home_detector.observe(night);
  }
  ASSERT_EQ(state.home_detector.stats().candidates, 2u);
  const std::vector<analysis::HomeRecord> homes = state.finalize_homes();
  EXPECT_TRUE(state.homes_finalized);
  ASSERT_EQ(homes.size(), 1u);
  EXPECT_EQ(homes[0].user, UserId{1});
  EXPECT_EQ(homes[0].home_site, SiteId{9});
  EXPECT_EQ(homes[0].nights_observed, 14);

  const analysis::HomeDetectionStats stats = state.home_detector.stats();
  EXPECT_EQ(stats.candidates, 0u);
  EXPECT_EQ(stats.resolved, 0u);
  EXPECT_EQ(stats.below_threshold, 0u);
  EXPECT_TRUE(state.home_detector.save_state().empty());
  EXPECT_TRUE(state.home_detector.finalize().empty());
  EXPECT_EQ(state.home_detector.params().end_day, 21);
}

}  // namespace
}  // namespace cellscope::sim
