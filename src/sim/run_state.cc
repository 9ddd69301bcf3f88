#include "sim/run_state.h"

#include <string>
#include <utility>

#include "sim/dataset_codec.h"

namespace cellscope::sim {

RunState::RunState(std::vector<mobility::UserPlaces> places,
                   const analysis::HomeDetectionParams& home_params)
    : user_states(places.size()),
      user_places(std::move(places)),
      home_detector(home_params) {
  base_place_count_.reserve(user_places.size());
  for (const auto& p : user_places)
    base_place_count_.push_back(static_cast<std::uint8_t>(p.size()));
}

std::vector<analysis::HomeRecord> RunState::finalize_homes() {
  homes_finalized = true;
  std::vector<analysis::HomeRecord> homes = home_detector.finalize();
  home_detector = analysis::HomeDetector{home_detector.params()};
  return homes;
}

void RunState::save(BlobWriter& w) const {
  const std::size_t n_users = user_states.size();
  w.u64(n_users);
  for (const mobility::UserState& s : user_states)
    w.u8(static_cast<std::uint8_t>(
        (s.departed ? 1u : 0u) | (s.relocated ? 2u : 0u) |
        (s.wfh_active ? 4u : 0u) | (s.relocation_decided ? 8u : 0u)));
  std::uint64_t appended = 0;
  for (std::size_t i = 0; i < n_users; ++i)
    if (user_places[i].size() > base_place_count_[i]) ++appended;
  w.u64(appended);
  for (std::size_t i = 0; i < n_users; ++i) {
    const mobility::UserPlaces& places = user_places[i];
    if (places.size() <= base_place_count_[i]) continue;
    w.u32(static_cast<std::uint32_t>(i));
    w.u8(places.refuge_index);
    w.u8(static_cast<std::uint8_t>(places.size() - base_place_count_[i]));
    for (std::size_t p = base_place_count_[i]; p < places.size(); ++p) {
      const mobility::Place& place = places.places[p];
      w.u8(static_cast<std::uint8_t>(place.kind));
      w.u32(place.district.value());
      w.u32(place.county.value());
      w.f64(place.location.lat_deg);
      w.f64(place.location.lon_deg);
      w.f64(place.weight);
    }
  }
  w.u8(homes_finalized ? 1 : 0);
  if (!homes_finalized) {
    // Mid-warm-up the detector's night accumulators are live state. Once
    // finalized they are spent; the homes section carries the result.
    const auto saved = home_detector.save_state();
    w.u64(saved.size());
    for (const auto& u : saved) {
      w.u32(u.user);
      w.u32(u.nights);
      w.i64(u.last_night_day);
      w.u64(u.sites.size());
      for (const auto& s : u.sites) {
        w.u32(s.site);
        w.f64(s.night_hours);
        w.u32(s.district);
        w.u32(s.county);
      }
    }
  }
  w.f64(week9_busy_hour_minutes);
  w.u8(interconnect_calibrated ? 1 : 0);
  w.f64(lte_hours);
  w.f64(legacy_hours);
}

void RunState::restore(BlobReader& r, const SubstrateBounds& bounds) {
  // Every counted element takes at least one byte: a larger count is
  // damage, refused before it sizes an allocation.
  const auto count = [&r] {
    const std::uint64_t n = r.u64();
    if (n > r.remaining())
      throw BlobError{"checkpoint record: count beyond the record"};
    return static_cast<std::size_t>(n);
  };
  // A substrate id read back, refused unless below `size`.
  const auto id = [&r](std::size_t size, const char* what) {
    const std::uint32_t value = r.u32();
    if (value >= size)
      throw BlobError{std::string{"checkpoint record: "} + what +
                      " out of range"};
    return value;
  };
  const std::size_t n_users = user_states.size();
  if (r.u64() != n_users)
    throw BlobError{"checkpoint record: user count mismatch"};
  for (mobility::UserState& s : user_states) {
    const std::uint8_t flags = r.u8();
    s.departed = (flags & 1u) != 0;
    s.relocated = (flags & 2u) != 0;
    s.wfh_active = (flags & 4u) != 0;
    s.relocation_decided = (flags & 8u) != 0;
  }
  const std::uint64_t appended_users = r.u64();
  for (std::uint64_t k = 0; k < appended_users; ++k) {
    const std::uint32_t user = r.u32();
    if (user >= n_users)
      throw BlobError{"checkpoint record: appended-place user out of range"};
    // Replaces what an earlier record of the log appended.
    mobility::UserPlaces& places = user_places[user];
    places.places.resize(base_place_count_[user]);
    const std::uint8_t refuge_index = r.u8();
    const std::uint8_t n_extra = r.u8();
    for (std::uint8_t p = 0; p < n_extra; ++p) {
      mobility::Place place;
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(mobility::PlaceKind::kRefuge))
        throw BlobError{"checkpoint record: unknown place kind"};
      place.kind = static_cast<mobility::PlaceKind>(kind);
      place.district =
          PostcodeDistrictId{id(bounds.districts, "place district")};
      place.county = CountyId{id(bounds.counties, "place county")};
      place.location.lat_deg = r.f64();
      place.location.lon_deg = r.f64();
      place.weight = r.f64();
      places.places.push_back(place);
    }
    if (refuge_index != mobility::UserPlaces::kNone &&
        refuge_index >= places.size())
      throw BlobError{"checkpoint record: refuge index out of range"};
    places.refuge_index = refuge_index;
  }
  homes_finalized = r.u8() != 0;
  if (!homes_finalized) {
    std::vector<analysis::HomeDetector::SavedUserState> saved(count());
    for (auto& u : saved) {
      u.user = r.u32();
      if (u.user >= n_users)
        throw BlobError{"checkpoint record: detector user out of range"};
      u.nights = r.u32();
      u.last_night_day = static_cast<SimDay>(r.i64());
      u.sites.resize(count());
      for (auto& s : u.sites) {
        s.site = id(bounds.sites, "detector site");
        s.night_hours = r.f64();
        s.district = id(bounds.districts, "detector district");
        s.county = id(bounds.counties, "detector county");
      }
    }
    home_detector.restore_state(saved);
  }
  week9_busy_hour_minutes = r.f64();
  interconnect_calibrated = r.u8() != 0;
  lte_hours = r.f64();
  legacy_hours = r.f64();
}

std::vector<std::uint8_t> encode_record(SimDay day, const RunState& state,
                                        const Dataset& ds, bool with_homes) {
  BlobWriter w;
  w.u64(kRunStateVersion);
  w.i64(day);
  state.save(w);
  encode_sections(ds, day, with_homes, w);
  return w.take();
}

SimDay replay_log(std::span<const std::uint8_t> log, SimDay first_day,
                  RunState& state, Dataset& ds) {
  BlobReader r{log};
  const SubstrateBounds bounds{ds.geography->districts().size(),
                               ds.geography->counties().size(),
                               ds.topology->sites().size()};
  DatasetDecoder decoder{ds};
  SimDay day = first_day - 1;
  while (!r.done()) {
    if (r.u64() != kRunStateVersion)
      throw BlobError{"checkpoint record: run-state version changed mid-log"};
    if (r.i64() != ++day)
      throw BlobError{"checkpoint record: days out of order"};
    state.restore(r, bounds);
    decode_sections(decoder, r);
  }
  return day;
}

}  // namespace cellscope::sim
