// Important places.
//
// The paper filters each user's footprint to their top-20 cell towers and
// notes that people have between 3 and 6 (rarely more than 8) important
// places [17, 20]. The synthetic mobility model works the other way around:
// it *gives* each subscriber a small set of important places — home,
// workplace/campus, errand spots, leisure spots, an occasional getaway and a
// potential relocation refuge — and daily routines then visit subsets of
// them. Places carry real coordinates inside their postcode district so the
// radio layer can pin each one to a serving cell.
#pragma once

#include <cstdint>
#include <vector>

#include "common/geodesy.h"
#include "common/ids.h"
#include "common/rng.h"
#include "geo/uk_model.h"
#include "population/subscriber.h"

namespace cellscope::mobility {

enum class PlaceKind : std::uint8_t {
  kHome = 0,
  kWork,     // workplace or school/campus
  kErrand,   // supermarket, pharmacy... (stays allowed in lockdown)
  kLeisure,  // bar, gym, restaurant, park...
  kGetaway,  // weekend-trip destination in another county
  kRefuge,   // second home / family home used for temporary relocation
};

struct Place {
  PlaceKind kind = PlaceKind::kHome;
  PostcodeDistrictId district;
  CountyId county;
  LatLon location;
  // Relative propensity to pick this place among alternatives of its kind.
  double weight = 1.0;
};

// One subscriber's place set. Index 0 is always home; work (if any) is
// index kWorkIndex. The simulator resolves each entry to a serving cell once
// and the trajectory generator addresses places by local index.
struct UserPlaces {
  static constexpr std::uint8_t kHomeIndex = 0;

  std::vector<Place> places;
  std::uint8_t work_index = kNone;
  std::uint8_t getaway_index = kNone;
  std::uint8_t refuge_index = kNone;
  std::vector<std::uint8_t> errand_indices;
  std::vector<std::uint8_t> leisure_indices;

  static constexpr std::uint8_t kNone = 0xff;
  // PlacesBuilder gives every user 1 to this many leisure places.
  static constexpr int kMaxLeisurePlaces = 4;

  [[nodiscard]] bool has_work() const { return work_index != kNone; }
  [[nodiscard]] bool has_getaway() const { return getaway_index != kNone; }
  [[nodiscard]] bool has_refuge() const { return refuge_index != kNone; }
  [[nodiscard]] std::size_t size() const { return places.size(); }
};

class PlacesBuilder {
 public:
  explicit PlacesBuilder(const geo::UkGeography& geography);

  // Deterministic per user: draws come from a per-user RNG fork.
  [[nodiscard]] UserPlaces build(const population::Subscriber& user,
                                 Rng& user_rng) const;

  // Uniform point inside a district's disc.
  [[nodiscard]] static LatLon sample_point_in(const geo::DistrictInfo& district,
                                              Rng& rng);

 private:
  // Picks a leisure/errand district near an anchor district, preferring
  // high-visitor-weight districts; scale_km widens with the cluster's
  // range factor.
  [[nodiscard]] PostcodeDistrictId sample_nearby_district(
      PostcodeDistrictId anchor, double scale_km, bool by_visitors,
      Rng& rng) const;

  const geo::UkGeography& geography_;
  // Getaway-county sampler (counties with getaway_attraction > 0).
  std::vector<CountyId> getaway_counties_;
  DiscreteSampler getaway_sampler_;
  // For each county, the districts with the most leisure pull (precomputed).
  std::vector<std::vector<std::uint32_t>> county_leisure_districts_;
};

}  // namespace cellscope::mobility
