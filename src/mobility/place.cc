#include "mobility/place.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace cellscope::mobility {

namespace {
// Neighbourhood samplers: "local" places sit within walking/short-drive
// range, "wide" places are the cross-town destinations that give urban users
// their higher entropy.
constexpr double kLocalMaxKm = 6.0;
constexpr double kLocalDecayKm = 3.0;
constexpr double kWideMaxKm = 30.0;
constexpr double kWideDecayKm = 10.0;
}  // namespace

PlacesBuilder::PlacesBuilder(const geo::UkGeography& geography)
    : geography_(geography) {
  std::vector<double> getaway_weights;
  for (const auto& county : geography.counties()) {
    if (county.getaway_attraction <= 0.0) continue;
    getaway_counties_.push_back(county.id);
    getaway_weights.push_back(county.getaway_attraction);
  }
  getaway_sampler_ = DiscreteSampler{getaway_weights};

  county_leisure_districts_.resize(geography.counties().size());
  for (const auto& district : geography.districts()) {
    auto& list = county_leisure_districts_[district.county.value()];
    list.push_back(district.id.value());
  }
}

LatLon PlacesBuilder::sample_point_in(const geo::DistrictInfo& district,
                                      Rng& rng) {
  const double r = district.radius_km * std::sqrt(rng.uniform());
  const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
  return offset_km(district.center, r * std::cos(angle), r * std::sin(angle));
}

PostcodeDistrictId PlacesBuilder::sample_nearby_district(
    PostcodeDistrictId anchor, double scale_km, bool by_visitors,
    Rng& rng) const {
  const auto& anchor_info = geography_.district(anchor);
  std::vector<double> weights;
  std::vector<std::uint32_t> candidates;
  const double max_km = scale_km > kLocalMaxKm ? kWideMaxKm : kLocalMaxKm;
  for (const auto& d : geography_.districts()) {
    const double dist = distance_km(anchor_info.center, d.center);
    if (dist > max_km) continue;
    const double pull = by_visitors ? std::max(d.visitor_weight, 0.05) : 1.0;
    candidates.push_back(d.id.value());
    weights.push_back(pull * std::exp(-dist / scale_km));
  }
  if (candidates.empty()) return anchor;
  return PostcodeDistrictId{
      candidates[rng.categorical(std::span<const double>(weights))]};
}

UserPlaces PlacesBuilder::build(const population::Subscriber& user,
                                Rng& user_rng) const {
  UserPlaces out;
  const geo::OacTraits& traits = geo::oac_traits(user.home_cluster);

  const auto add_place = [&](PlaceKind kind, PostcodeDistrictId district_id,
                             double weight) -> std::uint8_t {
    const auto& info = geography_.district(district_id);
    Place place;
    place.kind = kind;
    place.district = district_id;
    place.county = info.county;
    place.location = sample_point_in(info, user_rng);
    place.weight = weight;
    out.places.push_back(place);
    return static_cast<std::uint8_t>(out.places.size() - 1);
  };

  // Home first (index 0, required by UserPlaces).
  add_place(PlaceKind::kHome, user.home_district, 1.0);

  // Workplace / campus.
  if (user.work_district.valid())
    out.work_index = add_place(PlaceKind::kWork, user.work_district, 1.0);

  // Two errand places close to home (open even in lockdown). Reach scales
  // with the cluster's range: rural residents drive to the market town,
  // cosmopolitans walk to the corner shop.
  for (int i = 0; i < 2; ++i) {
    const auto district = sample_nearby_district(
        user.home_district,
        kLocalDecayKm * std::pow(traits.range_factor, 1.5),
        /*by_visitors=*/false, user_rng);
    out.errand_indices.push_back(
        add_place(PlaceKind::kErrand, district, 1.0 / (1.0 + i)));
  }

  // Leisure places: count and reach scale with the home cluster's variety
  // and range traits (Cosmopolitans: many, scattered; Rural: fewer, farther
  // apart but fixed).
  const int leisure_count = std::clamp(
      static_cast<int>(std::lround(
          2.0 * traits.variety_factor + user_rng.uniform(-0.5, 1.5))),
      1, UserPlaces::kMaxLeisurePlaces);
  for (int i = 0; i < leisure_count; ++i) {
    // Some leisure anchors near work (after-office places), most near home.
    const PostcodeDistrictId anchor =
        (out.has_work() && user_rng.chance(0.35))
            ? out.places[out.work_index].district
            : user.home_district;
    const double scale =
        (user_rng.chance(0.3 * traits.variety_factor) ? kWideDecayKm
                                                      : kLocalDecayKm) *
        traits.range_factor;
    const auto district = sample_nearby_district(anchor, scale,
                                                 /*by_visitors=*/true,
                                                 user_rng);
    out.leisure_indices.push_back(add_place(
        PlaceKind::kLeisure, district,
        1.0 / std::pow(double(i + 1), 0.8)));  // Zipf-ish popularity
  }

  // Getaway destination (weekend trips): everyone gets one, drawn from the
  // getaway counties; second-home owners anchor it in their second-home
  // county. Rarely visited unless the policy timeline makes it attractive.
  if (!getaway_counties_.empty() && user.native) {
    CountyId county = user.second_home
                          ? user.second_home_county
                          : getaway_counties_[getaway_sampler_.sample(user_rng)];
    const auto& candidates = county_leisure_districts_[county.value()];
    if (!candidates.empty()) {
      const auto district = PostcodeDistrictId{
          candidates[user_rng.uniform_index(candidates.size())]};
      out.getaway_index = add_place(PlaceKind::kGetaway, district, 1.0);
      // The refuge for temporary relocation is the same property for
      // second-home owners; students' refuge (family home) is created by the
      // relocation model only if/when they leave.
      if (user.second_home)
        out.refuge_index = add_place(PlaceKind::kRefuge, district, 1.0);
    }
  }

  return out;
}

}  // namespace cellscope::mobility
