#include "mobility/trajectory.h"

#include <algorithm>
#include <stdexcept>

namespace cellscope::mobility {

using population::Archetype;

TrajectoryGenerator::TrajectoryGenerator(const geo::UkGeography& geography,
                                         const PolicyTimeline& policy,
                                         const BehaviorParams& params)
    : geography_(geography), policy_(policy), params_(params) {}

void compress_slots(const std::array<std::uint8_t, kHoursPerDay>& slots,
                    std::vector<Stay>& stays) {
  stays.clear();
  int start = 0;
  for (int h = 1; h <= kHoursPerDay; ++h) {
    if (h == kHoursPerDay || slots[h] != slots[start]) {
      stays.push_back({slots[start], static_cast<std::uint8_t>(start),
                       static_cast<std::uint8_t>(h)});
      start = h;
    }
  }
}

void TrajectoryGenerator::plan_day(const population::Subscriber& user,
                                   const UserPlaces& places, UserState& state,
                                   SimDay day, Rng& rng, DayPlan& plan) const {
  // A day holds at most one stay per hour: reserve that once, so a reused
  // plan stops allocating after its first day.
  plan.stays.clear();
  plan.stays.reserve(kHoursPerDay);
  if (state.departed) return;  // silent: no network presence at all

  std::array<std::uint8_t, kHoursPerDay> slots;

  // Relocated users live at the refuge; their day is a quiet WFH-like
  // routine in the destination county (visible to Fig 7 as presence there).
  if (state.relocated && places.has_refuge()) {
    slots.fill(places.refuge_index);
    if (places.has_getaway() &&
        places.places[places.getaway_index].county ==
            places.places[places.refuge_index].county &&
        rng.chance(0.20)) {
      slots[14] = slots[15] = places.getaway_index;
    }
    compress_slots(slots, plan.stays);
    return;
  }

  slots.fill(UserPlaces::kHomeIndex);

  const bool weekend = is_weekend(day);
  const double suppression =
      policy_.mobility_suppression(day, user.home_region);
  const bool venues = policy_.venues_open(day);
  const bool lockdown = policy_.phase(day) == PolicyPhase::kLockdown;
  // Venue closures keep a residue of outdoor leisure (parks, walks).
  const double venue_factor = venues ? 1.0 : 0.35;
  const geo::OacTraits& traits = geo::oac_traits(user.home_cluster);

  // --- Sticky WFH adoption once the government advice lands. ---
  if (!state.wfh_active && policy_.wfh_advised(day) && user.wfh_capable &&
      user.archetype == Archetype::kOfficeWorker &&
      rng.chance(params_.wfh_adoption)) {
    state.wfh_active = true;
  }

  // --- Work / school block. ---
  if (!weekend && places.has_work()) {
    bool commutes = false;
    switch (user.archetype) {
      case Archetype::kKeyWorker:
        commutes = true;  // essential throughout
        break;
      case Archetype::kOfficeWorker:
        // WFH adopters stay home; in lockdown every office closes (the
        // non-WFH-capable are furloughed rather than commuting).
        commutes = !state.wfh_active && !lockdown;
        break;
      case Archetype::kStudent:
        commutes = policy_.schools_open(day);
        break;
      default:
        break;
    }
    if (commutes) {
      const int start = 9 + static_cast<int>(rng.uniform_index(2)) - 1;
      const int hours = user.archetype == Archetype::kStudent ? 6 : 8;
      for (int h = start; h < std::min(start + hours, 20); ++h)
        slots[h] = places.work_index;
      // Lunch out near the office while venues are open.
      if (venues && !places.leisure_indices.empty() &&
          rng.chance(0.35 * traits.variety_factor))
        slots[std::min(start + 4, 22)] = places.leisure_indices.front();
    }
  }

  const auto pick_leisure = [&]() -> std::uint8_t {
    if (places.leisure_indices.empty()) return UserPlaces::kHomeIndex;
    // Zipf-ish: weights were assigned decreasing at build time.
    std::array<double, UserPlaces::kMaxLeisurePlaces> w;
    const std::size_t n = places.leisure_indices.size();
    if (n > w.size())
      throw std::length_error("plan_day: more leisure places than built");
    for (std::size_t k = 0; k < n; ++k)
      w[k] = places.places[places.leisure_indices[k]].weight;
    return places.leisure_indices[rng.categorical({w.data(), n})];
  };
  const auto pick_errand = [&]() -> std::uint8_t {
    if (places.errand_indices.empty()) return UserPlaces::kHomeIndex;
    return places.errand_indices[rng.uniform_index(
        places.errand_indices.size())];
  };

  // --- Whole-day getaway trips (weekends). ---
  if (weekend && places.has_getaway()) {
    double p = params_.getaway_other;
    if (user.second_home) {
      p = params_.getaway_second_home;
    } else if (user.home_region == geo::Region::kInnerLondon ||
               user.home_region == geo::Region::kOuterLondon) {
      p = params_.getaway_london;
    }
    p *= (1.0 - suppression) * (1.0 - suppression);
    if (policy_.pre_lockdown_rush(day)) p *= params_.rush_multiplier;
    if (rng.chance(p)) {
      for (int h = 9; h < 20; ++h) slots[h] = places.getaway_index;
      compress_slots(slots, plan.stays);
      return;
    }
  }

  // Residual-mobility factor under lockdown: essential trips track how
  // strictly people comply, so the weeks-18/19 regional relaxation is
  // visible in errand/outing frequency too.
  const double residual = std::clamp(0.5 + 2.0 * (1.0 - suppression), 0.0, 1.2);

  // --- Errands. ---
  {
    // Essential trips are unavoidable where shops are far (rural) and
    // easily substituted where they are next door (central London).
    const double essential_need = 0.55 + 0.45 * traits.range_factor;
    const double p =
        lockdown ? params_.lockdown_errand * residual * essential_need
                 : params_.errand_probability * (1.0 - 0.4 * suppression);
    if (rng.chance(p)) {
      const int h = weekend ? 10 + static_cast<int>(rng.uniform_index(6))
                            : 16 + static_cast<int>(rng.uniform_index(4));
      const int len = 1 + static_cast<int>(rng.uniform_index(2));
      const auto place = pick_errand();
      for (int hh = h; hh < std::min(h + len, 23); ++hh)
        if (slots[hh] == UserPlaces::kHomeIndex) slots[hh] = place;
    }
  }

  // --- Leisure. ---
  if (weekend) {
    for (const int window_start : {11, 15}) {
      const double p = params_.weekend_leisure * traits.variety_factor *
                       (1.0 - suppression) * venue_factor;
      if (rng.chance(p)) {
        const auto place = pick_leisure();
        const int len = 2 + static_cast<int>(rng.uniform_index(2));
        for (int h = window_start; h < window_start + len; ++h)
          if (slots[h] == UserPlaces::kHomeIndex) slots[h] = place;
      }
    }
  } else {
    const double p = params_.weekday_evening_leisure * traits.variety_factor *
                     (1.0 - suppression) * venue_factor;
    if (rng.chance(p)) {
      const auto place = pick_leisure();
      for (int h = 19; h < 21; ++h)
        if (slots[h] == UserPlaces::kHomeIndex) slots[h] = place;
    }
  }

  // --- Lockdown daily outing (exercise near home). ---
  // Outing propensity also scales with the cluster's visitation variety:
  // central-London residents keep making many short, scattered trips —
  // high-variety users may go out twice, which is what keeps their entropy
  // from collapsing as hard as their gyration (Section 3.3).
  if (lockdown) {
    const int outings = traits.variety_factor >= 1.15 ? 2 : 1;
    for (int o = 0; o < outings; ++o) {
      const double p = params_.lockdown_outing * residual *
                       traits.variety_factor * (o == 0 ? 1.0 : 0.5);
      if (!rng.chance(std::min(0.95, p))) continue;
      const int h = 8 + static_cast<int>(rng.uniform_index(10));
      const int len = 1 + static_cast<int>(rng.uniform_index(2));
      // Mostly the errand spots (supermarket, pharmacy, local park);
      // occasionally a leisure spot, but only one in the user's own
      // district — venues elsewhere are closed, so the walk stays local.
      std::uint8_t place = UserPlaces::kNone;
      if (!rng.chance(0.8)) {
        for (const auto idx : places.leisure_indices) {
          if (places.places[idx].district ==
              places.places[UserPlaces::kHomeIndex].district) {
            place = idx;
            break;
          }
        }
      }
      if (place == UserPlaces::kNone) place = pick_errand();
      for (int hh = h; hh < std::min(h + len, 20); ++hh)
        if (slots[hh] == UserPlaces::kHomeIndex) slots[hh] = place;
    }
  }

  compress_slots(slots, plan.stays);
}

}  // namespace cellscope::mobility
