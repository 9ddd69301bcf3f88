// Daily trajectory generation.
//
// Turns (subscriber, places, policy, date) into the day's sequence of stays
// at important places, at one-hour granularity. These stays are what the
// cellular probes "observe": the simulator maps each stay to a serving cell
// and produces signaling, traffic and mobility statistics from it.
//
// Behavioural structure (per archetype, modulated by PolicyTimeline):
//  * office/key workers commute on weekdays; office workers switch to WFH
//    once advised (if capable) and stop commuting entirely in lockdown
//    (key workers keep going — the essential-mobility floor);
//  * students attend campus until school closures;
//  * evenings/weekends hold errand and leisure visits whose probability
//    shrinks with the policy's mobility suppression;
//  * weekends can hold whole-day getaway trips to another county, with the
//    pre-lockdown rush (21-22 March) and the weeks-18/19 London relaxation
//    the paper reports in Fig 7;
//  * relocated users live at their refuge place; departed users are silent.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/simtime.h"
#include "geo/uk_model.h"
#include "mobility/place.h"
#include "mobility/policy.h"
#include "population/subscriber.h"

namespace cellscope::mobility {

// One contiguous stay at a place, hours [start_hour, end_hour) of one day.
struct Stay {
  std::uint8_t place = 0;  // index into UserPlaces::places
  std::uint8_t start_hour = 0;
  std::uint8_t end_hour = 24;
};

struct DayPlan {
  std::vector<Stay> stays;  // ordered, disjoint, covering [0, 24)

  [[nodiscard]] bool empty() const { return stays.empty(); }
};

// Evolving per-user state the policy timeline acts on.
struct UserState {
  bool departed = false;           // left the network (abroad etc.)
  bool relocated = false;          // living at the refuge place
  bool wfh_active = false;         // switched to working from home
  bool relocation_decided = false; // relocation roll already made
};

// Tunable behaviour parameters; defaults reproduce the paper's aggregate
// mobility shapes at the default scenario scale.
struct BehaviorParams {
  double weekday_evening_leisure = 0.50;
  double weekend_leisure = 0.55;
  double errand_probability = 0.55;
  // Essential-errand probability floor under full lockdown.
  double lockdown_errand = 0.55;
  // Daily-exercise outing probability under lockdown (1h near home).
  double lockdown_outing = 0.75;
  // Weekend getaway-trip base probabilities.
  double getaway_second_home = 0.18;
  double getaway_london = 0.05;
  double getaway_other = 0.02;
  // Multiplier applied on the 21-22 March pre-lockdown rush weekend.
  double rush_multiplier = 4.0;
  // Probability a WFH-capable office worker actually switches after advice.
  double wfh_adoption = 0.90;
};

class TrajectoryGenerator {
 public:
  TrajectoryGenerator(const geo::UkGeography& geography,
                      const PolicyTimeline& policy,
                      const BehaviorParams& params = {});

  // Generates the user's plan for `day` into `plan`, replacing its stays
  // and keeping their capacity, and updates sticky state (WFH).
  // Relocation/departure decisions are owned by RelocationModel and only
  // read here. Draws come from `rng` (callers fork a per-user-day stream).
  void plan_day(const population::Subscriber& user, const UserPlaces& places,
                UserState& state, SimDay day, Rng& rng, DayPlan& plan) const;
  [[nodiscard]] DayPlan plan_day(const population::Subscriber& user,
                                 const UserPlaces& places, UserState& state,
                                 SimDay day, Rng& rng) const {
    DayPlan plan;
    plan_day(user, places, state, day, rng, plan);
    return plan;
  }

  [[nodiscard]] const BehaviorParams& params() const { return params_; }

 private:
  const geo::UkGeography& geography_;
  const PolicyTimeline& policy_;
  BehaviorParams params_;
};

// Helper shared with tests: compresses a 24-slot place array into
// `stays`, replacing their contents.
void compress_slots(const std::array<std::uint8_t, kHoursPerDay>& slots,
                    std::vector<Stay>& stays);

}  // namespace cellscope::mobility
