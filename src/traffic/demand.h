// Per-user data traffic demand.
//
// For every (user, hour, place-context) the model produces the cellular
// data demand offered to the serving cell. The central mechanism behind the
// paper's Section 4.1 findings is *context*: at home (and partially at the
// office) traffic offloads to WiFi, so the cellular network only sees a
// residue; away from WiFi the full demand hits the cell. Lockdown moves
// people home, so cellular DL volume falls ~25% even though total Internet
// usage rose — exactly the counterpoint to the residential-ISP surge the
// paper cites.
#pragma once

#include <array>

#include "common/rng.h"
#include "common/simtime.h"
#include "mobility/place.h"
#include "mobility/policy.h"
#include "population/subscriber.h"
#include "traffic/apps.h"

namespace cellscope::traffic {

// Where the user is, WiFi-wise.
enum class WifiContext : std::uint8_t {
  kHomeWifi = 0,   // home / refuge: bulk offload
  kWorkWifi,       // office / campus: partial offload
  kNoWifi,         // errand, leisure, getaway, transit
};

[[nodiscard]] WifiContext wifi_context(mobility::PlaceKind kind);

struct DemandParams {
  // Mean cellular DL demand rate while away from WiFi, MB per *active* hour
  // at diurnal weight 1 (before noise).
  double away_dl_mb_per_hour = 28.0;
  // Fraction of demand remaining on cellular under WiFi coverage. The home
  // residue is for a household with good fixed broadband; it is scaled up
  // by home_residue_multiplier() in areas where fixed-line adoption is low
  // and phones are the primary Internet access (the mechanism behind the
  // paper's N-district and Multicultural-Metropolitans traffic GROWTH
  // during lockdown, Figs 11-12).
  double home_dl_residue = 0.025;
  double home_ul_residue = 0.045;  // messaging/photo upload stays on cellular
  double work_dl_residue = 0.35;
  double work_ul_residue = 0.45;
  // Lognormal noise sigma on hourly demand.
  double noise_sigma = 0.65;
  // Overall usage growth during restrictions (people idle at home use their
  // phones more, WiFi or not).
  double restricted_usage_boost = 1.15;
};

// One (user, hour) demand sample.
struct HourDemand {
  double dl_mb = 0.0;
  double ul_mb = 0.0;
  // Seconds of the hour with data in the DL buffer.
  double active_dl_seconds = 0.0;
  // Application-limited DL rate while active, Mbit/s.
  double app_dl_rate_mbps = 0.0;
};

// What sample_hour derives from the day alone, computed once for the day.
struct DemandDayRates {
  // away_dl_mb_per_hour x diurnal weight x restriction boost, per hour.
  std::array<double, kHoursPerDay> base_dl_mb{};
  double data_multiplier = 1.0;  // policy data_demand_multiplier(day)
  double ul_ratio = 0.0;         // mix_ul_ratio of the day's app mix
  double app_dl_rate_mbps = 0.0; // mix_app_rate_mbps of the day's app mix
};

class DemandModel {
 public:
  DemandModel(const mobility::PolicyTimeline& policy,
              const DemandParams& params = {});

  // `activity_factor` scales gross demand by what the user is doing at the
  // place (errand walks generate far less traffic than a commute or couch).
  [[nodiscard]] HourDemand sample_hour(const population::Subscriber& user,
                                       WifiContext context, SimDay day,
                                       int hour_of_day, Rng& rng,
                                       double activity_factor = 1.0) const;
  // The same sample with the day's constants read from `day_rates(day)`.
  [[nodiscard]] HourDemand sample_hour(const population::Subscriber& user,
                                       WifiContext context,
                                       const DemandDayRates& rates,
                                       int hour_of_day, Rng& rng,
                                       double activity_factor) const;
  [[nodiscard]] DemandDayRates day_rates(SimDay day) const;

  // Mobile-reliance multiplier on the home residues for a home OAC cluster
  // (deprived / young-renter areas have markedly lower fixed-broadband
  // adoption, so "offload to WiFi" barely applies there).
  [[nodiscard]] static double home_residue_multiplier(geo::OacCluster cluster);

  // Demand intensity while at a place of this kind on this day. Under venue
  // closures, out-of-home time is walks and supermarket queues rather than
  // cafe/venue dwell, so the same away-hour generates far less traffic —
  // the mechanism that lets cellular volume fall while out-of-home trips
  // only halve.
  [[nodiscard]] double activity_factor(mobility::PlaceKind kind,
                                       SimDay day) const;

  [[nodiscard]] const DemandParams& params() const { return params_; }

 private:
  const mobility::PolicyTimeline& policy_;
  DemandParams params_;
};

}  // namespace cellscope::traffic
