#include "traffic/demand.h"

#include <algorithm>
#include <cmath>

namespace cellscope::traffic {

WifiContext wifi_context(mobility::PlaceKind kind) {
  switch (kind) {
    case mobility::PlaceKind::kHome:
    case mobility::PlaceKind::kRefuge:
      return WifiContext::kHomeWifi;
    case mobility::PlaceKind::kWork:
      return WifiContext::kWorkWifi;
    case mobility::PlaceKind::kErrand:
    case mobility::PlaceKind::kLeisure:
    case mobility::PlaceKind::kGetaway:
      return WifiContext::kNoWifi;
  }
  return WifiContext::kNoWifi;
}

DemandModel::DemandModel(const mobility::PolicyTimeline& policy,
                         const DemandParams& params)
    : policy_(policy), params_(params) {}

double DemandModel::home_residue_multiplier(geo::OacCluster cluster) {
  switch (cluster) {
    case geo::OacCluster::kEthnicityCentral: return 3.2;
    case geo::OacCluster::kMulticulturalMetropolitans: return 3.2;
    case geo::OacCluster::kConstrainedCityDwellers: return 2.4;
    case geo::OacCluster::kHardPressedLiving: return 2.2;
    case geo::OacCluster::kRuralResidents: return 1.8;  // patchy coverage
    case geo::OacCluster::kUrbanites: return 1.3;
    case geo::OacCluster::kCosmopolitans: return 0.50;  // fibre-served flats
    default: return 1.0;  // Suburbanites: well-served homes
  }
}

double DemandModel::activity_factor(mobility::PlaceKind kind,
                                    SimDay day) const {
  const bool restricted = !policy_.venues_open(day);
  switch (kind) {
    case mobility::PlaceKind::kErrand: return restricted ? 0.28 : 0.60;
    case mobility::PlaceKind::kLeisure: return restricted ? 0.24 : 0.90;
    case mobility::PlaceKind::kGetaway: return restricted ? 0.50 : 0.80;
    default: return 1.0;
  }
}

DemandDayRates DemandModel::day_rates(SimDay day) const {
  const bool restricted = !policy_.venues_open(day);
  const auto mix = app_mix(restricted);
  const double boost = restricted ? params_.restricted_usage_boost : 1.0;
  DemandDayRates rates;
  for (int h = 0; h < kHoursPerDay; ++h)
    rates.base_dl_mb[static_cast<std::size_t>(h)] =
        params_.away_dl_mb_per_hour * diurnal_weight(h, is_weekend(day)) *
        boost;
  rates.data_multiplier = policy_.data_demand_multiplier(day);
  rates.ul_ratio = mix_ul_ratio(mix);
  rates.app_dl_rate_mbps =
      mix_app_rate_mbps(mix, policy_.content_throttling(day));
  return rates;
}

HourDemand DemandModel::sample_hour(const population::Subscriber& user,
                                    WifiContext context, SimDay day,
                                    int hour_of_day, Rng& rng,
                                    double activity_factor) const {
  return sample_hour(user, context, day_rates(day), hour_of_day, rng,
                     activity_factor);
}

HourDemand DemandModel::sample_hour(const population::Subscriber& user,
                                    WifiContext context,
                                    const DemandDayRates& rates,
                                    int hour_of_day, Rng& rng,
                                    double activity_factor) const {
  HourDemand demand;
  if (!user.smartphone) {
    // M2M: short telemetry bursts, UL-leaning, context-independent. Kept
    // brief so meters do not distort the active-seconds-weighted per-cell
    // application rate.
    demand.dl_mb = 0.02;
    demand.ul_mb = 0.08;
    demand.active_dl_seconds = 2.0;
    demand.app_dl_rate_mbps = 0.10;
    return demand;
  }

  double dl_residue = 1.0;
  double ul_residue = 1.0;
  switch (context) {
    case WifiContext::kHomeWifi: {
      const double reliance = home_residue_multiplier(user.home_cluster);
      dl_residue = params_.home_dl_residue * reliance;
      ul_residue = params_.home_ul_residue * reliance;
      break;
    }
    case WifiContext::kWorkWifi:
      dl_residue = params_.work_dl_residue;
      ul_residue = params_.work_ul_residue;
      break;
    case WifiContext::kNoWifi:
      break;
  }

  // Lognormal multiplicative noise with mean 1.
  const double noise = rng.lognormal(
      -0.5 * params_.noise_sigma * params_.noise_sigma, params_.noise_sigma);

  // away x diurnal x boost (the day's base) x noise x activity x data
  // multiplier, multiplied left to right as when each hour computed all six.
  const double gross_dl =
      rates.base_dl_mb[static_cast<std::size_t>(hour_of_day)] * noise *
      activity_factor * rates.data_multiplier;
  demand.dl_mb = gross_dl * dl_residue;
  demand.ul_mb = gross_dl * rates.ul_ratio * ul_residue;

  demand.app_dl_rate_mbps = rates.app_dl_rate_mbps;
  if (demand.app_dl_rate_mbps > 0.0) {
    demand.active_dl_seconds =
        std::min(3600.0, demand.dl_mb * 8.0 / demand.app_dl_rate_mbps);
  }
  return demand;
}

}  // namespace cellscope::traffic
