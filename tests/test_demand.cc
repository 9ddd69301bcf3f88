// Per-user data demand: WiFi offload contexts, activity factors, throttling.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "sim/scenario.h"
#include "traffic/demand.h"

namespace cellscope::traffic {
namespace {

population::Subscriber smartphone_user(geo::OacCluster cluster =
                                           geo::OacCluster::kUrbanites) {
  population::Subscriber user;
  user.id = UserId{1};
  user.native = true;
  user.smartphone = true;
  user.home_cluster = cluster;
  return user;
}

// Average demand over many draws (the model is noisy by design).
double mean_dl(const DemandModel& model, const population::Subscriber& user,
               WifiContext context, SimDay day, int hour, double activity = 1.0) {
  Rng rng{99};
  double total = 0.0;
  constexpr int kN = 3000;
  for (int i = 0; i < kN; ++i)
    total += model.sample_hour(user, context, day, hour, rng, activity).dl_mb;
  return total / kN;
}

TEST(Demand, WifiContextMapping) {
  EXPECT_EQ(wifi_context(mobility::PlaceKind::kHome), WifiContext::kHomeWifi);
  EXPECT_EQ(wifi_context(mobility::PlaceKind::kRefuge),
            WifiContext::kHomeWifi);
  EXPECT_EQ(wifi_context(mobility::PlaceKind::kWork), WifiContext::kWorkWifi);
  EXPECT_EQ(wifi_context(mobility::PlaceKind::kErrand), WifiContext::kNoWifi);
  EXPECT_EQ(wifi_context(mobility::PlaceKind::kLeisure),
            WifiContext::kNoWifi);
  EXPECT_EQ(wifi_context(mobility::PlaceKind::kGetaway),
            WifiContext::kNoWifi);
}

TEST(Demand, OffloadOrdering) {
  mobility::PolicyTimeline policy;
  DemandModel model{policy};
  const auto user = smartphone_user();
  const double home = mean_dl(model, user, WifiContext::kHomeWifi, 10, 20);
  const double work = mean_dl(model, user, WifiContext::kWorkWifi, 10, 20);
  const double away = mean_dl(model, user, WifiContext::kNoWifi, 10, 20);
  EXPECT_LT(home, work);
  EXPECT_LT(work, away);
  EXPECT_GT(home, 0.0);
}

TEST(Demand, HomeResidueMultiplierByCluster) {
  EXPECT_GT(DemandModel::home_residue_multiplier(
                geo::OacCluster::kMulticulturalMetropolitans),
            2.0);
  EXPECT_GT(DemandModel::home_residue_multiplier(
                geo::OacCluster::kEthnicityCentral),
            2.0);
  EXPECT_LE(DemandModel::home_residue_multiplier(
                geo::OacCluster::kCosmopolitans),
            1.0);
  EXPECT_DOUBLE_EQ(DemandModel::home_residue_multiplier(
                       geo::OacCluster::kSuburbanites),
                   1.0);
}

TEST(Demand, MobileRelianceShowsUpAtHome) {
  mobility::PolicyTimeline policy;
  DemandModel model{policy};
  const auto fibre = smartphone_user(geo::OacCluster::kSuburbanites);
  const auto mobile_reliant =
      smartphone_user(geo::OacCluster::kMulticulturalMetropolitans);
  const double fibre_home =
      mean_dl(model, fibre, WifiContext::kHomeWifi, 10, 20);
  const double reliant_home =
      mean_dl(model, mobile_reliant, WifiContext::kHomeWifi, 10, 20);
  EXPECT_GT(reliant_home, 2.0 * fibre_home);
  // Away from home the cluster makes no difference.
  const double fibre_away = mean_dl(model, fibre, WifiContext::kNoWifi, 10, 20);
  const double reliant_away =
      mean_dl(model, mobile_reliant, WifiContext::kNoWifi, 10, 20);
  EXPECT_NEAR(reliant_away / fibre_away, 1.0, 0.1);
}

TEST(Demand, ActivityFactorScalesVolume) {
  mobility::PolicyTimeline policy;
  DemandModel model{policy};
  const auto user = smartphone_user();
  const double full = mean_dl(model, user, WifiContext::kNoWifi, 10, 20, 1.0);
  const double half = mean_dl(model, user, WifiContext::kNoWifi, 10, 20, 0.5);
  EXPECT_NEAR(half / full, 0.5, 0.07);
}

TEST(Demand, ActivityFactorsRespondToRestrictions) {
  mobility::PolicyTimeline policy;
  DemandModel model{policy};
  const SimDay open_day = 10;
  const SimDay closed_day = timeline::kVenueClosures + 5;
  for (const auto kind : {mobility::PlaceKind::kErrand,
                          mobility::PlaceKind::kLeisure,
                          mobility::PlaceKind::kGetaway}) {
    EXPECT_LT(model.activity_factor(kind, closed_day),
              model.activity_factor(kind, open_day));
  }
  EXPECT_DOUBLE_EQ(model.activity_factor(mobility::PlaceKind::kHome, open_day),
                   1.0);
}

TEST(Demand, DiurnalShape) {
  mobility::PolicyTimeline policy;
  DemandModel model{policy};
  const auto user = smartphone_user();
  const double evening = mean_dl(model, user, WifiContext::kNoWifi, 10, 20);
  const double night = mean_dl(model, user, WifiContext::kNoWifi, 10, 3);
  EXPECT_GT(evening, 3.0 * night);
}

TEST(Demand, ActiveSecondsConsistentWithVolumeAndRate) {
  mobility::PolicyTimeline policy;
  DemandModel model{policy};
  const auto user = smartphone_user();
  Rng rng{5};
  for (int i = 0; i < 200; ++i) {
    const auto d = model.sample_hour(user, WifiContext::kNoWifi, 10, 19, rng);
    ASSERT_GT(d.app_dl_rate_mbps, 0.0);
    EXPECT_LE(d.active_dl_seconds, 3600.0);
    if (d.active_dl_seconds < 3600.0) {
      EXPECT_NEAR(d.active_dl_seconds, d.dl_mb * 8.0 / d.app_dl_rate_mbps,
                  1e-6);
    }
  }
}

TEST(Demand, ThrottlingLowersAppRate) {
  mobility::PolicyTimeline policy;
  DemandModel model{policy};
  const auto user = smartphone_user();
  Rng rng{6};
  const auto before = model.sample_hour(user, WifiContext::kNoWifi,
                                        timeline::kVenueClosures - 10, 19, rng);
  const auto after = model.sample_hour(user, WifiContext::kNoWifi,
                                       timeline::kVenueClosures + 10, 19, rng);
  EXPECT_LT(after.app_dl_rate_mbps, before.app_dl_rate_mbps);
}

TEST(Demand, M2mIsATinySymmetricTrickle) {
  mobility::PolicyTimeline policy;
  DemandModel model{policy};
  population::Subscriber meter;
  meter.smartphone = false;
  meter.native = true;
  Rng rng{7};
  const auto d = model.sample_hour(meter, WifiContext::kNoWifi, 10, 12, rng);
  EXPECT_LT(d.dl_mb, 0.1);
  EXPECT_GT(d.ul_mb, d.dl_mb);  // telemetry is UL-leaning
  EXPECT_LT(d.active_dl_seconds, 10.0);
}

TEST(Demand, UplinkIsAFractionOfDownlink) {
  mobility::PolicyTimeline policy;
  DemandModel model{policy};
  const auto user = smartphone_user();
  Rng rng{8};
  double dl = 0.0, ul = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const auto d = model.sample_hour(user, WifiContext::kNoWifi, 10, 19, rng);
    dl += d.dl_mb;
    ul += d.ul_mb;
  }
  EXPECT_GT(ul / dl, 0.03);
  EXPECT_LT(ul / dl, 0.30);
}

TEST(Demand, NewsBumpInWeekTen) {
  mobility::PolicyTimeline policy;
  DemandModel model{policy};
  const auto user = smartphone_user();
  const double wk9 = mean_dl(model, user, WifiContext::kNoWifi,
                             week_start_day(9) + 1, 19);
  const double wk10 = mean_dl(model, user, WifiContext::kNoWifi,
                              week_start_day(10) + 1, 19);
  EXPECT_GT(wk10, wk9 * 1.02);
}

// sample_hour as it computed every day constant on each call: the
// reference the day table must reproduce.
HourDemand per_hour_reference(const mobility::PolicyTimeline& policy,
                              const DemandParams& params,
                              const population::Subscriber& user,
                              WifiContext context, SimDay day,
                              int hour_of_day, Rng& rng,
                              double activity_factor) {
  HourDemand demand;
  if (!user.smartphone) {
    demand.dl_mb = 0.02;
    demand.ul_mb = 0.08;
    demand.active_dl_seconds = 2.0;
    demand.app_dl_rate_mbps = 0.10;
    return demand;
  }
  const bool restricted = !policy.venues_open(day);
  const bool throttled = policy.content_throttling(day);
  const auto mix = app_mix(restricted);
  double dl_residue = 1.0;
  double ul_residue = 1.0;
  if (context == WifiContext::kHomeWifi) {
    const double reliance =
        DemandModel::home_residue_multiplier(user.home_cluster);
    dl_residue = params.home_dl_residue * reliance;
    ul_residue = params.home_ul_residue * reliance;
  } else if (context == WifiContext::kWorkWifi) {
    dl_residue = params.work_dl_residue;
    ul_residue = params.work_ul_residue;
  }
  const double diurnal = diurnal_weight(hour_of_day, is_weekend(day));
  const double boost = restricted ? params.restricted_usage_boost : 1.0;
  const double noise = rng.lognormal(
      -0.5 * params.noise_sigma * params.noise_sigma, params.noise_sigma);
  const double gross_dl = params.away_dl_mb_per_hour * diurnal * boost *
                          noise * activity_factor *
                          policy.data_demand_multiplier(day);
  demand.dl_mb = gross_dl * dl_residue;
  demand.ul_mb = gross_dl * mix_ul_ratio(mix) * ul_residue;
  demand.app_dl_rate_mbps = mix_app_rate_mbps(mix, throttled);
  if (demand.app_dl_rate_mbps > 0.0) {
    demand.active_dl_seconds =
        std::min(3600.0, demand.dl_mb * 8.0 / demand.app_dl_rate_mbps);
  }
  return demand;
}

TEST(DemandProperty, DayTableMatchesThePerHourFormulaBitForBit) {
  const auto bits = [](const HourDemand& d) {
    return std::vector<std::uint64_t>{
        std::bit_cast<std::uint64_t>(d.dl_mb),
        std::bit_cast<std::uint64_t>(d.ul_mb),
        std::bit_cast<std::uint64_t>(d.active_dl_seconds),
        std::bit_cast<std::uint64_t>(d.app_dl_rate_mbps)};
  };
  mobility::PolicyParams no_lockdown;
  no_lockdown.lockdown_enabled = false;
  mobility::PolicyParams early_closure;
  early_closure.closure_day = 30;
  const std::vector<mobility::PolicyParams> policies = {{}, no_lockdown,
                                                        early_closure};
  const std::vector<WifiContext> contexts = {
      WifiContext::kHomeWifi, WifiContext::kWorkWifi, WifiContext::kNoWifi};
  const std::vector<mobility::PlaceKind> kinds = {
      mobility::PlaceKind::kHome, mobility::PlaceKind::kErrand,
      mobility::PlaceKind::kLeisure, mobility::PlaceKind::kGetaway};

  const sim::ScenarioConfig window = sim::default_scenario();
  Rng seeds{2027};
  for (const auto& policy_params : policies) {
    const mobility::PolicyTimeline policy{policy_params};
    const DemandModel model{policy};
    for (SimDay day = window.first_day(); day <= window.last_day(); ++day) {
      const DemandDayRates rates = model.day_rates(day);
      for (int c = 0; c < geo::kOacClusterCount; ++c) {
        auto user = smartphone_user(static_cast<geo::OacCluster>(c));
        user.smartphone = c != 0 || day % 2 == 0;  // M2M on some days
        for (int h = 0; h < kHoursPerDay; ++h) {
          const auto context = contexts[static_cast<std::size_t>(h % 3)];
          const double activity = model.activity_factor(
              kinds[static_cast<std::size_t>(h % 4)], day);
          const std::uint64_t seed = seeds.next();
          Rng reference_rng{seed};
          Rng table_rng{seed};
          const HourDemand expected =
              per_hour_reference(policy, model.params(), user, context, day,
                                 h, reference_rng, activity);
          const HourDemand got =
              model.sample_hour(user, context, rates, h, table_rng, activity);
          ASSERT_EQ(bits(got), bits(expected))
              << "day " << day << " cluster " << c << " hour " << h;
          ASSERT_EQ(table_rng.next(), reference_rng.next())
              << "day " << day << " cluster " << c << " hour " << h;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cellscope::traffic
