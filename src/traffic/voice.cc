#include "traffic/voice.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace cellscope::traffic {

namespace {
// Voice concentrates in daytime and early evening.
constexpr std::array<double, 24> kVoiceDiurnal = {
    0.05, 0.03, 0.02, 0.02, 0.03, 0.10, 0.35, 0.80,  // 00-07
    1.30, 1.60, 1.70, 1.70, 1.60, 1.55, 1.50, 1.45,  // 08-15
    1.50, 1.65, 1.80, 1.70, 1.35, 0.95, 0.55, 0.20,  // 16-23
};
}  // namespace

VoiceModel::VoiceModel(const mobility::PolicyTimeline& policy,
                       const VoiceParams& params)
    : policy_(policy), params_(params) {}

double VoiceModel::diurnal_weight(int hour_of_day) {
  return kVoiceDiurnal[hour_of_day];
}

double VoiceModel::call_mean(population::Archetype archetype, SimDay day,
                             int hour_of_day) const {
  // Archetype appetite: retirees call more, students less.
  double appetite = 1.0;
  switch (archetype) {
    case population::Archetype::kRetiree: appetite = 1.5; break;
    case population::Archetype::kStudent: appetite = 0.6; break;
    case population::Archetype::kSeasonalResident: appetite = 0.8; break;
    default: break;
  }

  const double mean_minutes = params_.daily_minutes / 24.0 * appetite *
                              diurnal_weight(hour_of_day) *
                              policy_.voice_demand_multiplier(day);
  // Call minutes arrive in bursts: Poisson call count x exponential holding.
  return mean_minutes / 3.0;
}

HourVoice VoiceModel::voice_of_calls(std::uint64_t calls, Rng& rng) const {
  HourVoice voice;
  for (std::uint64_t c = 0; c < calls; ++c)
    voice.minutes += rng.exponential(3.0);
  if (voice.minutes <= 0.0) return voice;
  voice.minutes = std::min(voice.minutes, 60.0);

  voice.dl_mb = voice.minutes * params_.mb_per_minute;
  voice.ul_mb = voice.minutes * params_.mb_per_minute;
  voice.in_call_seconds = voice.minutes * 60.0;
  voice.offnet_fraction = params_.offnet_fraction;
  return voice;
}

HourVoice VoiceModel::sample_hour(const population::Subscriber& user,
                                  SimDay day, int hour_of_day,
                                  Rng& rng) const {
  if (!user.smartphone) return {};  // M2M SIMs carry no conversations
  return voice_of_calls(
      rng.poisson(call_mean(user.archetype, day, hour_of_day)), rng);
}

HourVoice VoiceModel::sample_hour(const population::Subscriber& user,
                                  const VoiceDayRates& rates, int hour_of_day,
                                  Rng& rng) const {
  if (!user.smartphone) return {};
  const auto& rate = rates.by_archetype[static_cast<std::size_t>(
      user.archetype)][static_cast<std::size_t>(hour_of_day)];
  return voice_of_calls(rng.poisson(rate.call_mean, rate.knuth_threshold),
                        rng);
}

VoiceDayRates VoiceModel::day_rates(SimDay day) const {
  VoiceDayRates rates;
  for (int a = 0; a < population::kArchetypeCount; ++a) {
    for (int h = 0; h < kHoursPerDay; ++h) {
      auto& rate = rates.by_archetype[static_cast<std::size_t>(a)]
                                     [static_cast<std::size_t>(h)];
      rate.call_mean =
          call_mean(static_cast<population::Archetype>(a), day, h);
      rate.knuth_threshold = std::exp(-rate.call_mean);
    }
  }
  return rates;
}

void VoiceCallLedger::record_day(const VoiceDayCalls& day) {
  days_.push_back(day);
  total_attempts_ += day.attempts;
}

const VoiceDayCalls* VoiceCallLedger::day(SimDay day) const {
  for (const auto& d : days_)
    if (d.day == day) return &d;
  return nullptr;
}

}  // namespace cellscope::traffic
