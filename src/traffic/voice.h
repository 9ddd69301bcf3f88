// Conversational voice (QCI 1) model.
//
// Voice is the paper's headline anomaly: while data shrank, 4G voice
// (VoLTE) volume spiked ~+140% around week 12 — "seven years of growth in
// the space of a few days" — congesting the inter-MNO interconnect.
// The model produces per-(user, hour) call minutes from a diurnal profile,
// the archetype's baseline appetite, and the policy's voice multiplier;
// minutes convert to VoLTE volume at a constant codec rate, symmetric
// UL/DL. A fraction of minutes is off-net and traverses the interconnect.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/simtime.h"
#include "mobility/policy.h"
#include "population/subscriber.h"

namespace cellscope::traffic {

struct VoiceParams {
  // Baseline daily conversational minutes per (adult) user.
  double daily_minutes = 12.0;
  // VoLTE volume per minute per direction (AMR-WB + RTP/IP overhead), MB.
  double mb_per_minute = 0.16;
  // Fraction of minutes terminating on another operator's network.
  double offnet_fraction = 0.55;
};

struct HourVoice {
  double minutes = 0.0;
  double dl_mb = 0.0;
  double ul_mb = 0.0;
  double in_call_seconds = 0.0;
  double offnet_fraction = 0.0;
};

// One day's Poisson call rates, per archetype and hour: the call mean
// sample_hour would compute and its Knuth threshold std::exp(-mean), both
// computed once for the day.
struct VoiceDayRates {
  struct Rate {
    double call_mean = 0.0;
    double knuth_threshold = 1.0;
  };
  std::array<std::array<Rate, kHoursPerDay>, population::kArchetypeCount>
      by_archetype{};
};

class VoiceModel {
 public:
  VoiceModel(const mobility::PolicyTimeline& policy,
             const VoiceParams& params = {});

  [[nodiscard]] HourVoice sample_hour(const population::Subscriber& user,
                                      SimDay day, int hour_of_day,
                                      Rng& rng) const;
  // The same draws and values as sample_hour(user, day, hour_of_day, rng),
  // with the hour's rate read from `day_rates(day)`.
  [[nodiscard]] HourVoice sample_hour(const population::Subscriber& user,
                                      const VoiceDayRates& rates,
                                      int hour_of_day, Rng& rng) const;
  [[nodiscard]] VoiceDayRates day_rates(SimDay day) const;

  // Hourly voice activity weight (normalized to mean 1 over 24h).
  [[nodiscard]] static double diurnal_weight(int hour_of_day);

  [[nodiscard]] const VoiceParams& params() const { return params_; }

 private:
  [[nodiscard]] double call_mean(population::Archetype archetype, SimDay day,
                                 int hour_of_day) const;
  // Call minutes for `calls` arrivals: exponential holding times.
  [[nodiscard]] HourVoice voice_of_calls(std::uint64_t calls, Rng& rng) const;

  const mobility::PolicyTimeline& policy_;
  VoiceParams params_;
};

// One KPI day of the national call-accounting ledger: every call attempt
// classified as completed, blocked (off-net attempts turned away when the
// offered interconnect load exceeds trunk capacity) or dropped (calls cut
// by in-call trunk loss). The audit subsystem's voice-accounting law
// requires attempts == completed + blocked + dropped to hold exactly —
// an attempt that lands in no bucket (or two) is double-counting between
// the voice model and the interconnect.
struct VoiceDayCalls {
  SimDay day = 0;
  std::uint64_t attempts = 0;
  std::uint64_t completed = 0;
  std::uint64_t blocked = 0;
  std::uint64_t dropped = 0;
};

// Chronological per-day call accounting for the KPI window. Model-side
// bookkeeping (what subscribers attempted), so measurement-plane fault
// injection never perturbs it — a degraded feed loses records, not calls.
class VoiceCallLedger {
 public:
  // Appends one day's classified counts. Days must arrive in order.
  void record_day(const VoiceDayCalls& day);

  [[nodiscard]] const std::vector<VoiceDayCalls>& days() const {
    return days_;
  }
  [[nodiscard]] const VoiceDayCalls* day(SimDay day) const;
  [[nodiscard]] bool empty() const { return days_.empty(); }

  // Lifetime attempt count across every recorded day, accumulated
  // independently of the per-day rows so serialization bugs that clip a
  // day cannot go unnoticed (the audit cross-checks the two).
  [[nodiscard]] std::uint64_t total_attempts() const {
    return total_attempts_;
  }

 private:
  std::vector<VoiceDayCalls> days_;
  std::uint64_t total_attempts_ = 0;
};

}  // namespace cellscope::traffic
