// Core-network signaling generation.
//
// The paper's General Signaling Dataset (Section 2.2) captures control-plane
// events — Attach, Authentication, Session establishment, dedicated bearer
// establishment/deletion, TAU, ECM-IDLE transitions, Service Requests,
// Handover, Detach — each tagged with the anonymized user id, SIM MCC/MNC,
// device TAC, serving sector, timestamp and result code. This module
// generates that event stream from the day's (cell-resolved) stays and the
// hour's data/voice activity, streaming into a sink so that memory stays
// bounded at national scale.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/ids.h"
#include "common/rng.h"
#include "common/simtime.h"
#include "population/subscriber.h"

namespace cellscope::traffic {

enum class SignalingEventType : std::uint8_t {
  kAttach = 0,
  kAuthentication,
  kSessionEstablishment,
  kDedicatedBearerSetup,    // e.g. QCI-1 bearer for a VoLTE call
  kDedicatedBearerRelease,
  kTrackingAreaUpdate,
  kEcmIdleTransition,
  kServiceRequest,
  kHandover,
  kDetach,
};
inline constexpr int kSignalingEventTypeCount = 10;

[[nodiscard]] std::string_view signaling_event_name(SignalingEventType type);

struct SignalingEvent {
  UserId user;
  Tac tac;
  std::uint16_t mcc = 0;
  std::uint16_t mnc = 0;
  CellId cell;
  SimHour hour = 0;
  SignalingEventType type = SignalingEventType::kAttach;
  bool success = true;
};

// A user's stay resolved to its serving cell.
struct CellStay {
  CellId cell;
  std::uint8_t start_hour = 0;
  std::uint8_t end_hour = 24;
};

struct SignalingParams {
  // Home-network identity (O2 UK uses MCC 234 / MNC 10).
  std::uint16_t home_mcc = 234;
  std::uint16_t home_mnc = 10;
  double attach_failure_rate = 0.004;
  double handover_share = 0.35;  // cell changes that are active-mode HOs
  double daily_detach_probability = 0.10;
};

class SignalingGenerator {
 public:
  explicit SignalingGenerator(const SignalingParams& params = {});

  // Emits the control-plane events for one user-day into
  // `sink.on_event(const SignalingEvent&)`. `stays` must be the day's
  // cell-resolved stays in time order; `active_data_hours` and
  // `voice_calls` shape Service Request / dedicated-bearer event volumes.
  // A template on the sink, so a counting sink inlines into the per-user
  // kernel; every sink sees the same events from the same draws.
  template <typename Sink>
  void generate_day(const population::Subscriber& user,
                    std::span<const CellStay> stays, SimDay day,
                    int active_data_hours, int voice_calls, Rng& rng,
                    Sink& sink) const;

  [[nodiscard]] const SignalingParams& params() const { return params_; }

 private:
  SignalingParams params_;
};

template <typename Sink>
void SignalingGenerator::generate_day(const population::Subscriber& user,
                                      std::span<const CellStay> stays,
                                      SimDay day, int active_data_hours,
                                      int voice_calls, Rng& rng,
                                      Sink& sink) const {
  if (stays.empty()) return;

  SignalingEvent event;
  event.user = user.id;
  event.tac = user.tac;
  if (user.native) {
    event.mcc = params_.home_mcc;
    event.mnc = params_.home_mnc;
  } else {
    // Inbound roamer: a foreign PLMN.
    event.mcc = static_cast<std::uint16_t>(200 + rng.uniform_index(150));
    event.mnc = static_cast<std::uint16_t>(rng.uniform_index(30));
  }

  const auto emit = [&](SignalingEventType type, CellId cell, int hour,
                        bool success = true) {
    event.type = type;
    event.cell = cell;
    event.hour = first_hour(day) + hour;
    event.success = success;
    sink.on_event(event);
  };

  // Morning attach (devices re-attach after overnight idle / flight mode).
  const CellStay& first = stays.front();
  const bool attach_ok = !rng.chance(params_.attach_failure_rate);
  emit(SignalingEventType::kAttach, first.cell, first.start_hour, attach_ok);
  emit(SignalingEventType::kAuthentication, first.cell, first.start_hour);
  emit(SignalingEventType::kSessionEstablishment, first.cell,
       first.start_hour);

  // Mobility events at every cell change.
  for (std::size_t i = 1; i < stays.size(); ++i) {
    if (stays[i].cell == stays[i - 1].cell) continue;
    const bool handover = rng.chance(params_.handover_share);
    emit(handover ? SignalingEventType::kHandover
                  : SignalingEventType::kTrackingAreaUpdate,
         stays[i].cell, stays[i].start_hour);
  }

  // Data activity: each active hour wakes the UE (Service Request) and
  // later returns it to idle (ECM-IDLE transition). Attribute events to the
  // stay covering the hour, walking stays and hours together.
  std::size_t stay_idx = 0;
  int remaining = active_data_hours;
  for (int hour = 0; hour < kHoursPerDay && remaining > 0; ++hour) {
    while (stay_idx + 1 < stays.size() && stays[stay_idx].end_hour <= hour)
      ++stay_idx;
    // Spread active hours across the day roughly evenly.
    if (rng.chance(static_cast<double>(remaining) /
                   static_cast<double>(kHoursPerDay - hour))) {
      emit(SignalingEventType::kServiceRequest, stays[stay_idx].cell, hour);
      emit(SignalingEventType::kEcmIdleTransition, stays[stay_idx].cell, hour);
      --remaining;
    }
  }

  // Voice calls ride dedicated QCI-1 bearers.
  for (int c = 0; c < voice_calls; ++c) {
    const auto hour = static_cast<int>(rng.uniform_index(kHoursPerDay));
    std::size_t idx = 0;
    while (idx + 1 < stays.size() && stays[idx].end_hour <= hour) ++idx;
    emit(SignalingEventType::kDedicatedBearerSetup, stays[idx].cell, hour);
    emit(SignalingEventType::kDedicatedBearerRelease, stays[idx].cell, hour);
  }

  if (rng.chance(params_.daily_detach_probability)) {
    const CellStay& last = stays.back();
    emit(SignalingEventType::kDetach, last.cell,
         std::max<int>(last.start_hour, 23));
  }
}

}  // namespace cellscope::traffic
