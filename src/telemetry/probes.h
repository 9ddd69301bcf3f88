// Passive signaling probes.
//
// The measurement infrastructure taps the MME / MSC / SGSN-SGW interfaces
// (Fig 1 of the paper) and sees every control-plane event. SignalingProbe
// is the in-memory aggregation point: per-day counters per event type and
// result code, so operations dashboards (and tests) can ask "how many
// attaches failed on day X" without retaining the raw event stream.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/simtime.h"
#include "traffic/core_network.h"

namespace cellscope::telemetry {

struct DailySignalingCounts {
  SimDay day = 0;
  std::array<std::uint64_t, traffic::kSignalingEventTypeCount> total{};
  std::array<std::uint64_t, traffic::kSignalingEventTypeCount> failures{};

  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] double failure_rate(traffic::SignalingEventType type) const;
};

// One day's events from one slice of the population (a simulator chunk),
// counted as the probe would see them: events in an hour the outage mask
// marks down are dropped, the rest are forwarded and counted per type and
// result. Integer sums only, so slices add up in any order. A sink for
// traffic::SignalingGenerator::generate_day.
struct SignalingDayCounter {
  std::array<std::uint64_t, traffic::kSignalingEventTypeCount> total{};
  std::array<std::uint64_t, traffic::kSignalingEventTypeCount> failures{};
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  // Bit h set: the probe is down in hour h of the day.
  std::uint32_t outage_mask = 0;

  void on_event(const traffic::SignalingEvent& event) {
    if ((outage_mask >> hour_of_day(event.hour)) & 1u) {
      ++dropped;
      return;
    }
    ++forwarded;
    const auto i = static_cast<std::size_t>(event.type);
    ++total[i];
    if (!event.success) ++failures[i];
  }
};

class SignalingProbe {
 public:
  void on_event(const traffic::SignalingEvent& event);

  // Days appear in insertion (chronological) order.
  [[nodiscard]] const std::vector<DailySignalingCounts>& days() const {
    return days_;
  }
  [[nodiscard]] const DailySignalingCounts* day(SimDay day) const;

  // Adds one slice's forwarded counts for `day`, which must be the probe's
  // last day or a later one (std::logic_error otherwise). A slice that
  // forwarded nothing adds no day, as if its events had arrived one by one
  // through on_event.
  void add(SimDay day, const SignalingDayCounter& counter);

  // Serialization access (store/dataset_io): appends one saved day's
  // counters verbatim. Days must arrive in chronological order.
  void restore_day(const DailySignalingCounts& counts);

  // Observability: lifetime event count across every day this probe
  // ingested. The simulator publishes this into the metrics registry at the
  // end of a run.
  [[nodiscard]] std::uint64_t events_ingested() const {
    return events_ingested_;
  }

 private:
  std::vector<DailySignalingCounts> days_;
  std::uint64_t events_ingested_ = 0;
};

}  // namespace cellscope::telemetry
