#include "telemetry/probes.h"

#include <stdexcept>

namespace cellscope::telemetry {

std::uint64_t DailySignalingCounts::total_events() const {
  std::uint64_t sum = 0;
  for (const auto n : total) sum += n;
  return sum;
}

double DailySignalingCounts::failure_rate(
    traffic::SignalingEventType type) const {
  const auto i = static_cast<int>(type);
  if (total[i] == 0) return 0.0;
  return static_cast<double>(failures[i]) / static_cast<double>(total[i]);
}

void SignalingProbe::on_event(const traffic::SignalingEvent& event) {
  const SimDay day = day_of(event.hour);
  if (days_.empty() || days_.back().day != day) {
    days_.emplace_back();
    days_.back().day = day;
  }
  auto& counts = days_.back();
  const auto i = static_cast<int>(event.type);
  ++counts.total[i];
  if (!event.success) ++counts.failures[i];
  ++events_ingested_;
}

void SignalingProbe::add(SimDay day, const SignalingDayCounter& counter) {
  if (!days_.empty() && day < days_.back().day)
    throw std::logic_error("SignalingProbe::add: day before the last day");
  if (counter.forwarded == 0) return;
  if (days_.empty() || days_.back().day != day) {
    days_.emplace_back();
    days_.back().day = day;
  }
  auto& counts = days_.back();
  for (int t = 0; t < traffic::kSignalingEventTypeCount; ++t) {
    counts.total[t] += counter.total[t];
    counts.failures[t] += counter.failures[t];
  }
  events_ingested_ += counter.forwarded;
}

void SignalingProbe::restore_day(const DailySignalingCounts& counts) {
  days_.push_back(counts);
  events_ingested_ += counts.total_events();
}

const DailySignalingCounts* SignalingProbe::day(SimDay day) const {
  for (const auto& d : days_)
    if (d.day == day) return &d;
  return nullptr;
}

}  // namespace cellscope::telemetry
