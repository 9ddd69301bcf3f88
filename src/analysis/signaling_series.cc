#include "analysis/signaling_series.h"

namespace cellscope::analysis {

namespace {

// Probe days are chronological; an empty probe yields an empty series.
DailySeries make_series(const telemetry::SignalingProbe& probe) {
  if (probe.days().empty()) return {};
  return DailySeries{probe.days().front().day, probe.days().back().day};
}

}  // namespace

DailySeries signaling_series(const telemetry::SignalingProbe& probe,
                             traffic::SignalingEventType type) {
  DailySeries series = make_series(probe);
  for (const auto& day : probe.days())
    series.set(day.day,
               static_cast<double>(day.total[static_cast<int>(type)]));
  return series;
}

DailySeries signaling_failure_series(const telemetry::SignalingProbe& probe,
                                     traffic::SignalingEventType type) {
  DailySeries series = make_series(probe);
  for (const auto& day : probe.days())
    series.set(day.day, 100.0 * day.failure_rate(type));
  return series;
}

std::vector<WeekPoint> signaling_weekly_delta(
    const telemetry::SignalingProbe& probe,
    traffic::SignalingEventType type, int baseline_week, int from_week,
    int to_week) {
  const DailySeries series = signaling_series(probe, type);
  if (series.empty()) return {};
  return weekly_median_delta_percent(series, series.week_median(baseline_week),
                                     from_week, to_week);
}

}  // namespace cellscope::analysis
