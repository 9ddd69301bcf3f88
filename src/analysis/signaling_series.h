// Control-plane intensity series.
//
// The General Signaling Dataset is the paper's raw material for mobility,
// but it is also an operational signal in its own right: handovers track
// physical movement, Tracking Area Updates track camping changes, dedicated
// QCI-1 bearer setups track call attempts, attach failures track core
// health. This module turns the probe's daily counters into the same
// DailySeries/delta machinery the figures use, so control-plane load can be
// plotted and compared against week 9 exactly like any KPI.
#pragma once

#include <vector>

#include "common/timeseries.h"
#include "telemetry/probes.h"

namespace cellscope::analysis {

// Daily totals of one signaling event type.
[[nodiscard]] DailySeries signaling_series(
    const telemetry::SignalingProbe& probe,
    traffic::SignalingEventType type);

// Daily failure rate (failures / total) of one event type, in percent.
[[nodiscard]] DailySeries signaling_failure_series(
    const telemetry::SignalingProbe& probe,
    traffic::SignalingEventType type);

// Weekly delta-% of an event type's daily totals vs a baseline week — the
// figure-shaped view ("handovers vs week 9").
[[nodiscard]] std::vector<WeekPoint> signaling_weekly_delta(
    const telemetry::SignalingProbe& probe,
    traffic::SignalingEventType type, int baseline_week, int from_week,
    int to_week);

}  // namespace cellscope::analysis
