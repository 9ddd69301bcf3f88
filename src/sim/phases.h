// The simulator's set-up and day-close phases that fan out over the run's
// WorkerPool outside the per-user day (sim/kpi_day_closer.h has the third,
// the KPI day close).
//
// Each fans out over a fixed grid of items whose results depend only on
// the item, never on which worker ran it or when, so the Dataset stays
// bit-identical at any worker count (DESIGN.md Section 6). The grids are
// internal constants, not scenario identity: unlike ScenarioConfig's
// user_chunk they fix no floating-point reduction order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/simtime.h"
#include "geo/uk_model.h"
#include "mobility/place.h"
#include "population/subscriber.h"
#include "sim/pool.h"

namespace cellscope::sim {

struct Dataset;

// Users per place-building chunk.
inline constexpr std::size_t kPlaceChunk = 1024;

// Every subscriber's generated places, user i drawing only from its own
// `user-places` fork of `root`, built in fixed user chunks on `pool`.
[[nodiscard]] std::vector<mobility::UserPlaces> build_user_places(
    WorkerPool& pool, const geo::UkGeography& geography,
    std::span<const population::Subscriber> subscribers, const Rng& root);

// Seals `day` in every per-day distribution of `ds` (the kDistributions
// sections), one distribution per pool item. A sealed Summary is a
// function of the day's sample multiset alone (stats::summarize), so the
// items are independent.
void seal_distributions(WorkerPool& pool, Dataset& ds, SimDay day);

}  // namespace cellscope::sim
