#include "sim/phases.h"

#include "sim/dataset_codec.h"
#include "sim/simulator.h"

namespace cellscope::sim {

std::vector<mobility::UserPlaces> build_user_places(
    WorkerPool& pool, const geo::UkGeography& geography,
    std::span<const population::Subscriber> subscribers, const Rng& root) {
  const mobility::PlacesBuilder builder{geography};
  std::vector<mobility::UserPlaces> places(subscribers.size());
  pool.run(
      subscribers.size(), kPlaceChunk,
      [&](std::size_t, std::size_t, std::size_t begin, std::size_t end,
          std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          Rng user_rng = root.fork("user-places", i);
          places[i] = builder.build(subscribers[i], user_rng);
        }
      },
      [](std::size_t, std::size_t) {});
  return places;
}

void seal_distributions(WorkerPool& pool, Dataset& ds, SimDay day) {
  pool.run(
      kDistributions.size(), 1,
      [&](std::size_t item, std::size_t, std::size_t, std::size_t,
          std::size_t) { (ds.*kDistributions[item]).seal_day(day); },
      [](std::size_t, std::size_t) {});
}

}  // namespace cellscope::sim
