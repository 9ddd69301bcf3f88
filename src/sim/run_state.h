// The simulator's run-local state, and the checkpoint record that carries
// it (sim/checkpoint.h has the sink and the bitwise resume contract).
//
// RunState is what a resumed run needs beyond the Dataset and the
// structures that regrow from the config: each user's behaviour flags and
// the refuge places the relocation model appended, the home detector's
// warm-up accumulators, the interconnect calibration and the RAT-hour
// totals. Simulator::run owns one and evolves it day by day.
//
// After day d the simulator hands its CheckpointSink one record:
//
//   u64  run-state version (kRunStateVersion, so also the first byte)
//   i64  d
//   the RunState, whole
//   the Dataset's sections (sim/dataset_codec.h): day d's rows of every
//   dated section, the scalars and quality totals whole, and homes and
//   validation only in the record of the day they finalize
//
// A log is the records of consecutive days from the scenario's first day,
// concatenated. Replaying it in order rebuilds the run as of its last day.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/home_detection.h"
#include "common/blob.h"
#include "common/simtime.h"
#include "mobility/place.h"
#include "mobility/trajectory.h"

namespace cellscope::sim {

struct Dataset;

// Layout version of a checkpoint record. A log of another version is no
// resumable state: the run starts fresh.
inline constexpr std::uint64_t kRunStateVersion = 3;
static_assert(kRunStateVersion < 0x80, "the version is the first byte");

// The substrate's id ranges (build_substrate): a record whose places or
// detector sites name an id outside them is refused.
struct SubstrateBounds {
  std::size_t districts = 0;
  std::size_t counties = 0;
  std::size_t sites = 0;
};

class RunState {
 public:
  // `places` are the users' generated places, one entry per user; only
  // places appended beyond them are saved.
  RunState(std::vector<mobility::UserPlaces> places,
           const analysis::HomeDetectionParams& home_params);

  std::vector<mobility::UserState> user_states;  // one per user
  std::vector<mobility::UserPlaces> user_places;  // one per user
  // Empty once homes_finalized: finalize_homes() releases its accumulators.
  analysis::HomeDetector home_detector;
  bool homes_finalized = false;
  // The interconnect is dimensioned against the first KPI week's busiest
  // hour; the capacity itself regrows from this on resume.
  double week9_busy_hour_minutes = 0.0;
  bool interconnect_calibrated = false;
  // Connected hours on 4G and on legacy RATs over the KPI window.
  double lte_hours = 0.0;
  double legacy_hours = 0.0;

  // The detector's homes. Sets homes_finalized and releases the
  // detector's accumulators, which nothing reads again.
  [[nodiscard]] std::vector<analysis::HomeRecord> finalize_homes();

  void save(BlobWriter& w) const;
  // Replaces the state with one `save` wrote for the same users over a
  // substrate of `bounds`. Throws BlobError on truncated input, another
  // user count, or a user, refuge, place kind, district, county or site
  // out of range; the state is then unspecified.
  void restore(BlobReader& r, const SubstrateBounds& bounds);

 private:
  std::vector<std::uint8_t> base_place_count_;  // generated places per user
};

// Day `day`'s checkpoint record of `state` and `ds`; `with_homes` on the
// day homes finalize.
[[nodiscard]] std::vector<std::uint8_t> encode_record(SimDay day,
                                                      const RunState& state,
                                                      const Dataset& ds,
                                                      bool with_homes);

// Replays a log of current-version records, the first for `first_day`,
// into `state` and `ds` (which holds the substrate and window shape,
// build_substrate; restore checks ids against it) and returns the last
// record's day. Throws BlobError on truncated input, a record out of
// version or day order, or a record the state or the section decoder
// refuses.
SimDay replay_log(std::span<const std::uint8_t> log, SimDay first_day,
                  RunState& state, Dataset& ds);

}  // namespace cellscope::sim
