// The KPI day close: everything between a KPI day's per-user reduction and
// its rows entering the Dataset.
//
// A KPI day collects the LTE cells, or every cell under
// collect_legacy_kpis. The closer numbers those cells densely in ascending
// id order (ordinal()), and the day's load is indexed by that ordinal, so
// no load state is sized for a cell the day never collects.
//
// The simulator's per-user reduction folds each user chunk's ChunkLoad
// into the day's offered load (day_load()) between begin_day() and
// close(). close() then, in order:
//   1. dimensions the voice interconnect against the first KPI week's busy
//      hour, or evaluates its per-hour trunk loss;
//   2. classifies the day's call attempts into the voice ledger;
//   3. schedules every collected cell-hour through the LTE scheduler and
//      reduces each cell to its daily row, over fixed cell chunks on the
//      run's WorkerPool;
//   4. applies the warehouse-export faults, audits the delivered rows
//      (every per-day KPI law, kpi-aggregation included), streams them to
//      the sink and appends them to Dataset::kpis.
//
// Step 3 is the only fan-out. A cell's hours depend only on its own load
// slots and the day's per-hour trunk loss; each work item records a cell's
// hours into its own 24-hour sample block and reduces the cell right away
// (telemetry::CellDaySamples), and each chunk's rows are concatenated in
// chunk order — which is cell order — so the rows are bit-identical at any
// worker count. kCellChunk is therefore an internal constant, not scenario
// identity. Everything else runs on the calling thread, in day order.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/aggregation.h"
#include "audit/laws.h"
#include "common/ids.h"
#include "common/simtime.h"
#include "radio/scheduler.h"
#include "radio/topology.h"
#include "sim/faults.h"
#include "sim/pool.h"
#include "sim/scenario.h"
#include "telemetry/kpi.h"
#include "traffic/interconnect.h"

namespace cellscope::sim {

struct Dataset;
class DatasetSink;
class RunState;

class KpiDayCloser {
 public:
  // Cells per scheduling chunk.
  static constexpr std::size_t kCellChunk = 128;
  // ordinal() of a cell the day does not collect.
  static constexpr std::uint32_t kNotCollected = 0xffff'ffffu;

  // The day's input, accumulated by the per-user reduction.
  struct DayLoad {
    // [ordinal][hour] offered load of the collected cells.
    // app_limited_dl_mbps accumulates rate * active seconds; close()
    // normalizes it to the mean rate.
    std::vector<radio::CellHourLoad> cell_hours;
    std::array<double, kHoursPerDay> offnet_minutes{};
    std::array<std::uint64_t, kHoursPerDay> voice_attempts{};
  };

  struct Counters {
    std::uint64_t cells_scheduled = 0;
    radio::SchedulerCounters scheduler;
  };

  // References `config`, `topology`, `faults` and `pool`, which must
  // outlive the closer.
  KpiDayCloser(const ScenarioConfig& config,
               const radio::RadioTopology& topology, const FaultPlan& faults,
               WorkerPool& pool);

  // Re-derives the interconnect's capacity from a resumed run's state (a
  // pure function of its calibration scalar).
  void restore(const RunState& state);

  // The per-day KPI laws (kpi-partition, kpi-range, kpi-aggregation) over
  // one day's delivered rows, into `report`. close() runs them on every day
  // it closes; a resumed run runs them on every restored day, since the
  // audit report is not checkpointed. Only for an audited run.
  void audit_day(SimDay day, std::span<const telemetry::CellDayRecord> rows,
                 audit::AuditReport& report) const;

  // The number of collected cells, and `cell`'s position among them in
  // ascending id order (kNotCollected if the day does not collect it).
  [[nodiscard]] std::size_t collected_cells() const { return cells_.size(); }
  [[nodiscard]] std::uint32_t ordinal(CellId cell) const {
    return ordinal_[cell.value()];
  }

  // Opens `day` with a zero load.
  void begin_day(SimDay day);
  [[nodiscard]] DayLoad& day_load() { return load_; }

  // Closes the day begin_day opened (steps 1-4 above), updating the
  // interconnect calibration in `state`. Returns the rows added to
  // ds.kpis.
  std::uint64_t close(RunState& state, Dataset& ds, DatasetSink* sink);

  // Totals over every closed day.
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const traffic::VoiceInterconnect& interconnect() const {
    return interconnect_;
  }

 private:
  // One chunk's rows and scheduler counts, staged in a pool slot.
  struct ChunkRows {
    std::vector<telemetry::CellDayRecord> rows;
    radio::SchedulerCounters scheduler;
  };

  void schedule_cell(std::size_t ordinal,
                     const std::array<double, kHoursPerDay>& hour_loss,
                     telemetry::CellDaySamples& samples, ChunkRows& chunk);
  [[nodiscard]] std::vector<telemetry::CellDayRecord> schedule_cells(
      const std::array<double, kHoursPerDay>& hour_loss);

  const ScenarioConfig& config_;
  const radio::RadioTopology& topology_;
  const FaultPlan& faults_;
  WorkerPool& pool_;
  traffic::VoiceInterconnect interconnect_;
  radio::LteScheduler scheduler_;
  // The collected cells in ascending id order, and each cell's ordinal.
  std::vector<CellId> cells_;
  std::vector<std::uint32_t> ordinal_;  // by CellId value
  analysis::CellGrouping audit_partition_;
  audit::MetricBounds audit_bounds_;
  SimDay day_ = 0;
  DayLoad load_;
  std::vector<ChunkRows> chunks_;  // one per pool slot
  Counters counters_;
};

// One user chunk's share of a KPI day's load; the simulator keeps one per
// reorder-window slot. It holds only the collected cell-hours the chunk
// touched, in first-touch order, found through a u32 slot map over every
// collected cell-hour (ordinal * 24 + hour), plus the chunk's national
// per-hour voice totals. Merging and clearing cost O(touched).
class ChunkLoad {
 public:
  // Sizes the slot map for `cells` collected cells, all untouched. The
  // touched list reserves room for every collected cell-hour, so it never
  // reallocates (which would strand each outgrown block in the filling
  // worker's arena); only the pages a chunk fills become resident.
  void size_for(std::size_t cells);
  [[nodiscard]] bool sized() const { return !slot_of_.empty(); }

  // Collected cell `ordinal`'s load in `hour`, zero on the chunk's first
  // touch. Throws std::logic_error, touching nothing, for an ordinal the
  // slot map does not cover — KpiDayCloser::kNotCollected among them.
  [[nodiscard]] radio::CellHourLoad& at(std::uint32_t ordinal, int hour) {
    const std::size_t slot = std::size_t{ordinal} * kHoursPerDay +
                             static_cast<std::size_t>(hour);
    if (slot >= slot_of_.size()) refuse(ordinal);
    std::uint32_t& index = slot_of_[slot];
    if (index == 0) {
      dirty_.push_back(static_cast<std::uint32_t>(slot));
      loads_.emplace_back();
      index = static_cast<std::uint32_t>(loads_.size());
    }
    return loads_[index - 1];
  }
  // Cell-hours touched since the last clear.
  [[nodiscard]] std::size_t touched() const { return dirty_.size(); }

  // Adds every touched slot into `day`'s grid (radio::merge_load) and the
  // voice totals into its own, then clears. Callers merge chunks in chunk
  // order, so each slot's sum is a function of the chunk grid alone.
  // Throws std::logic_error, merging nothing, if `day` covers another
  // number of cells.
  void merge_into(KpiDayCloser::DayLoad& day);
  // Back to untouched with zero voice totals, keeping the capacity.
  void clear();

  std::array<double, kHoursPerDay> offnet_minutes{};
  std::array<std::uint64_t, kHoursPerDay> voice_attempts{};

 private:
  [[noreturn]] static void refuse(std::uint32_t ordinal);

  // Per collected cell-hour: 1 + its index in loads_, 0 while untouched.
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint32_t> dirty_;  // the cell-hour of each loads_ entry
  std::vector<radio::CellHourLoad> loads_;
};

}  // namespace cellscope::sim
