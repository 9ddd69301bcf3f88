// The KPI day close: everything between a KPI day's per-user reduction and
// its rows entering the Dataset.
//
// The simulator's per-user reduction fills the day's offered load
// (day_load()) between begin_day() and close(). close() then, in order:
//   1. dimensions the voice interconnect against the first KPI week's busy
//      hour, or evaluates its per-hour trunk loss;
//   2. classifies the day's call attempts into the voice ledger;
//   3. schedules every collected cell-hour through the LTE scheduler and
//      reduces each cell to its daily row, over fixed cell chunks on the
//      run's WorkerPool;
//   4. applies the warehouse-export faults, audits the delivered rows,
//      streams them to the sink and appends them to Dataset::kpis.
//
// Step 3 is the only fan-out. A cell's hours depend only on its own load
// slots and the day's per-hour trunk loss, the aggregator reduces each
// cell from its own samples, and each chunk's rows are concatenated in
// chunk order — which is cell order — so the rows are bit-identical at any
// worker count. kCellChunk is therefore an internal constant, not scenario
// identity. Everything else runs on the calling thread, in day order.
#pragma once

#include <array>
#include <cstdint>
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

  // The day's input, accumulated by the per-user reduction.
  struct DayLoad {
    // [cell][hour] offered load. app_limited_dl_mbps accumulates
    // rate * active seconds; close() normalizes it to the mean rate.
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

  // Opens `day` with a zero load and opens the aggregator.
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

  void schedule_cell(CellId cell_id,
                     const std::array<double, kHoursPerDay>& hour_loss,
                     radio::SchedulerCounters& counters);
  [[nodiscard]] std::vector<telemetry::CellDayRecord> schedule_cells(
      const std::array<double, kHoursPerDay>& hour_loss);

  const ScenarioConfig& config_;
  const radio::RadioTopology& topology_;
  const FaultPlan& faults_;
  WorkerPool& pool_;
  traffic::VoiceInterconnect interconnect_;
  radio::LteScheduler scheduler_;
  telemetry::KpiAggregator aggregator_;
  // The cells scheduled each KPI day, in ascending id order.
  std::vector<CellId> cells_;
  analysis::CellGrouping audit_partition_;
  audit::MetricBounds audit_bounds_;
  SimDay day_ = 0;
  DayLoad load_;
  std::vector<ChunkRows> chunks_;  // one per pool slot
  Counters counters_;
};

}  // namespace cellscope::sim
