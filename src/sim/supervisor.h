// Supervised chunk execution: retries, deadlines and a watchdog over the
// WorkerPool.
//
// A multi-hour run must not die (or hang) because one chunk task threw or
// stalled. The Supervisor wraps WorkerPool::run() with:
//
//   * per-chunk retry — a throwing chunk has its buffer reset (the caller
//     supplies the reset, restoring the chunk's pre-work state) and is
//     re-executed in place with bounded exponential backoff;
//   * failure containment — when a chunk exhausts its attempts the run
//     finishes draining, then DayFailed is thrown from the CALLER thread.
//     The supervised work never throws into the pool: a pool that saw a
//     throw would end the job at that chunk and skip the later reductions.
//     The day is thereby failed-and-resumable: the previous day's
//     checkpoint is intact, so a rerun resumes right before the bad day;
//   * a watchdog thread — if no chunk completes within `stall_deadline`
//     it records a stall. It cannot preempt a truly hung thread (no safe
//     way exists in-process); the recovery for a hard hang is the
//     process-level kill + resume documented in docs/RECOVERY.md, and the
//     stall counter is what tells the operator to reach for it.
//
// Retries re-run a chunk from its snapshot, so the reduced result — and
// the Dataset — is bit-identical whether a chunk ran once or five times.
// Counters surface as `supervisor.*` metrics and in the run manifest.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/simtime.h"
#include "sim/pool.h"

namespace cellscope::sim {

struct Dataset;

struct SupervisorConfig {
  // Attempts per chunk (first run + retries). At least 1.
  int max_attempts = 3;
  // Backoff before retry k is backoff_base * 2^(k-1).
  std::chrono::milliseconds backoff_base{10};
  // No chunk completing for this long counts as a stall (watchdog).
  std::chrono::seconds stall_deadline{120};
};

struct SupervisorStats {
  std::uint64_t retries = 0;    // chunk attempts after the first
  std::uint64_t failures = 0;   // chunks that exhausted every attempt
  std::uint64_t stalls = 0;     // watchdog deadline expiries
};

// Thrown (from the caller thread) when any chunk of a day exhausted its
// attempts. The day is resumable: nothing of it was checkpointed.
// Simulator::run attaches the Dataset as accumulated through the last
// *completed* day, so callers can still account for the partial run (obs
// manifest, quality ledger) before exiting with code 5.
class DayFailed : public std::runtime_error {
 public:
  DayFailed(SimDay day, const std::string& detail);
  SimDay day;
  std::shared_ptr<Dataset> partial;  // may be null below the Simulator
};

class Supervisor {
 public:
  explicit Supervisor(WorkerPool& pool, SupervisorConfig config = {});

  // Restores chunk `chunk`'s inputs/buffer (slot `slot`) to the state work
  // expects on entry, so the chunk can be re-run from scratch.
  using ResetFn = std::function<void(std::size_t chunk, std::size_t slot)>;

  // WorkerPool::run() with supervision; `day` labels failures. Work and
  // reduce keep their pool contracts; `reset` must be safe on a worker
  // thread. Throws DayFailed after the pool drains if any chunk failed.
  void run(SimDay day, std::size_t n_items, std::size_t chunk_size,
           const WorkerPool::WorkFn& work, const ResetFn& reset,
           const WorkerPool::ReduceFn& reduce);

  // Lifetime totals across every supervised run().
  [[nodiscard]] const SupervisorStats& stats() const { return stats_; }

 private:
  WorkerPool& pool_;
  SupervisorConfig config_;
  SupervisorStats stats_;
};

}  // namespace cellscope::sim
