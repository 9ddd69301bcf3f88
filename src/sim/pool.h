// Persistent worker pool for the per-user day simulation.
//
// The determinism contract (DESIGN.md Section 6) requires that a scenario's
// Dataset depend only on its ScenarioConfig — never on how many threads
// happened to execute it. The pool delivers that by decoupling *scheduling*
// from *reduction order*:
//
//   * the user index space is cut into fixed-size chunks (the chunk size is
//     scenario identity — ScenarioConfig::user_chunk — the thread count is
//     not);
//   * workers pull chunk indices from an atomic ChunkCursor, so a slow
//     worker sheds load to fast ones instead of stalling a static shard;
//   * every chunk accumulates into its own buffer (one of a small ring of
//     reusable slots), and the caller thread applies completed buffers
//     strictly in ascending chunk order, overlapping reduction with the
//     still-running tail of the fan-out.
//
// Because chunks are reduced in chunk-index order and users are processed
// in index order within a chunk, every floating-point accumulation happens
// in exactly the user-index order of a serial run over the same chunk
// grid — a run with 1, 2, 7 or 32 workers produces bit-identical output.
//
// Threads are created once per pool (one pool per Simulator::run) and
// parked on a condition variable between run() calls; the per-day
// create/join of the previous engine is gone. With a single worker the
// pool spawns no threads at all and run() executes work+reduce inline, in
// the same chunk order — the serial reference path.
//
// A throw from `work` or `reduce` ends the job: no chunk after the failed
// one starts, reduce is never called for it or any later chunk, and run()
// rethrows on the caller once every started chunk's work has returned —
// the lowest failed chunk's exception when several throw. The pool then
// runs its next job normally.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cellscope::sim {

// Hands out chunk indices [0, total) exactly once each, lock-free. Claims
// are monotonically increasing, which the pool's bounded reorder window
// relies on. reset() is serial-phase only; next() may race freely.
class ChunkCursor {
 public:
  ChunkCursor() = default;
  explicit ChunkCursor(std::size_t total) : total_(total) {}

  void reset(std::size_t total) {
    next_.store(0, std::memory_order_relaxed);
    total_ = total;
  }

  // Claims the next chunk; false once the index space is exhausted.
  bool next(std::size_t& chunk) {
    const std::size_t claimed = next_.fetch_add(1, std::memory_order_relaxed);
    if (claimed >= total_) return false;
    chunk = claimed;
    return true;
  }

  [[nodiscard]] std::size_t total() const { return total_; }

 private:
  std::atomic<std::size_t> next_{0};
  std::size_t total_ = 0;
};

class WorkerPool {
 public:
  // `work(chunk, slot, begin, end, worker)` runs on a pool worker (or the
  // caller when workers == 1) and must write only to the chunk buffer
  // addressed by `slot` and to per-item / per-worker private state.
  using WorkFn = std::function<void(std::size_t chunk, std::size_t slot,
                                    std::size_t begin, std::size_t end,
                                    std::size_t worker)>;
  // `reduce(chunk, slot)` runs on the calling thread, in ascending chunk
  // order, after that chunk's work returned. It must leave the slot buffer
  // cleared for reuse by a later chunk.
  using ReduceFn =
      std::function<void(std::size_t chunk, std::size_t slot)>;

  // Spawns `workers` persistent threads when workers > 1; a single-worker
  // pool spawns none and run() executes inline (the serial reference).
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int workers() const { return workers_; }

  // Number of chunk-buffer slots a caller must provide: the maximum number
  // of chunks in flight (claimed but not yet reduced) at any instant.
  [[nodiscard]] std::size_t window() const { return window_; }

  // Fans `ceil(n_items / chunk_size)` chunks out over the workers and
  // reduces them in chunk order on this thread; returns when every chunk
  // has been worked *and* reduced, or rethrows a failed chunk's exception
  // (see the header comment). Serial-phase only (one run at a time).
  void run(std::size_t n_items, std::size_t chunk_size, const WorkFn& work,
           const ReduceFn& reduce);

  // Chunks executed by each worker during the last run() (dynamic pulling
  // makes this the pool's balance record). Valid until the next run().
  [[nodiscard]] const std::vector<std::uint64_t>& chunks_per_worker() const {
    return chunks_per_worker_;
  }

  // run() invocations that dispatched at least one chunk.
  [[nodiscard]] std::uint64_t runs() const { return runs_; }

 private:
  void worker_main(std::size_t worker_index);
  void run_inline(std::size_t chunk_size, const WorkFn& work,
                  const ReduceFn& reduce);

  const int workers_;
  const std::size_t window_;
  std::uint64_t runs_ = 0;

  std::mutex mutex_;
  std::condition_variable cv_work_;   // workers wait: new job / window slack
  std::condition_variable cv_done_;   // reducer waits: chunk completion
  std::uint64_t epoch_ = 0;           // bumped per run() to wake workers
  bool stop_ = false;

  // Job state (guarded by mutex_ except where noted).
  ChunkCursor cursor_;                // lock-free claims
  std::size_t n_items_ = 0;
  std::size_t chunk_size_ = 1;
  std::size_t reduced_ = 0;           // chunks already reduced (window base)
  std::vector<std::uint8_t> done_;    // per-slot completion flags
  std::vector<std::exception_ptr> errors_;  // per-slot work failure
  // Lowest chunk whose work or reduce threw (kNoFailure while none did): no
  // chunk above it starts, and no new chunk is claimed.
  static constexpr std::size_t kNoFailure = ~std::size_t{0};
  std::size_t failed_chunk_ = kNoFailure;
  std::size_t busy_ = 0;              // workers inside work() right now
  const WorkFn* work_ = nullptr;
  std::vector<std::uint64_t> chunks_per_worker_;

  std::vector<std::thread> threads_;
};

}  // namespace cellscope::sim
