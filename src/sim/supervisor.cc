#include "sim/supervisor.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace cellscope::sim {

DayFailed::DayFailed(SimDay d, const std::string& detail)
    : std::runtime_error("day " + std::to_string(d) +
                         " failed after supervised retries (" + detail +
                         "); previous checkpoint intact — rerun to resume"),
      day(d) {}

Supervisor::Supervisor(WorkerPool& pool, SupervisorConfig config)
    : pool_(pool), config_(config) {
  if (config_.max_attempts < 1) config_.max_attempts = 1;
}

void Supervisor::run(SimDay day, std::size_t n_items, std::size_t chunk_size,
                     const WorkerPool::WorkFn& work, const ResetFn& reset,
                     const WorkerPool::ReduceFn& reduce) {
  // Shared between workers, the watchdog and this thread for one run().
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::string first_error;

  const auto supervised = [&](std::size_t chunk, std::size_t slot,
                              std::size_t begin, std::size_t end,
                              std::size_t worker) {
    for (int attempt = 1;; ++attempt) {
      try {
        work(chunk, slot, begin, end, worker);
        completed.fetch_add(1, std::memory_order_relaxed);
        return;
      } catch (const std::exception& e) {
        // Never let the exception reach the pool: it would end the job at
        // this chunk. Contain, reset, retry — and on exhaustion flag the
        // run as failed; the chunk's buffer stays reset, so the reducer
        // folds in a no-op and the day still drains in order.
        reset(chunk, slot);
        {
          std::lock_guard<std::mutex> lock{error_mutex};
          if (first_error.empty()) first_error = e.what();
        }
        if (attempt >= config_.max_attempts) {
          failed.store(true, std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        retries.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(config_.backoff_base * (1 << (attempt - 1)));
      }
    }
  };

  // Watchdog: wakes periodically and records a stall whenever a full
  // deadline passes with no chunk completing. Detection only — see the
  // header for why a hung thread cannot be preempted in-process.
  std::mutex watchdog_mutex;
  std::condition_variable watchdog_cv;
  bool run_done = false;
  std::uint64_t stalls = 0;
  std::thread watchdog{[&] {
    std::unique_lock<std::mutex> lock{watchdog_mutex};
    std::uint64_t last_seen = 0;
    auto last_progress = std::chrono::steady_clock::now();
    while (!run_done) {
      watchdog_cv.wait_for(lock, std::chrono::milliseconds{200});
      if (run_done) break;
      const std::uint64_t now_completed =
          completed.load(std::memory_order_relaxed);
      const auto now = std::chrono::steady_clock::now();
      if (now_completed != last_seen) {
        last_seen = now_completed;
        last_progress = now;
      } else if (now - last_progress >= config_.stall_deadline) {
        ++stalls;
        last_progress = now;  // one stall per expired deadline
      }
    }
  }};

  try {
    pool_.run(n_items, chunk_size, supervised, reduce);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock{watchdog_mutex};
      run_done = true;
    }
    watchdog_cv.notify_all();
    watchdog.join();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock{watchdog_mutex};
    run_done = true;
  }
  watchdog_cv.notify_all();
  watchdog.join();

  stats_.retries += retries.load(std::memory_order_relaxed);
  stats_.stalls += stalls;
  if (failed.load(std::memory_order_relaxed)) {
    ++stats_.failures;
    std::lock_guard<std::mutex> lock{error_mutex};
    throw DayFailed{day, first_error.empty() ? "unknown error" : first_error};
  }
}

}  // namespace cellscope::sim
