#include "sim/pool.h"

#include <algorithm>

namespace cellscope::sim {

namespace {

// Two spare slots beyond one-per-worker let fast workers run ahead of the
// reducer without unbounded buffering: peak chunk-buffer memory is
// window() slots regardless of how many chunks a day has.
std::size_t window_for(int workers) {
  return workers <= 1 ? 1 : static_cast<std::size_t>(workers) + 2;
}

}  // namespace

WorkerPool::WorkerPool(int workers)
    : workers_(std::max(workers, 1)), window_(window_for(workers)) {
  chunks_per_worker_.assign(static_cast<std::size_t>(workers_), 0);
  if (workers_ > 1) {
    threads_.reserve(static_cast<std::size_t>(workers_));
    for (int w = 0; w < workers_; ++w)
      threads_.emplace_back(&WorkerPool::worker_main, this,
                            static_cast<std::size_t>(w));
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void WorkerPool::run_inline(std::size_t chunk_size, const WorkFn& work,
                            const ReduceFn& reduce) {
  // Same chunk grid, same order, no threads: chunk c is worked then reduced
  // before chunk c+1 starts, using slot 0 throughout. A throw propagates
  // straight out, so no later chunk is worked or reduced.
  std::size_t chunk = 0;
  while (cursor_.next(chunk)) {
    const std::size_t begin = chunk * chunk_size;
    const std::size_t end = std::min(begin + chunk_size, n_items_);
    work(chunk, 0, begin, end, 0);
    ++chunks_per_worker_[0];
    reduce(chunk, 0);
  }
}

void WorkerPool::run(std::size_t n_items, std::size_t chunk_size,
                     const WorkFn& work, const ReduceFn& reduce) {
  chunk_size = std::max<std::size_t>(chunk_size, 1);
  const std::size_t n_chunks = (n_items + chunk_size - 1) / chunk_size;
  if (n_chunks == 0) return;
  ++runs_;

  if (workers_ == 1) {
    n_items_ = n_items;
    cursor_.reset(n_chunks);
    chunks_per_worker_.assign(1, 0);
    run_inline(chunk_size, work, reduce);
    return;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    n_items_ = n_items;
    chunk_size_ = chunk_size;
    cursor_.reset(n_chunks);
    reduced_ = 0;
    done_.assign(window_, 0);
    errors_.assign(window_, nullptr);
    failed_chunk_ = kNoFailure;
    work_ = &work;
    chunks_per_worker_.assign(static_cast<std::size_t>(workers_), 0);
    ++epoch_;
  }
  cv_work_.notify_all();

  // Ordered reduction on the calling thread: wait for chunk c's slot to
  // complete, apply it, free the slot, let blocked workers advance. Claims
  // are monotone, so chunk `reduced_` is always claimed (or claimable) by a
  // live worker — the wait below cannot deadlock.
  std::exception_ptr error;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t slot = c % window_;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_done_.wait(lock, [&] { return done_[slot] != 0; });
      error = errors_[slot];
    }
    if (!error) {
      try {
        reduce(c, slot);
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (error) {
      // End the job at c: chunks above it are abandoned, and the caller's
      // buffers stay alive until every started work() has returned.
      std::unique_lock<std::mutex> lock(mutex_);
      failed_chunk_ = std::min(failed_chunk_, c);
      cv_work_.notify_all();
      cv_done_.wait(lock, [&] { return busy_ == 0; });
      break;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_[slot] = 0;
      reduced_ = c + 1;
    }
    cv_work_.notify_all();
  }
  if (error) std::rethrow_exception(error);
  // Every chunk is worked and reduced; workers drain the exhausted cursor
  // and park on their own, so there is nothing to join here.
}

void WorkerPool::worker_main(std::size_t worker_index) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen_epoch = 0;
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;

    // After a failure nothing new is claimed: claims are monotone, so every
    // chunk below the failed one is already claimed.
    std::size_t chunk = 0;
    while (failed_chunk_ == kNoFailure && cursor_.next(chunk)) {
      // Bounded reorder window: chunk c may not start until its slot was
      // freed by the reduction of chunk c - window. A chunk above a failure
      // is abandoned, as is one whose job the caller has already left.
      cv_work_.wait(lock, [&] {
        return stop_ || epoch_ != seen_epoch || chunk > failed_chunk_ ||
               chunk < reduced_ + window_;
      });
      if (stop_) return;
      if (epoch_ != seen_epoch || chunk > failed_chunk_) break;
      ++chunks_per_worker_[worker_index];
      const std::size_t slot = chunk % window_;
      const std::size_t begin = chunk * chunk_size_;
      const std::size_t end = std::min(begin + chunk_size_, n_items_);
      const WorkFn* work = work_;
      ++busy_;
      lock.unlock();
      std::exception_ptr error;
      try {
        (*work)(chunk, slot, begin, end, worker_index);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      --busy_;
      if (error) {
        errors_[slot] = error;
        failed_chunk_ = std::min(failed_chunk_, chunk);
        cv_work_.notify_all();
      }
      done_[slot] = 1;
      cv_done_.notify_one();
    }
  }
}

}  // namespace cellscope::sim
