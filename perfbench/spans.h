// In-memory span log of the benchmark's traced runs.
//
// Spans are recorded around the public calls the benchmark makes into each
// layer (sim, store, serve), never inside the library. Each span records
// its name, start and end (microseconds since the log was created), the
// span that caused it and the operation id shared by one operation's spans.
// The log is written out as JSON once, when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class SpanLog {
 public:
  static constexpr std::uint64_t kNone = 0;

  explicit SpanLog(bool on) : on_(on), epoch_(Clock::now()) {}

  // Switched only while no client thread is running.
  void set_on(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }

  // A fresh operation id (ids start at 1; kNone means "no operation").
  std::uint64_t new_op() {
    std::lock_guard lock(mutex_);
    return ++ops_;
  }

  // Opens a span; returns its id (kNone when the log is off).
  std::uint64_t begin(std::string name, std::uint64_t parent = kNone,
                      std::uint64_t op = kNone) {
    if (!on_) return kNone;
    const double start = now_us();
    std::lock_guard lock(mutex_);
    spans_.push_back({std::move(name), start, -1.0, parent, op});
    return spans_.size();
  }

  // Records a span whose interval was measured by the caller.
  void add(std::string name, Clock::time_point start, Clock::time_point stop,
           std::uint64_t parent = kNone, std::uint64_t op = kNone) {
    if (!on_) return;
    std::lock_guard lock(mutex_);
    spans_.push_back({std::move(name), us(start), us(stop), parent, op});
  }

  void end(std::uint64_t id) {
    if (id == kNone) return;
    const double stop = now_us();
    std::lock_guard lock(mutex_);
    spans_[id - 1].end_us = stop;
  }

  // RAII form of begin/end.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::uint64_t parent = kNone,
          std::uint64_t op = kNone)
        : log_(log), id_(log.begin(std::move(name), parent, op)) {}
    ~Scope() { log_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    SpanLog& log_;
    std::uint64_t id_;
  };

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return spans_.size();
  }

  // {"spans": [{"id", "name", "start_us", "end_us", "parent", "op"}, ...]}
  bool write_json(const std::string& path) const {
    std::lock_guard lock(mutex_);
    std::ofstream os(path);
    os << std::fixed << std::setprecision(1) << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"id\": " << i + 1 << ", \"name\": \""
         << s.name << "\", \"start_us\": " << s.start_us
         << ", \"end_us\": " << s.end_us << ", \"parent\": " << s.parent
         << ", \"op\": " << s.op << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Record {
    std::string name;
    double start_us;
    double end_us;
    std::uint64_t parent;
    std::uint64_t op;
  };

  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  [[nodiscard]] double now_us() const { return us(Clock::now()); }

  std::atomic<bool> on_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Record> spans_;
  std::uint64_t ops_ = 0;
};

}  // namespace perfbench
