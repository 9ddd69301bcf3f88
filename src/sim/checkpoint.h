// Day-granular checkpoint/resume: the simulator side.
//
// The simulator streams days; after each completed day it hands a
// CheckpointSink one record (sim/run_state.h): the run-local evolving state
// (user states, home-detector accumulators, calibration scalars) behind a
// run-state version, then that day's rows of the dataset as the store's
// own sections (sim/dataset_codec.h). The sink keeps the records as a log.
// On the next run Simulator::run() replays the saved log — a log of
// another version starts a fresh run — after rebuilding substrate and
// static per-user structures from the config (pure functions of the seed),
// and starts the day loop at resume_day() + 1.
//
// The contract — enforced in test_determinism and test_crash_resume — is
// bitwise: an interrupted-then-resumed run yields a Dataset bit-identical
// (and store bytes byte-identical) to an uninterrupted one, at any worker
// count on either side of the interruption. That is why every float here
// round-trips as raw IEEE-754 bits (common/blob.h) and why the home
// detector keeps ordered accumulators (analysis/home_detection.h).
//
// The durable implementation (log format, digest keying, crash
// atomicity) lives in store/checkpoint.h; tests substitute in-memory
// sinks. See docs/RECOVERY.md for the full recovery story.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/blob.h"
#include "common/simtime.h"

namespace cellscope::sim {

struct Dataset;

class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;

  // The records a previous run saved, concatenated in day order, if any.
  // An empty span means no resumable progress: the run starts fresh from
  // the first day.
  [[nodiscard]] virtual std::span<const std::uint8_t> resume_payload()
      const = 0;
  // Day of the last saved record; meaningless when resume_payload() is
  // empty.
  [[nodiscard]] virtual SimDay resume_day() const = 0;

  // Called once after each day fully completes (accumulators reduced, KPI
  // rows published to the DatasetSink), with that day's record. A record
  // for a day that does not follow the last saved one starts a new log.
  // Implementations must persist atomically: a crash mid-save must leave
  // every earlier record intact.
  virtual void on_day_complete(SimDay day,
                               const std::vector<std::uint8_t>& state) = 0;
};

// The section encoders' writer shape over a record: values go out in call
// order and a 1 byte opens each row (a 0 byte closes the section).
class BlobRowWriter {
 public:
  explicit BlobRowWriter(BlobWriter& w) : w_(w) {}

  void u64(std::size_t, std::uint64_t v) { open_row(); w_.u64(v); }
  void i64(std::size_t, std::int64_t v) { open_row(); w_.i64(v); }
  void f64(std::size_t, double v) { open_row(); w_.f64(v); }
  void bytes(std::size_t, std::string_view v) { open_row(); w_.bytes(v); }
  void end_row(std::int64_t) { row_open_ = false; }

 private:
  BlobWriter& w_;
  bool row_open_ = false;

  void open_row() {
    if (!row_open_) w_.u8(1);
    row_open_ = true;
  }
};

// The decoders' reader shape over a record. Values come back in the order
// they were written: the decoders read a row's columns in ascending order,
// as the encoders write them.
class BlobRowReader {
 public:
  explicit BlobRowReader(BlobReader& r) : r_(r) {}

  // Advances to the next row of the section; false at its end.
  bool next() {
    const std::uint8_t marker = r_.u8();
    if (marker > 1) throw BlobError{"checkpoint blob: bad row marker"};
    return marker == 1;
  }

  std::uint64_t u64(std::size_t) { return r_.u64(); }
  std::int64_t i64(std::size_t) { return r_.i64(); }
  double f64(std::size_t) { return r_.f64(); }
  std::string_view bytes(std::size_t) { return r_.bytes(); }

 private:
  BlobReader& r_;
};

}  // namespace cellscope::sim
