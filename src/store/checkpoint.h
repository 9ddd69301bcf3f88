// Durable, digest-keyed checkpoint log: the store side of checkpoint/resume
// (sim/checkpoint.h has the simulator side and the bitwise resume contract;
// docs/RECOVERY.md has the operator story).
//
// One file, `checkpoint.ckpt`, in the store directory: a header naming the
// scenario, then one record per completed day, in day order. On-disk
// layout (integers little-endian):
//
//   u32  magic "CKPT"
//   u32  version (2; version 1 was one whole-Dataset blob)
//   u32  digest length, then the scenario config digest bytes
//   per record:
//     i64  day
//     u64  payload length, then the payload (one simulator record)
//     u32  CRC32C over the day, the length and the payload
//
// A record whose day directly follows the last persisted one is appended
// and fdatasynced. Any other record starts a new log — the first record of
// a fresh run, or of a run that ignored an older log — published whole
// through tmp + fsync + rename (common/atomic_file.h). A crash mid-append
// leaves a torn tail; loading keeps the whole records before it, and the
// first append truncates it away. So a crash at any instant leaves every
// record whose save returned, never a torn mix.
//
// The digest keys the log to the scenario: a log written under a different
// config (or an unreadable file) is ignored and the run starts fresh —
// resuming someone else's state would be worse than restarting. clear()
// removes the file once the run publishes its final manifest, so a
// completed store carries no checkpoint.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/checkpoint.h"

namespace cellscope::store {

class CheckpointManager final : public sim::CheckpointSink {
 public:
  // Loads the whole records of `dir`/checkpoint.ckpt when its digest
  // matches `config_digest`. Mismatched, corrupt, or absent logs leave the
  // manager empty (fresh run); they are never an error.
  CheckpointManager(std::string dir, std::string config_digest);
  ~CheckpointManager() override;
  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  // The loaded records' payloads, concatenated; released by the first save.
  [[nodiscard]] std::span<const std::uint8_t> resume_payload() const override;
  // The day of the last persisted record.
  [[nodiscard]] SimDay resume_day() const override;
  // Persists one record (see the file comment); keeps no copy of it.
  void on_day_complete(SimDay day,
                      const std::vector<std::uint8_t>& state) override;

  // Removes the checkpoint file; call after the final manifest publishes.
  void clear();

  // Crash-injection hook (CELLSCOPE_CRASH_AT_DAY, threaded through
  // StoreRunOptions): after the n-th successful on_day_complete() save the
  // process SIGKILLs itself — no destructors, no atexit, exactly the crash
  // the resume contract is tested against. 0 disables.
  void set_kill_after_days(int n) { kill_after_days_ = n; }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string digest_;
  std::optional<SimDay> last_day_;  // of the last persisted record
  std::uint64_t end_ = 0;           // file bytes that hold whole records
  std::vector<std::uint8_t> payload_;
  int fd_ = -1;  // open for appends, truncated to end_ when opened
  int kill_after_days_ = 0;
  int days_saved_ = 0;

  void close_fd();
};

}  // namespace cellscope::store
