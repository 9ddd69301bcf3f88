#include "store/dataset_io.h"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>

#include "common/atomic_file.h"
#include "obs/runtime.h"
#include "sim/dataset_codec.h"
#include "store/checkpoint.h"
#include "store/feeds.h"
#include "store/scan.h"
#include "store/shard.h"

namespace cellscope::store {

namespace {

std::string feed_path(const std::string& dir, const std::string& feed) {
  return dir + "/" + feed_file_name(feed);
}

// One row of a scanned batch in the section decoders' reader shape.
class ScanRow {
 public:
  ScanRow(const ScanBatch& batch, std::size_t row) : batch_(batch), row_(row) {}

  std::uint64_t u64(std::size_t c) const { return i64(c); }
  std::int64_t i64(std::size_t c) const { return batch_.column(c).i64[row_]; }
  double f64(std::size_t c) const { return batch_.column(c).f64[row_]; }
  std::string_view bytes(std::size_t c) const {
    return batch_.column(c).bytes[row_];
  }

 private:
  const ScanBatch& batch_;
  std::size_t row_;
};

// Decodes one feed through the scanner, a whole shard per batch; `row`
// returns false to refuse a row. A shard holding a refused row is charged
// as quarantined; only accepted rows and readable files count as read.
template <class Row>
void decode_feed(const std::string& dir, std::string_view feed,
                 ReadOutcome& out, Row&& row) {
  ScanOptions options;
  options.batch_rows = std::numeric_limits<std::size_t>::max();
  FeedScanner scanner =
      FeedScanner::open(dir, feed_schema(feed), std::move(options));
  ScanBatch batch;
  while (scanner.next(batch)) {
    std::uint64_t accepted = 0;
    for (std::size_t i = 0; i < batch.rows(); ++i) {
      ScanRow scanned{batch, i};
      if (row(scanned)) ++accepted;
    }
    out.rows_read += accepted;
    if (accepted < batch.rows()) {
      ++out.shards_quarantined;
      out.quarantine_log.push_back(std::string(feed) + ": refused rows");
    }
  }
  out.shards_quarantined += scanner.totals().shards_quarantined;
  for (const auto& entry : scanner.quarantine_log())
    out.quarantine_log.push_back(entry);
  if (scanner.ok()) out.bytes_read += scanner.totals().bytes_file;
}

}  // namespace

const std::vector<std::string>& dataset_feeds() {
  static const std::vector<std::string> kFeeds(sim::kSectionNames.begin(),
                                               sim::kSectionNames.end());
  return kFeeds;
}

// ----------------------------------------------------------------- writer

struct DatasetWriter::Impl {
  std::string dir;
  std::unique_ptr<FeedFileWriter> kpis;
  std::uint64_t streamed_rows = 0;
  bool finished = false;
};

DatasetWriter::DatasetWriter(std::string dir) : impl_(new Impl) {
  impl_->dir = obs::ensure_obs_dir(dir);
  // A crashed writer leaves only *.tmp files behind (feed files publish
  // exclusively via close()'s rename); sweep the orphans before opening
  // fresh ones so a resumed run starts from a clean directory.
  remove_stale_tmp_files(impl_->dir);
  impl_->kpis = std::make_unique<FeedFileWriter>(
      feed_path(impl_->dir, "kpis"), feed_schema("kpis").encodings());
}

DatasetWriter::~DatasetWriter() = default;

void DatasetWriter::on_kpi_day(SimDay day,
                               std::span<const telemetry::CellDayRecord> rows) {
  const auto span = obs::tracer().span("store.flush", "store", day);
  const bool obs_on = obs::enabled();
  const auto flush_start = std::chrono::steady_clock::now();
  for (const auto& r : rows) sim::encode_kpi_row(r, *impl_->kpis);
  impl_->streamed_rows += rows.size();
  if (obs_on) {
    const double flush_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - flush_start)
                                .count();
    obs::metrics().histogram("store.flush_ms").record(flush_ms);
    obs::timeline().record_flush_ms(flush_ms);
    obs::track_bytes(obs::Subsystem::kStore,
                     rows.size() * sizeof(telemetry::CellDayRecord));
  }
}

WriteStats DatasetWriter::finish(const sim::Dataset& ds) {
  if (impl_->finished)
    throw std::logic_error("DatasetWriter: finish() called twice");
  // The KPI feed is the rows streamed here, or else the Dataset's own. A
  // Dataset whose rows went to another sink has neither: refuse it before
  // anything publishes, rather than an empty feed under a count of N.
  if (impl_->streamed_rows == 0 ? ds.kpis.released()
                                : impl_->streamed_rows != ds.kpis.row_count())
    throw std::logic_error(
        "DatasetWriter: the dataset's KPI rows were not streamed through "
        "this writer and are no longer held");
  impl_->finished = true;

  const auto span = obs::tracer().span("store.flush", "store");
  WriteStats stats;
  const auto close_feed = [&](FeedFileWriter& w) {
    stats.rows_written += w.rows_written();
    stats.shards_written += w.shards_written();
    stats.bytes_written += w.close();
  };

  // KPI feed: already streamed day-by-day when this writer rode along as
  // the simulation's sink; written from the materialized store otherwise.
  if (impl_->streamed_rows == 0)
    sim::encode_section(sim::Section::kKpis, ds, *impl_->kpis);
  close_feed(*impl_->kpis);
  impl_->kpis.reset();

  for (const sim::Section section : sim::kDecodeOrder) {
    if (section == sim::Section::kKpis) continue;
    const std::string feed{sim::section_name(section)};
    FeedFileWriter w{feed_path(impl_->dir, feed),
                     feed_schema(feed).encodings()};
    sim::encode_section(section, ds, w);
    close_feed(w);
  }

  // Manifest last, and atomically: its presence marks a completely written
  // store, so it must never be observable half-written — a crash during
  // publish leaves either no manifest (store incomplete, re-simulated) or
  // the previous complete one.
  {
    std::string manifest;
    manifest += "cellstore-v1\n";
    manifest += "digest=" + sim::config_digest(ds.config) + "\n";
    manifest += "feeds=";
    for (std::size_t i = 0; i < dataset_feeds().size(); ++i) {
      if (i) manifest += ",";
      manifest += dataset_feeds()[i];
    }
    manifest += "\n";
    // Physical accounting for the store-reconcile audit law: what was
    // written must be what reads back. Readers that predate these lines
    // skip unknown manifest rows, so the format stays backward-compatible.
    manifest += "rows=" + std::to_string(stats.rows_written) + "\n";
    manifest += "bytes=" + std::to_string(stats.bytes_written) + "\n";
    write_file_atomic(impl_->dir + "/" + kManifestFile, manifest);
  }

  if (obs::enabled()) {
    auto& registry = obs::metrics();
    registry.add("store.bytes_written", stats.bytes_written);
    registry.add("store.rows_written", stats.rows_written);
    registry.add("store.shards_written", stats.shards_written);
    obs::track_bytes(obs::Subsystem::kStore, stats.bytes_written);
  }
  return stats;
}

WriteStats write_dataset(const sim::Dataset& ds, const std::string& dir) {
  DatasetWriter writer{dir};
  return writer.finish(ds);
}

sim::Dataset simulate_to_store(const sim::ScenarioConfig& config,
                               const std::string& dir) {
  return simulate_to_store(config, dir, StoreRunOptions{});
}

sim::Dataset simulate_to_store(const sim::ScenarioConfig& config,
                               const std::string& dir,
                               const StoreRunOptions& options) {
  // The writer first (its ctor sweeps stale *.tmp orphans), then the
  // checkpoint record, which lives in the same directory keyed by the
  // scenario digest: a record from a crashed run of the SAME scenario
  // fast-forwards the simulator; anything else starts fresh.
  DatasetWriter writer{dir};
  CheckpointManager checkpoint{obs::ensure_obs_dir(dir),
                               sim::config_digest(config)};
  checkpoint.set_kill_after_days(options.kill_after_days);
  sim::Simulator simulator{config};
  sim::Dataset ds = simulator.run(&writer, &checkpoint);
  writer.finish(ds);
  // Manifest published: the run is complete and no longer resumable state.
  checkpoint.clear();
  return ds;
}

// ----------------------------------------------------------------- reader

std::string stored_digest(const std::string& dir) {
  std::ifstream manifest(dir + "/" + kManifestFile, std::ios::binary);
  if (!manifest) return "";
  std::string line;
  if (!std::getline(manifest, line) || line != "cellstore-v1") return "";
  while (std::getline(manifest, line)) {
    if (line.rfind("digest=", 0) == 0) return line.substr(7);
  }
  return "";
}

ScanStats scan_kpis(
    const std::string& dir,
    const std::function<void(const telemetry::CellDayRecord&)>& row) {
  // Single pass over the feed file, one shard of decoded rows at a time
  // (the scanner also keeps the health timeline alive at its shard safe
  // points).
  ReadOutcome out;
  decode_feed(dir, "kpis", out, [&](ScanRow& scanned) {
    const auto r = sim::decode_kpi_row(scanned);
    if (r) row(*r);
    return r.has_value();
  });
  if (obs::enabled()) {
    auto& registry = obs::metrics();
    registry.add("store.bytes_read", out.bytes_read);
    registry.add("store.rows_read", out.rows_read);
  }
  return {out.rows_read, out.bytes_read, out.shards_quarantined};
}

ReadOutcome read_dataset(const std::string& dir,
                         const sim::ScenarioConfig& config) {
  ReadOutcome out;
  const std::string digest = stored_digest(dir);
  if (digest.empty()) {
    out.status = ReadOutcome::Status::kMissing;
    out.error = "no readable manifest in " + dir;
    return out;
  }
  const std::string want = sim::config_digest(config);
  if (digest != want) {
    out.status = ReadOutcome::Status::kDigestMismatch;
    out.error = "stored digest " + digest + " != scenario digest " + want;
    return out;
  }

  const auto span = obs::tracer().span("store.load", "store");

  // The substrate and the window shape derive from the config alone; only
  // measured state is read back from disk.
  sim::Dataset ds;
  ds.config = config;
  sim::build_substrate(config, ds);

  sim::DatasetDecoder decoder{ds};
  for (const sim::Section section : sim::kDecodeOrder) {
    decode_feed(dir, sim::section_name(section), out, [&](ScanRow& row) {
      return decoder.apply(section, row);
    });
    if (!decoder.close(section)) {
      ++out.shards_quarantined;
      out.quarantine_log.push_back(std::string(sim::section_name(section)) +
                                   ": inconsistent section");
    }
  }

  // Completeness cross-check: the scalar feed records how many rows each
  // variable-size feed should hold, so a quarantined shard (or a clipped
  // file) can never masquerade as a complete dataset.
  const bool complete = decoder.complete();
  if (!complete)
    out.quarantine_log.push_back("stored row counts disagree with scalars");
  if (out.shards_quarantined > 0 || !complete) {
    // The store degraded like any other feed: account the damage in the
    // quality ledger and mark the outcome so callers re-simulate rather
    // than trust partial data.
    ds.quality.quarantine("store",
                          out.shards_quarantined > 0 ? out.shards_quarantined
                                                     : 1);
    out.status = ReadOutcome::Status::kDegraded;
    out.error = out.quarantine_log.front();
  } else {
    out.status = ReadOutcome::Status::kOk;
  }

  if (obs::enabled()) {
    auto& registry = obs::metrics();
    registry.add("store.bytes_read", out.bytes_read);
    registry.add("store.rows_read", out.rows_read);
    registry.add("store.shards_quarantined", out.shards_quarantined);
    obs::track_bytes(obs::Subsystem::kStore, out.bytes_read);
  }

  out.dataset = std::move(ds);
  return out;
}

// ------------------------------------------------------------ store audit

audit::AuditReport audit_store(const std::string& dir) {
  audit::AuditReport report;
  constexpr std::string_view kLaw = "store-reconcile";

  // Parse the manifest ourselves (not just stored_digest) because the audit
  // needs the feed list and the writer's physical accounting.
  std::vector<std::string> feeds;
  bool have_rows = false, have_bytes = false;
  std::uint64_t manifest_rows = 0, manifest_bytes = 0;
  {
    report.add_checks(kLaw);
    std::ifstream manifest(dir + "/" + kManifestFile, std::ios::binary);
    std::string line;
    if (!manifest || !std::getline(manifest, line) ||
        line != "cellstore-v1") {
      report.add_violation({std::string(kLaw), dir + "/" + kManifestFile,
                            0.0, 0.0,
                            "manifest missing or not cellstore-v1"});
      return report;
    }
    while (std::getline(manifest, line)) {
      if (line.rfind("feeds=", 0) == 0) {
        std::string list = line.substr(6);
        std::size_t start = 0;
        while (start <= list.size()) {
          const std::size_t comma = list.find(',', start);
          const std::size_t end =
              comma == std::string::npos ? list.size() : comma;
          if (end > start) feeds.push_back(list.substr(start, end - start));
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
      } else if (line.rfind("rows=", 0) == 0) {
        manifest_rows = std::strtoull(line.c_str() + 5, nullptr, 10);
        have_rows = true;
      } else if (line.rfind("bytes=", 0) == 0) {
        manifest_bytes = std::strtoull(line.c_str() + 6, nullptr, 10);
        have_bytes = true;
      }
    }
    if (feeds.empty()) {
      report.add_violation({std::string(kLaw), dir + "/" + kManifestFile,
                            0.0, 0.0, "manifest lists no feeds"});
      return report;
    }
  }

  std::uint64_t rows_read = 0;
  std::uint64_t bytes_read = 0;
  for (const std::string& feed : feeds) {
    report.add_checks(kLaw);
    FeedFileReader reader{feed_path(dir, feed)};
    if (reader.status() != FeedFileReader::Status::kOk) {
      report.add_violation({std::string(kLaw), feed, 0.0, 0.0,
                            "feed unreadable: " + reader.error()});
      continue;
    }
    if (reader.quarantined_shards() > 0) {
      report.add_violation(
          {std::string(kLaw), feed, 0.0,
           static_cast<double>(reader.quarantined_shards()),
           "quarantined shards in stored feed"});
    }
    rows_read += reader.total_rows();
    bytes_read += reader.file_bytes();
  }

  // Writer-side vs reader-side physical totals. Stores written before the
  // accounting lines existed carry no rows=/bytes=; the reconciliation is
  // then unavailable rather than violated.
  if (have_rows) {
    report.add_checks(kLaw);
    if (rows_read != manifest_rows) {
      report.add_violation({std::string(kLaw), "rows",
                            static_cast<double>(manifest_rows),
                            static_cast<double>(rows_read),
                            "rows read back != rows the writer recorded"});
    }
  }
  if (have_bytes) {
    report.add_checks(kLaw);
    if (bytes_read != manifest_bytes) {
      report.add_violation({std::string(kLaw), "bytes",
                            static_cast<double>(manifest_bytes),
                            static_cast<double>(bytes_read),
                            "bytes read back != bytes the writer recorded"});
    }
  }
  return report;
}

}  // namespace cellscope::store
