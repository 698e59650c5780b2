#pragma once

/// \file run_record.hpp
/// Darshan-style per-run record: `trace.spio.json`, written next to a
/// dataset by the writer (and extended in place by the reader) so the
/// dataset is self-describing — configuration, per-rank per-phase
/// seconds, and a counter dump survive after the job is gone.
///
/// Layout (one JSON object; sections appear as the pipeline produces
/// them):
///
///   {
///     "format": "spio.run_record", "version": 1,
///     "write": {
///       "ranks": 8, "schema_bytes": 124, "partition_count": 4,
///       "config": {"factor": "2x2x1", ...},
///       "phase_seconds": [{"rank": 0, "<phase>": seconds, ...}, ...],
///       "totals": {"bytes_written": ..., ...},
///       "counters": {"writer.bytes_written": ..., ...},
///       "environment": {"threads_as_ranks": true, ...}
///     },
///     "read": { ... symmetric, io/exchange phases ... }
///   }
///
/// Emission is gated on `obs::run_records_enabled()` so default runs
/// (golden-format and chaos byte-identity tests among them) leave the
/// dataset directory untouched.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace spio::obs {

/// File name of the run record inside a dataset directory.
inline constexpr const char* kRunRecordFile = "trace.spio.json";

/// One rank's row of a `phase_seconds` table: (phase name, seconds) pairs
/// in the producer's phase order. The names belong to the producer (the
/// writer's `kWritePhases`, the distributed reader's `ReadStats`), not to
/// this layer.
struct RankPhaseRow {
  int rank = 0;
  std::vector<std::pair<std::string, double>> seconds;
};

/// The writer's contribution to the record.
struct WriteRunInfo {
  int ranks = 0;
  std::uint64_t schema_bytes = 0;
  int partition_count = 0;
  /// Flat config echo (factor, adaptive, lod, heuristic, ...).
  std::map<std::string, std::string> config;
  std::vector<RankPhaseRow> phases;  // one entry per rank
  struct Totals {
    std::uint64_t particles_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t particles_written = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t files_written = 0;
  } totals;
  /// Per-partition load balance (the paper's §6 adaptive-aggregation
  /// motivation, measured): filled by rank 0 at commit from the
  /// per-file particle counts. `imbalance` = max/mean (1.0 = perfectly
  /// balanced); mirrored into the `write.partition_*` gauges.
  struct LoadBalance {
    std::uint64_t partition_particles_max = 0;
    double partition_particles_mean = 0;
    double imbalance = 0;
  } load_balance;
};

/// The reader's contribution to the record.
struct ReadRunInfo {
  int ranks = 0;
  int levels = -1;
  std::vector<RankPhaseRow> phases;  // one entry per rank
  struct Totals {
    std::uint64_t files_opened = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t particles_scanned = 0;
    std::uint64_t particles_returned = 0;
    double read_amplification = 0;
  } totals;
};

/// Write (or overwrite) the record's `write` section, replacing any
/// existing record — a rewrite of the dataset restarts its history.
void save_write_record(const std::filesystem::path& dataset_dir,
                       const WriteRunInfo& info,
                       const MetricsRegistry::Snapshot& metrics);

/// Merge the `read` section into an existing record (or create a fresh
/// record holding only the read section when the writer left none).
void save_read_record(const std::filesystem::path& dataset_dir,
                      const ReadRunInfo& info,
                      const MetricsRegistry::Snapshot& metrics);

/// True when `dataset_dir` holds a run record.
bool run_record_present(const std::filesystem::path& dataset_dir);

/// Load and validate the record. Throws `IoError` / `FormatError`.
JsonValue load_run_record(const std::filesystem::path& dataset_dir);

/// Counter/gauge snapshot rendered as a flat JSON object (histograms
/// become `{count, sum, buckets: [[bound, n], ...]}` objects).
JsonValue metrics_to_json(const MetricsRegistry::Snapshot& snapshot);

}  // namespace spio::obs
