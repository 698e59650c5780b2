#pragma once

/// \file writer.hpp
/// The spatially-aware two-phase write pipeline (paper §3), run as one
/// named stage per phase of `kWritePhases`:
///
///   plan_aggregation    set up the grid, select aggregators  (§3.1–3.2)
///   exchange_counts     exchange particle counts             (§3.3)
///   exchange_particles  exchange particles, keep them as runs (§3.3)
///   reorder             the LOD permutation of the runs      (§3.4)
///   write_data_file     stream one data file per partition   (§3.4)
///                       from the runs: gather an L2-sized chunk,
///                       fold its zones, write and CRC it
///   commit_metadata     gather bounds, write the metadata    (§3.5)
///
/// The adaptive variant (§6) prepends an all-to-all extent exchange and
/// builds the grid over the occupied sub-region only.
///
/// Every write brackets the dataset with `write.journal`, CRCs each data
/// file into `checksums.spio` and records per-level zone maps in
/// `zones.spio` (docs/FORMAT.md).

#include <array>
#include <filesystem>
#include <optional>

#include "core/aggregation_plan.hpp"
#include "core/lod.hpp"
#include "core/metadata.hpp"
#include "faultsim/fault_plan.hpp"
#include "faultsim/reliable.hpp"
#include "simmpi/comm.hpp"
#include "workload/decomposition.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::faultsim {
class FaultInjector;
}  // namespace spio::faultsim

namespace spio::obs {
class MetricsRegistry;
}  // namespace spio::obs

namespace spio {

/// Everything a write needs besides the data. The partition factor is the
/// user-facing tuning knob; the paper's §5 sweeps it per machine.
struct WriterConfig {
  /// Dataset directory; created if absent. One data file per non-empty
  /// aggregation partition plus `meta.spio`, `zones.spio` and
  /// `checksums.spio` are written into it.
  std::filesystem::path dir;

  /// Aggregation partition factor (Px, Py, Pz).
  PartitionFactor factor{1, 1, 1};

  /// Level-of-detail layout parameters, recorded in the metadata.
  LodParams lod{};
  LodHeuristic heuristic = LodHeuristic::kRandom;

  /// Use the adaptive aggregation grid (§6). Adds an all-to-all extent
  /// exchange and covers only the occupied sub-region.
  bool adaptive = false;

  /// With `adaptive`: use the density-refined k-d partitioning (§7
  /// extension) instead of the uniform adaptive grid — balances particle
  /// load per file under clustered distributions.
  bool adaptive_refine = false;

  /// Write the spatial metadata file with bounding boxes. Disabled only to
  /// produce the paper's Fig. 7 "without spatial metadata" baseline.
  bool write_spatial_metadata = true;

  /// Record per-file min/max of every field component in the metadata
  /// (§3.5 extension), enabling attribute range queries that skip files.
  bool write_field_ranges = true;

  /// Base seed for the deterministic LOD shuffles (per-partition streams
  /// are derived from it).
  std::uint64_t shuffle_seed = 0x5910f00d;

  /// Force the per-particle binning path even when the aligned fast path
  /// applies; used by tests to check both paths agree.
  bool force_general_exchange = false;

  /// Upper bound on the bytes one aggregator receives, in bytes
  /// (0 = unlimited). §3.1 notes that all-to-one aggregation "is not
  /// feasible due to limitations in the available memory on a single
  /// core"; this guard turns that silent OOM into a diagnosable
  /// `ConfigError` naming the partition and suggesting a smaller factor.
  std::uint64_t max_aggregation_bytes = 0;

  /// Fault injector for chaos testing (not owned; null in production).
  /// When set, the writer announces phase entries to it, routes both
  /// exchanges through the acknowledged retry protocol, and validates
  /// every data-file write with read-back + bounded rewrite.
  faultsim::FaultInjector* faults = nullptr;

  /// Retransmission policy for the reliable exchanges (used only when
  /// `faults` is set).
  faultsim::RetryPolicy retry{};
};

/// Per-rank timing and volume statistics for one write. Times are wall
/// clock on this rank, one per phase of `kWritePhases`; reduce across
/// ranks with `WriteStats::max_over`.
struct WriteStats {
  double setup_seconds = 0;              // plan/grid construction (+ extent
                                         // all-to-all when adaptive)
  double meta_exchange_seconds = 0;
  double particle_exchange_seconds = 0;
  double reorder_seconds = 0;
  double file_io_seconds = 0;
  double metadata_io_seconds = 0;

  std::uint64_t particles_sent = 0;  // shipped to a *different* rank
  std::uint64_t bytes_sent = 0;
  std::uint64_t particles_written = 0;
  std::uint64_t bytes_written = 0;
  int files_written = 0;
  int partition_count = 0;
  bool was_aggregator = false;
  bool used_aligned_fast_path = false;

  /// Total wall time of the phases above.
  double total_seconds() const;

  /// Aggregation-phase time (everything before file writes), the
  /// "Data aggregation" share of the paper's Fig. 6 breakdown.
  double aggregation_seconds() const {
    return setup_seconds + meta_exchange_seconds + particle_exchange_seconds +
           reorder_seconds;
  }

  /// Element-wise max of times, sum of volumes; the job-level view.
  static WriteStats max_over(const WriteStats& a, const WriteStats& b);
};

/// One phase of the write pipeline, and every name it goes by.
struct WritePhaseInfo {
  /// Phase key: the run record's `phase_seconds` column, the
  /// `writer.<key>_us` counter and the postmortem's `<key>_seconds` field.
  const char* key;
  /// Trace span covering the phase.
  const char* span;
  /// Where the phase's wall seconds land.
  double WriteStats::*seconds;
  /// Phase announced to the fault injector on entry (scripted rank death);
  /// none for phases that are not a fault site.
  std::optional<faultsim::WritePhase> fault_phase;
};

/// The write pipeline's phases in execution order. Every per-phase view of
/// a write (stats reductions, counters, run record, postmortem) is driven
/// from this table.
inline constexpr std::array<WritePhaseInfo, 6> kWritePhases = {{
    {"setup", "write.setup", &WriteStats::setup_seconds,
     faultsim::WritePhase::kSetup},
    {"meta_exchange", "write.meta_exchange",
     &WriteStats::meta_exchange_seconds, faultsim::WritePhase::kMetaExchange},
    {"particle_exchange", "write.particle_exchange",
     &WriteStats::particle_exchange_seconds,
     faultsim::WritePhase::kParticleExchange},
    {"reorder", "write.reorder", &WriteStats::reorder_seconds, std::nullopt},
    {"file_io", "write.file_io", &WriteStats::file_io_seconds,
     faultsim::WritePhase::kDataWrite},
    {"metadata_io", "write.metadata_io", &WriteStats::metadata_io_seconds,
     faultsim::WritePhase::kCommit},
}};

inline double WriteStats::total_seconds() const {
  double sum = 0;
  for (const WritePhaseInfo& p : kWritePhases) sum += this->*p.seconds;
  return sum;
}

/// Collective: write `local` (this rank's particles, which must carry the
/// schema shared by all ranks) as one spio dataset. Returns this rank's
/// statistics. Throws `ConfigError` for invalid configurations and
/// `IoError` on filesystem failure; failures on any rank abort the job.
WriteStats write_dataset(simmpi::Comm& comm, const PatchDecomposition& decomp,
                         const ParticleBuffer& local,
                         const WriterConfig& config);

namespace writer_detail {

/// Result of the binning pass: only non-empty bins appear, partition ids
/// ascending, and each payload keeps its particles in original input
/// order (the ordering the file format's reproducibility rests on).
struct BinnedParticles {
  std::vector<int> partitions;                 // ascending, non-empty only
  std::vector<std::uint64_t> counts;           // particles per bin
  std::vector<std::vector<std::byte>> payloads;  // raw records per bin

  std::size_t bin_count() const { return partitions.size(); }

  /// Index of `partition` among the bins, or -1 if it received nothing.
  int index_of(int partition) const;
};

/// Partition the local particles by target aggregation partition with a
/// two-pass histogram + contiguous scatter (one partition lookup and one
/// record memcpy per particle). Aligned fast path: the whole buffer goes
/// to one partition, no per-particle scan. Exposed for the perf harness
/// and differential tests; `write_dataset` is the production entry point.
BinnedParticles bin_particles(const ParticleBuffer& local,
                              const AggregationPlan& plan,
                              bool use_fast_path);

/// Pre-optimization reference binning (ordered map + per-particle
/// append). Kept as the differential-testing oracle for `bin_particles`
/// and as the perf baseline the committed BENCH_hotpath.json speedups are
/// measured against.
BinnedParticles bin_particles_reference(const ParticleBuffer& local,
                                        const AggregationPlan& plan,
                                        bool use_fast_path);

}  // namespace writer_detail

}  // namespace spio
