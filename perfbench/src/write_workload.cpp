/// checkpoint_write: a simulation checkpointing repeatedly. Four simmpi
/// ranks each hold a uniform Uintah patch; partition factor 2x1x1 gives
/// two aggregators and two data files per checkpoint, written with the
/// default WriterConfig (journal, checksums, zone maps, field ranges).
/// Every checkpoint goes to a fresh directory and is timed
/// barrier-to-barrier on rank 0; validation and deletion happen outside
/// the timed region.

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/aggregation_plan.hpp"
#include "core/lod.hpp"
#include "core/metadata.hpp"
#include "core/query_plan/zone_map.hpp"
#include "core/validate.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace spio;

namespace {

constexpr int kRanks = 4;
const PartitionFactor kFactor{2, 1, 1};

/// One timed checkpoint as rank 0 saw it.
struct Checkpoint {
  double seconds = 0;
  bool traced = false;
  WriteStats job;     ///< max over ranks (traced only)
  WriteStats rank0;   ///< the timing rank's own phases (traced only)
  std::uint64_t bytes_sent = 0;  ///< point-to-point bytes (traced only)
};

std::uint64_t p2p_bytes(const simmpi::Comm& comm) {
  std::uint64_t total = 0;
  for (int s = 0; s < comm.size(); ++s)
    for (int d = 0; d < comm.size(); ++d) total += comm.bytes_sent(s, d);
  return total;
}

/// Median of `reps` timings of `fn`, in ms.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    ms.push_back(seconds_between(t0, now_ns()) * 1e3);
  }
  return median(ms);
}

/// Outside replays of the write-side kernels on one aggregator's
/// assembled buffer (partition 0: the concatenated bins of every rank).
void replay_write_kernels(const std::vector<ParticleBuffer>& locals,
                          const PatchDecomposition& decomp, LayerValues& lv) {
  const AggregationPlan plan = AggregationPlan::non_adaptive(
      decomp, kFactor, AggregatorPlacement::kUniform);
  ParticleBuffer agg(locals.front().schema());
  for (const ParticleBuffer& local : locals) {
    const auto bins = writer_detail::bin_particles(local, plan, false);
    const int k = bins.index_of(0);
    if (k >= 0) agg.append_bytes(bins.payloads[static_cast<std::size_t>(k)]);
  }
  constexpr int kReps = 5;
  const WriterConfig defaults;
  std::vector<double> reorder;
  for (int r = 0; r < kReps; ++r) {
    ParticleBuffer copy = agg;
    const std::int64_t t0 = now_ns();
    lod_reorder(copy, stream_seed(defaults.shuffle_seed, 0), defaults.heuristic);
    reorder.push_back(seconds_between(t0, now_ns()) * 1e3);
    if (r == 0) agg = std::move(copy);  // later kernels see LOD order
  }
  lv["lod.reorder_ms"] = median(reorder);
  lv["zone_map.build_ms"] = median_ms(kReps, [&] {
    if (compute_zone_maps(agg, defaults.lod).empty())
      throw std::runtime_error("empty zone map");
  });
  volatile std::uint64_t sink = 0;
  lv["checksum.crc_ms"] =
      median_ms(kReps, [&] { sink = sink ^ crc64(agg.bytes()); });
  // The checkpoint itself takes the aligned fast path (every particle
  // stays in its patch); this is the per-particle path's cost on one
  // rank's buffer, the binning a non-aligned write pays.
  lv["writer.bin_ms"] = median_ms(kReps, [&] {
    if (writer_detail::bin_particles(locals.front(), plan, false).bin_count() == 0)
      throw std::runtime_error("no bins");
  });
}

}  // namespace

void run_checkpoint_write(const Options& opt, Report& rep) {
  const Schema schema = Schema::uintah();
  const std::uint64_t per_rank = opt.tiny ? 4096 : 131072;
  const std::uint64_t min_ops = opt.tiny ? 6 : 100;
  const int setup_reps = opt.tiny ? 2 : 5;
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), kRanks);
  const std::uint64_t total_particles = per_rank * kRanks;
  const std::uint64_t checkpoint_bytes = total_particles * schema.record_size();
  rep.stamp("ranks", kRanks);
  rep.stamp("particles_per_rank", static_cast<double>(per_rank));
  rep.stamp("factor", kFactor.to_string());
  rep.stamp("checkpoint_bytes", static_cast<double>(checkpoint_bytes));

  // Set-up: particle generation, repeated; the median is setup_s.
  std::vector<ParticleBuffer> locals;
  std::vector<double> setups;
  for (int s = 0; s < setup_reps; ++s) {
    const std::int64_t t0 = now_ns();
    std::vector<ParticleBuffer> gen;
    for (int r = 0; r < kRanks; ++r)
      gen.push_back(workload::uniform(
          schema, decomp.patch(r), per_rank,
          stream_seed(opt.seed, static_cast<std::uint64_t>(r)),
          static_cast<std::uint64_t>(r) * per_rank));
    setups.push_back(seconds_between(t0, now_ns()));
    locals = std::move(gen);
  }
  {
    std::vector<std::uint64_t> words;
    for (const ParticleBuffer& b : locals) words.push_back(crc64(b.bytes()));
    rep.stamp("sequence_digest", hex64(digest_words(words)));
  }

  std::vector<Checkpoint> done;
  std::uint64_t result_digest = 0;
  mark_measurement_start(rep);
  std::uint64_t invalid = 0;
  std::string first_invalid;
  const std::int64_t start = now_ns();
  try {
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      const int rank = comm.rank();
      for (std::uint64_t i = 0;; ++i) {
        const bool traced = opt.trace && (i % 2 == 1);
        WriterConfig cfg;
        cfg.dir = opt.work_dir / ("ckpt_" + std::to_string(i));
        cfg.factor = kFactor;
        const std::uint64_t sent0 = rank == 0 ? p2p_bytes(comm) : 0;
        comm.barrier();
        const std::int64_t t0 = now_ns();
        const WriteStats s = write_dataset(
            comm, decomp, locals[static_cast<std::size_t>(rank)], cfg);
        comm.barrier();
        const std::int64_t t1 = now_ns();
        Checkpoint c{seconds_between(t0, t1), traced, {}, s, 0};
        if (traced) {
          const std::vector<WriteStats> all = comm.gather(s, 0);
          if (rank == 0) {
            for (const WriteStats& w : all) c.job = WriteStats::max_over(c.job, w);
            c.bytes_sent = p2p_bytes(comm) - sent0;
          }
        }
        bool more = false;
        if (rank == 0) {
          done.push_back(c);
          // Outside the timed region: validate, digest, delete.
          const ValidationReport v = validate_dataset(cfg.dir);
          const DatasetMetadata meta = DatasetMetadata::load(cfg.dir);
          if (!v.ok() || meta.total_particles != total_particles) {
            ++invalid;
            if (first_invalid.empty())
              first_invalid = v.ok() ? "wrong particle count" : v.errors.front();
          }
          if (i == 0) {
            std::vector<std::uint64_t> words;
            for (const FileRecord& f : meta.files)
              words.push_back(crc64_file(cfg.dir / f.file_name()));
            result_digest = digest_words(words);
          }
          fs::remove_all(cfg.dir);
          const double elapsed = seconds_between(start, now_ns());
          more = (elapsed < opt.seconds || done.size() < min_ops) &&
                 elapsed < 150.0;
        }
        if (!comm.bcast(more, 0)) break;
      }
    });
  } catch (const std::exception& e) {
    // A rank failure aborts the job: the checkpoint in flight failed.
    rep.attempted += 1;
    rep.failed += 1;
    rep.fail(std::string("checkpoint failed: ") + e.what());
  }
  rep.stamp("result_digest", hex64(result_digest));
  rep.attempted += done.size();
  rep.failed += invalid;
  if (invalid) rep.fail("invalid checkpoint: " + first_invalid);
  if (done.empty()) {
    rep.fail("no checkpoint completed");
    return;
  }

  std::vector<double> lat_ms, traced_ms;
  for (const Checkpoint& c : done)
    (c.traced ? traced_ms : lat_ms).push_back(c.seconds * 1e3);

  if (!opt.trace) {
    // Rates over the timed regions of rounds of 10 checkpoints, median
    // over rounds.
    constexpr std::size_t kRound = 10;
    std::vector<double> secs, ones(lat_ms.size(), 1.0);
    for (const double ms : lat_ms) secs.push_back(ms / 1e3);
    const double ops_per_s = median_group_rate(secs, ones, kRound);
    rep.stamp("samples", static_cast<double>(lat_ms.size()));
    rep.stamp("latency_tail_percentile", 90);
    rep.metric("setup_s", median(setups), "s");
    rep.metric("ops_per_s", ops_per_s, "1/s");
    rep.metric("mb_per_s",
               ops_per_s * static_cast<double>(checkpoint_bytes) / 1e6, "MB/s");
    rep.metric("latency_p50_ms", median(lat_ms), "ms");
    rep.metric("latency_tail_ms", chunked_tail(lat_ms, 0.90), "ms");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced: the writer's own Fig. 6 phases (max over ranks, median over
  // checkpoints) and the part of rank 0's barrier-to-barrier wall time its
  // own phases do not cover (per-phase maxima come from different ranks,
  // so their sum can exceed the wall).
  std::vector<double> setup, meta, part, reorder, io, mio, unattr, sent;
  for (const Checkpoint& c : done) {
    if (!c.traced) continue;
    setup.push_back(c.job.setup_seconds * 1e3);
    meta.push_back(c.job.meta_exchange_seconds * 1e3);
    part.push_back(c.job.particle_exchange_seconds * 1e3);
    reorder.push_back(c.job.reorder_seconds * 1e3);
    io.push_back(c.job.file_io_seconds * 1e3);
    mio.push_back(c.job.metadata_io_seconds * 1e3);
    unattr.push_back((c.seconds - c.rank0.total_seconds()) * 1e3);
    sent.push_back(static_cast<double>(c.bytes_sent));
  }
  for (std::size_t k = 1; k < sent.size(); ++k)
    if (sent[k] != sent[0]) rep.fail("simmpi byte count differs between checkpoints");
  LayerValues lv;
  lv["writer.setup_ms"] = median(setup);
  lv["writer.meta_exchange_ms"] = median(meta);
  lv["writer.particle_exchange_ms"] = median(part);
  lv["writer.reorder_ms"] = median(reorder);
  lv["writer.file_io_ms"] = median(io);
  lv["writer.metadata_io_ms"] = median(mio);
  lv["writer.unattributed_ms"] = median(unattr);
  lv["simmpi.bytes_sent"] = sent.empty() ? 0 : sent.front();
  lv["op.wall_ms"] = mean(traced_ms);
  lv["op.unattributed_ms"] = mean(unattr);
  lv["trace.overhead_pct"] =
      (median(traced_ms) / median(lat_ms) - 1.0) * 100.0;
  replay_write_kernels(locals, decomp, lv);
  rep.stamp("traced_checkpoints", static_cast<double>(traced_ms.size()));
  emit_layer_metrics(rep, lv);
}

}  // namespace perfbench
