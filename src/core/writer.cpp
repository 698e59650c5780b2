#include "core/writer.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>

#include "core/journal.hpp"
#include "core/metadata.hpp"
#include "core/query_plan/zone_map.hpp"
#include "faultsim/checked_io.hpp"
#include "faultsim/fault_plan.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/run_record.hpp"
#include "obs/trace.hpp"
#include "simmpi/reduce_ops.hpp"
#include "util/checksum.hpp"
#include "util/serialize.hpp"

namespace spio {

namespace {

// Point-to-point tags of the write pipeline; owned by the fault layer so
// fault plans address the same sites the writer uses.
constexpr int kTagMeta = faultsim::kTagMetaExchange;      // u64 count
constexpr int kTagData = faultsim::kTagParticleExchange;  // particle records

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-axis grid state hoisted out of the binning loop: raw edge pointer,
/// dimension, and inverse nominal cell size in one flat struct, so the
/// per-particle lookup runs on registers instead of re-walking the grid's
/// vectors through the virtual interface. `operator()` reproduces
/// `AggregationGrid::locate` exactly (same estimate, same local walk
/// against the same stored edges).
struct HoistedLocator {
  struct Axis {
    const double* edges;
    std::int64_t dims;
    double lo;
    double inv;
  };
  Axis ax[3];
  std::int64_t dx, dy;

  explicit HoistedLocator(const AggregationGrid& g)
      : dx(g.dims().x), dy(g.dims().y) {
    for (int a = 0; a < 3; ++a) {
      ax[a].edges = g.edges(a).data();
      ax[a].dims = g.dims()[a];
      ax[a].lo = g.edges(a).front();
      ax[a].inv = g.inv_cell()[a];
    }
  }

  std::int64_t axis_index(int a, double p) const {
    const Axis& x = ax[a];
    const double est = (p - x.lo) * x.inv;
    std::int64_t i = est > 0.0 ? static_cast<std::int64_t>(est) : 0;
    if (i > x.dims - 1) i = x.dims - 1;
    while (i + 1 < x.dims && p >= x.edges[i + 1]) ++i;
    while (i > 0 && p < x.edges[i]) --i;
    return i;
  }

  int operator()(const Vec3d& p) const {
    return static_cast<int>(axis_index(0, p.x) +
                            dx * (axis_index(1, p.y) +
                                  dy * axis_index(2, p.z)));
  }
};

const char* heuristic_name(LodHeuristic h) {
  switch (h) {
    case LodHeuristic::kRandom:
      return "random";
    case LodHeuristic::kStride:
      return "stride";
    case LodHeuristic::kStratified:
      return "stratified";
  }
  return "unknown";
}

/// Mirror one rank's WriteStats into the metrics registry (naming scheme:
/// docs/OBSERVABILITY.md). One-shot per write, so it runs whenever
/// collection is on regardless of how hot the pipeline itself was.
void publish_write_stats(const WriteStats& s) {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("writer.particles_sent").add(s.particles_sent);
  reg.counter("writer.bytes_sent").add(s.bytes_sent);
  reg.counter("writer.particles_written").add(s.particles_written);
  reg.counter("writer.bytes_written").add(s.bytes_written);
  reg.counter("writer.files_written")
      .add(static_cast<std::uint64_t>(s.files_written));
  if (s.was_aggregator) reg.counter("writer.aggregators").add(1);
  for (const WritePhaseInfo& p : kWritePhases) {
    reg.counter(std::string("writer.") + p.key + "_us")
        .add(static_cast<std::uint64_t>(s.*p.seconds * 1e6));
  }
}

/// Flat config echo for the run record.
std::map<std::string, std::string> config_echo(const WriterConfig& c) {
  const auto yesno = [](bool b) { return std::string(b ? "true" : "false"); };
  std::map<std::string, std::string> out;
  out["factor"] = c.factor.to_string();
  out["adaptive"] = yesno(c.adaptive);
  out["adaptive_refine"] = yesno(c.adaptive_refine);
  out["lod_P"] = std::to_string(c.lod.P);
  out["lod_S"] = std::to_string(c.lod.S);
  out["heuristic"] = heuristic_name(c.heuristic);
  out["write_spatial_metadata"] = yesno(c.write_spatial_metadata);
  out["write_field_ranges"] = yesno(c.write_field_ranges);
  out["fault_injection"] = yesno(c.faults != nullptr);
  return out;
}

/// The failing rank's partial stats for the postmortem bundle: whatever
/// phases completed keep their timings, everything after the failure
/// point reads zero.
obs::JsonValue write_stats_to_json(const WriteStats& s) {
  obs::JsonValue out = obs::JsonValue::object();
  for (const WritePhaseInfo& p : kWritePhases)
    out.set(std::string(p.key) + "_seconds",
            obs::JsonValue::number(s.*p.seconds));
  out.set("particles_sent", obs::JsonValue::number(s.particles_sent));
  out.set("bytes_sent", obs::JsonValue::number(s.bytes_sent));
  out.set("particles_written", obs::JsonValue::number(s.particles_written));
  out.set("bytes_written", obs::JsonValue::number(s.bytes_written));
  out.set("files_written",
          obs::JsonValue::number(std::int64_t{s.files_written}));
  out.set("partition_count",
          obs::JsonValue::number(std::int64_t{s.partition_count}));
  out.set("was_aggregator", obs::JsonValue::boolean(s.was_aggregator));
  return out;
}

/// Echo of the *immutable* fault plan. The injector's per-rank event log
/// is deliberately not read here: other ranks may still be appending to
/// it when one rank fails (it is only aggregatable after the job joins);
/// the flight recorder's kFault records carry the fired injections.
obs::JsonValue fault_plan_to_json(const faultsim::FaultPlan& plan) {
  using obs::JsonValue;
  JsonValue out = JsonValue::object();
  JsonValue messages = JsonValue::array();
  for (const faultsim::MessageRule& r : plan.messages) {
    JsonValue m = JsonValue::object();
    m.set("action",
          JsonValue::string(faultsim::send_action_name(r.action)));
    m.set("tag", JsonValue::number(std::int64_t{r.tag}));
    m.set("src", JsonValue::number(std::int64_t{r.src}));
    m.set("dst", JsonValue::number(std::int64_t{r.dst}));
    m.set("after", JsonValue::number(std::int64_t{r.after}));
    m.set("count", JsonValue::number(std::int64_t{r.count}));
    messages.push_back(std::move(m));
  }
  out.set("messages", std::move(messages));
  JsonValue files = JsonValue::array();
  for (const faultsim::FileRule& r : plan.files) {
    JsonValue f = JsonValue::object();
    f.set("kind", JsonValue::string(faultsim::file_fault_name(r.kind)));
    f.set("rank", JsonValue::number(std::int64_t{r.rank}));
    f.set("path_contains", JsonValue::string(r.path_contains));
    f.set("after", JsonValue::number(std::int64_t{r.after}));
    f.set("count", JsonValue::number(std::int64_t{r.count}));
    files.push_back(std::move(f));
  }
  out.set("files", std::move(files));
  JsonValue deaths = JsonValue::array();
  for (const faultsim::DeathRule& d : plan.deaths) {
    JsonValue dd = JsonValue::object();
    dd.set("rank", JsonValue::number(std::int64_t{d.rank}));
    dd.set("phase", JsonValue::string(faultsim::phase_name(d.phase)));
    deaths.push_back(std::move(dd));
  }
  out.set("deaths", std::move(deaths));
  return out;
}

void dump_write_postmortem(const WriterConfig& config, const WriteStats& stats,
                           int job_ranks, int rank,
                           faultsim::WritePhase phase, const char* reason) {
  obs::PostmortemInfo info;
  info.reason = reason;
  info.failed_rank = rank;
  info.phase = std::string(faultsim::phase_name(phase));
  info.job_ranks = job_ranks;
  info.sections.emplace_back("write_stats", write_stats_to_json(stats));
  obs::JsonValue cfg = obs::JsonValue::object();
  for (const auto& [k, v] : config_echo(config))
    cfg.set(k, obs::JsonValue::string(v));
  info.sections.emplace_back("config", std::move(cfg));
  if (config.faults)
    info.sections.emplace_back("fault_plan",
                               fault_plan_to_json(config.faults->plan()));
  obs::log::Event(obs::log::Level::kError, "write.failed")
      .kv("rank", rank)
      .kv("phase", info.phase)
      .kv("reason", reason);
  obs::save_postmortem(config.dir, info);
}

}  // namespace

namespace writer_detail {

int BinnedParticles::index_of(int partition) const {
  const auto it =
      std::lower_bound(partitions.begin(), partitions.end(), partition);
  if (it == partitions.end() || *it != partition) return -1;
  return static_cast<int>(it - partitions.begin());
}

BinnedParticles bin_particles(const ParticleBuffer& local,
                              const AggregationPlan& plan,
                              bool use_fast_path) {
  BinnedParticles out;
  if (local.empty()) return out;
  const std::size_t n = local.size();
  const std::size_t rs = local.record_size();
  const std::byte* base = local.bytes().data();
  const SpatialPartitioning& part = plan.partitioning();

  if (use_fast_path) {
    out.partitions.push_back(part.partition_of_point(local.position(0)));
    out.counts.push_back(n);
    out.payloads.emplace_back(local.bytes().begin(), local.bytes().end());
    return out;
  }

  // Pass 1: partition of every particle + histogram. Positions are read
  // straight off the AoS records (the schema pins position as field 0).
  // The concrete-grid branch trades the virtual binary search for the
  // inlined O(1) locator; both return identical indices.
  const auto nparts = static_cast<std::size_t>(plan.partition_count());
  std::vector<std::uint32_t> part_of(n);
  std::vector<std::uint64_t> hist(nparts, 0);
  if (const auto* grid = dynamic_cast<const AggregationGrid*>(&part)) {
    const HoistedLocator locate(*grid);
    for (std::size_t i = 0; i < n; ++i) {
      Vec3d pos;
      std::memcpy(&pos, base + i * rs, sizeof(Vec3d));
      const int p = locate(pos);
      part_of[i] = static_cast<std::uint32_t>(p);
      ++hist[static_cast<std::size_t>(p)];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      Vec3d pos;
      std::memcpy(&pos, base + i * rs, sizeof(Vec3d));
      const int p = part.partition_of_point(pos);
      part_of[i] = static_cast<std::uint32_t>(p);
      ++hist[static_cast<std::size_t>(p)];
    }
  }

  // Bin directory: ascending partition ids, payload capacity reserved
  // exactly but *not* value-initialized — the scatter writes every byte,
  // and zero-filling tens of MB first would double the store traffic.
  std::vector<std::int32_t> bin_of(nparts, -1);
  for (std::size_t p = 0; p < nparts; ++p) {
    if (hist[p] == 0) continue;
    bin_of[p] = static_cast<std::int32_t>(out.partitions.size());
    out.partitions.push_back(static_cast<int>(p));
    out.counts.push_back(hist[p]);
    out.payloads.emplace_back();
    out.payloads.back().reserve(hist[p] * rs);
  }

  // Pass 2: contiguous scatter, one record append per particle (a memcpy
  // within reserved capacity). Scanning the input in order keeps original
  // particle order within each bin, so the file bytes match the
  // per-particle reference exactly.
  for (std::size_t i = 0; i < n; ++i) {
    auto& payload = out.payloads[static_cast<std::size_t>(bin_of[part_of[i]])];
    const std::byte* rec = base + i * rs;
    payload.insert(payload.end(), rec, rec + rs);
  }
  return out;
}

BinnedParticles bin_particles_reference(const ParticleBuffer& local,
                                        const AggregationPlan& plan,
                                        bool use_fast_path) {
  BinnedParticles out;
  const auto add_bin = [&out](int p, std::size_t count,
                              std::span<const std::byte> bytes) {
    out.partitions.push_back(p);
    out.counts.push_back(count);
    out.payloads.emplace_back(bytes.begin(), bytes.end());
  };
  if (local.empty()) return out;
  if (use_fast_path) {
    add_bin(plan.partitioning().partition_of_point(local.position(0)),
            local.size(), local.bytes());
    return out;
  }
  std::map<int, ParticleBuffer> bins;
  for (std::size_t i = 0; i < local.size(); ++i) {
    const int p = plan.partitioning().partition_of_point(local.position(i));
    auto it = bins.find(p);
    if (it == bins.end())
      it = bins.emplace(p, ParticleBuffer(local.schema())).first;
    it->second.append_from(local, i);
  }
  for (const auto& [p, bin] : bins) add_bin(p, bin.size(), bin.bytes());
  return out;
}

}  // namespace writer_detail

WriteStats WriteStats::max_over(const WriteStats& a, const WriteStats& b) {
  WriteStats m;
  for (const WritePhaseInfo& p : kWritePhases)
    m.*p.seconds = std::max(a.*p.seconds, b.*p.seconds);
  m.particles_sent = a.particles_sent + b.particles_sent;
  m.bytes_sent = a.bytes_sent + b.bytes_sent;
  m.particles_written = a.particles_written + b.particles_written;
  m.bytes_written = a.bytes_written + b.bytes_written;
  m.files_written = a.files_written + b.files_written;
  m.partition_count = std::max(a.partition_count, b.partition_count);
  m.was_aggregator = a.was_aggregator || b.was_aggregator;
  m.used_aligned_fast_path =
      a.used_aligned_fast_path || b.used_aligned_fast_path;
  return m;
}

namespace {

/// One rank's write, carried from stage to stage: each stage reads what
/// the stages before it left here and adds its own results. The stats and
/// the current fault phase live here too, so the postmortem wrapper can
/// bundle what the failing rank had done and where it was.
struct WriteJob {
  WriteJob(simmpi::Comm& c, const PatchDecomposition& d,
           const ParticleBuffer& l, const WriterConfig& cfg)
      : comm(c), decomp(d), local(l), config(cfg), rank(c.rank()),
        runs(l.record_size()) {}

  simmpi::Comm& comm;
  const PatchDecomposition& decomp;
  const ParticleBuffer& local;
  const WriterConfig& config;
  const int rank;

  WriteStats stats{};
  faultsim::WritePhase phase = faultsim::WritePhase::kSetup;

  // plan_aggregation
  std::optional<AggregationPlan> plan;
  bool fast_path = false;
  // exchange_counts
  int fast_partition = -1;               // the aligned fast path's one bin
  writer_detail::BinnedParticles bins;   // the general path's bins
  int my_partition = -1;                 // partition aggregated here, or -1
  std::vector<int> count_senders;
  std::vector<std::uint64_t> incoming_counts;
  std::uint64_t incoming_total = 0;
  // exchange_particles: the records aggregated here as byte runs in
  // ascending sender order, and the buffers those runs point into (the
  // rest point into `local`); kept until the data file is written
  std::vector<std::vector<std::byte>> received;
  std::vector<std::byte> self_owned;
  RecordRuns runs;
  // reorder: the data file's LOD order as indices into `runs`
  std::vector<std::uint32_t> order;
  // write_data_file
  FileRecord record;
  std::uint64_t crc = 0;
  std::vector<FieldRange> zones;
  // commit_metadata (rank 0 only)
  obs::WriteRunInfo::LoadBalance balance;
};

/// Announce a phase entry: flight record, and the fault injector's
/// scripted rank death when one is installed.
void enter_phase(WriteJob& job, faultsim::WritePhase phase) {
  job.phase = phase;
  obs::flight_record(obs::FlightType::kPhase,
                     faultsim::phase_name(phase).data());
  if (job.config.faults) job.config.faults->on_phase(job.rank, phase);
}

/// Point-to-point exchange: under fault injection the acknowledged retry
/// protocol, which recovers dropped, duplicated and delayed messages;
/// otherwise plain sends and receives.
std::vector<std::vector<std::byte>> exchange(
    WriteJob& job, std::vector<faultsim::Outbound> out,
    const std::vector<int>& expect, int tag) {
  if (job.config.faults) {
    return faultsim::reliable_exchange(job.comm, std::move(out), expect, tag,
                                       job.config.retry);
  }
  for (auto& o : out) job.comm.send_bytes(o.dst, tag, std::move(o.payload));
  std::vector<std::vector<std::byte>> in;
  in.reserve(expect.size());
  for (const int s : expect)
    in.push_back(job.comm.recv_message(s, tag).payload);
  return in;
}

/// Rank 0 creates the dataset directory and opens the write journal
/// before anyone writes into it: from here until the metadata commit, a
/// crash leaves a journal that marks the directory incomplete.
void open_dataset(WriteJob& job) {
  if (job.rank == 0) {
    std::error_code ec;
    std::filesystem::create_directories(job.config.dir, ec);
    SPIO_CHECK(!ec, IoError, "cannot create dataset directory '"
                                 << job.config.dir.string()
                                 << "': " << ec.message());
    WriteJournal::begin(job.config.dir);
  }
  job.comm.barrier();
  // Fatal-signal black box: if the process dies mid-write, the installed
  // crash handler (when any) dumps the flight rings next to this dataset.
  obs::set_crash_dump_dir(job.config.dir);
}

AggregationPlan make_plan(const WriteJob& job, const Box3& local_bounds) {
  const WriterConfig& config = job.config;
  constexpr AggregatorPlacement kUniform = AggregatorPlacement::kUniform;
  // The simulation contract is that particles lie within their owner's
  // patch; drifting particles (e.g. a checkpoint taken mid-advection)
  // break it. Detect spill collectively so every rank picks the same
  // plan construction.
  const bool my_spill = !job.local.empty() &&
                        !job.decomp.patch(job.rank).contains_box(local_bounds);
  if (config.adaptive ||
      job.comm.allreduce(my_spill, simmpi::op::logical_or)) {
    // All-to-all exchange of tight extents + counts (§6); also used to
    // repair the communication sets when particles strayed.
    RankExtent mine{local_bounds, job.local.size()};
    const std::vector<RankExtent> extents = job.comm.allgather(mine);
    if (!config.adaptive) {
      return AggregationPlan::non_adaptive_with_extents(
          job.decomp, config.factor, kUniform, extents);
    }
    return config.adaptive_refine
               ? AggregationPlan::adaptive_refined(job.decomp, config.factor,
                                                   kUniform, extents)
               : AggregationPlan::adaptive(job.decomp, config.factor,
                                           kUniform, extents);
  }
  return AggregationPlan::non_adaptive(job.decomp, config.factor, kUniform);
}

/// Steps 1 + 2: aggregation grid setup and aggregator selection.
void plan_aggregation(WriteJob& job) {
  const Box3 local_bounds = job.local.bounds();
  const AggregationPlan& plan = job.plan.emplace(make_plan(job, local_bounds));
  job.stats.partition_count = plan.partition_count();

  // The aligned fast path ships whole buffers without a per-particle
  // scan; it applies only when the plan is patch-aligned and this rank's
  // particles verifiably stayed home.
  job.fast_path = plan.aligned() && !job.config.force_general_exchange &&
                  (job.local.empty() ||
                   job.decomp.patch(job.rank).contains_box(local_bounds));
  job.stats.used_aligned_fast_path = job.fast_path && !job.local.empty();
}

/// Step 3: metadata exchange (particle counts).
void exchange_counts(WriteJob& job) {
  const AggregationPlan& plan = *job.plan;
  const ParticleBuffer& local = job.local;
  const int rank = job.rank;
  // On the aligned fast path the single bin is the whole local buffer;
  // materializing it is deferred until we know whether it must travel at
  // all (a self-aggregated buffer is never copied into a message).
  if (job.fast_path && !local.empty())
    job.fast_partition =
        plan.partitioning().partition_of_point(local.position(0));
  if (!job.fast_path)
    job.bins = writer_detail::bin_particles(local, plan, false);

  // A bin must never target a partition outside the plan's target set —
  // that aggregator would not expect our message.
  const auto check_target = [&](int p) {
    SPIO_CHECK(std::binary_search(plan.targets_of(rank).begin(),
                                  plan.targets_of(rank).end(), p),
               ConfigError,
               "rank " << rank << " holds particles for partition " << p
                       << " outside its plan target set; particles stray "
                          "outside the declared patch/extent");
  };
  if (job.fast_partition >= 0) check_target(job.fast_partition);
  for (const int p : job.bins.partitions) check_target(p);

  // Send a count to the aggregator of every partition we *might* feed
  // (the plan's conservative target set), so receivers can post a matching
  // number of receives without a handshake.
  std::vector<faultsim::Outbound> count_msgs;
  for (const int p : plan.targets_of(rank)) {
    std::uint64_t count = 0;
    if (p == job.fast_partition) {
      count = local.size();
    } else {
      const int b = job.bins.index_of(p);
      if (b >= 0) count = job.bins.counts[static_cast<std::size_t>(b)];
    }
    BinaryWriter w;
    w.write<std::uint64_t>(count);
    count_msgs.push_back({plan.aggregator_of(p), w.take()});
  }

  job.my_partition = plan.partition_owned_by(rank);
  if (job.my_partition >= 0)
    job.count_senders = plan.senders_of(job.my_partition);
  const auto count_payloads =
      exchange(job, std::move(count_msgs), job.count_senders, kTagMeta);

  job.incoming_counts.assign(job.count_senders.size(), 0);
  if (job.my_partition < 0) return;
  for (std::size_t i = 0; i < job.count_senders.size(); ++i) {
    BinaryReader r(count_payloads[i]);
    job.incoming_counts[i] = r.read<std::uint64_t>();
    SPIO_CHECK(r.remaining() == 0, FormatError,
               "count message from rank " << job.count_senders[i]
                                          << " carries trailing bytes");
    job.incoming_total += job.incoming_counts[i];
  }
  // The metadata exchange is exactly what lets the aggregator size its
  // buffer *before* any data moves — so an infeasible aggregation can be
  // rejected here instead of running out of memory mid-exchange.
  const std::uint64_t limit = job.config.max_aggregation_bytes;
  const std::uint64_t need = job.incoming_total * local.record_size();
  SPIO_CHECK(limit == 0 || need <= limit, ConfigError,
             "aggregator " << rank << " (partition " << job.my_partition
                           << ") would need " << need
                           << " bytes, over the configured limit of " << limit
                           << "; use a smaller partition factor");
}

/// Steps 4 + 5: exchange particles. The aggregator keeps what arrived
/// where it landed; the data file is later gathered straight from it.
void exchange_particles(WriteJob& job) {
  const AggregationPlan& plan = *job.plan;
  const ParticleBuffer& local = job.local;
  const int rank = job.rank;
  // Self-send elision: a bin whose aggregator is this rank becomes a run
  // in place instead of looping through the mailbox. Disabled under fault
  // injection so scripted transport faults keep addressing the same
  // message sites as before.
  bool self_elided = false;
  std::span<const std::byte> self_bytes{};

  std::vector<faultsim::Outbound> particle_msgs;
  if (job.fast_partition >= 0) {
    const int agg = plan.aggregator_of(job.fast_partition);
    if (agg == rank && !job.config.faults) {
      // The whole local buffer stays home: no copy, no message.
      self_elided = true;
      self_bytes = local.bytes();
    } else {
      if (agg != rank) {
        job.stats.particles_sent += local.size();
        job.stats.bytes_sent += local.byte_size();
      }
      particle_msgs.push_back({agg, std::vector<std::byte>(
                                        local.bytes().begin(),
                                        local.bytes().end())});
    }
  }
  writer_detail::BinnedParticles& bins = job.bins;
  for (std::size_t b = 0; b < bins.bin_count(); ++b) {
    const int agg = plan.aggregator_of(bins.partitions[b]);
    if (agg == rank && !job.config.faults) {
      self_elided = true;
      job.self_owned = std::move(bins.payloads[b]);
      self_bytes = job.self_owned;
      continue;
    }
    if (agg != rank) {
      job.stats.particles_sent += bins.counts[b];
      job.stats.bytes_sent += bins.payloads[b].size();
    }
    particle_msgs.push_back({agg, std::move(bins.payloads[b])});
  }

  // Only senders that announced a non-zero count actually ship data; an
  // elided self-send never enters the mailbox, so it is not expected.
  std::vector<int> particle_senders;
  for (std::size_t i = 0; i < job.count_senders.size(); ++i) {
    if (job.incoming_counts[i] == 0) continue;
    if (self_elided && job.count_senders[i] == rank) continue;
    particle_senders.push_back(job.count_senders[i]);
  }

  // Deterministic run order (ascending sender rank, the elided local
  // payload at this rank's ordinal) makes the shuffled file reproducible
  // and byte-identical to the pre-elision protocol.
  job.received =
      exchange(job, std::move(particle_msgs), particle_senders, kTagData);
  std::size_t next = 0;
  bool spliced = !self_elided;
  for (const int s : particle_senders) {
    if (!spliced && rank < s) {
      job.runs.add(self_bytes);
      spliced = true;
    }
    job.runs.add(job.received[next++]);
  }
  if (!spliced) job.runs.add(self_bytes);
  if (job.my_partition >= 0) {
    SPIO_CHECK(job.runs.size() == job.incoming_total, FormatError,
               "aggregator " << rank << " received " << job.runs.size()
                             << " particles but metadata promised "
                             << job.incoming_total);
  }
}

/// Step 6: LOD re-ordering — only the permutation; the records stay in
/// the exchange's runs until the file streams out of them.
void reorder(WriteJob& job) {
  if (job.runs.size() == 0) return;
  const std::uint64_t seed = stream_seed(
      job.config.shuffle_seed, static_cast<std::uint64_t>(job.my_partition));
  job.order = lod_order(job.runs, seed, job.config.heuristic);
}

/// Step 7: write this aggregator's data file in one streamed pass. The
/// LOD order is gathered from the runs in L2-sized chunks into one reused
/// buffer; each chunk folds into the zone table, then is written and
/// CRC'd while still in cache. A rewrite under fault injection runs the
/// gather again; the zones are taken on the first run only.
void write_data_file(WriteJob& job) {
  const WriterConfig& config = job.config;
  const std::uint64_t n = job.runs.size();
  if (job.my_partition < 0 || n == 0) return;
  const Schema& schema = job.local.schema();
  FileRecord& rec = job.record;
  rec.partition_id = static_cast<std::uint32_t>(job.my_partition);
  rec.aggregator_rank = static_cast<std::uint32_t>(job.rank);
  rec.particle_count = n;
  rec.bounds = job.plan->partitioning().partition_box(job.my_partition);

  constexpr std::size_t kChunkBytes = std::size_t{256} << 10;
  const std::size_t step =
      std::max<std::size_t>(1, kChunkBytes / schema.record_size());
  ZoneAccumulator zones(schema, config.lod, n);
  bool zoned = false;
  ParticleBuffer chunk(schema);
  chunk.reserve(step);
  const ChunkProducer produce = [&](const ChunkSink& sink) {
    const std::span<const std::uint32_t> order = job.order;
    for (std::size_t k = 0; k < order.size(); k += step) {
      chunk.clear();
      lod_gather(job.runs, order.subspan(k, std::min(step, order.size() - k)),
                 chunk);
      if (!zoned) zones.add(chunk.bytes());
      sink(chunk.bytes());
    }
    zoned = true;
  };
  const auto path = config.dir / rec.file_name();
  const std::uint64_t bytes = n * schema.record_size();
  // Under fault injection: read back, compare checksums, rewrite torn or
  // corrupted attempts within a bounded budget.
  job.crc = config.faults
                ? faultsim::checked_write_file(path, bytes, produce,
                                               config.faults, job.rank)
                : crc64_write_stream(path, produce);
  // The zone table and, as the union of its zones, the file-level field
  // ranges.
  job.zones = zones.take();
  if (config.write_field_ranges) {
    std::size_t rcount = 0;
    for (const FieldDesc& fd : schema.fields()) rcount += fd.components;
    rec.field_ranges = zone_union(job.zones, rcount);
  }
  job.stats.particles_written = n;
  job.stats.bytes_written = bytes;
  job.stats.files_written = 1;
  job.stats.was_aggregator = true;
  // The file is out: release what the exchange received.
  job.order = {};
  job.runs = RecordRuns(schema.record_size());
  job.received = {};
  job.self_owned = {};
}

/// This rank's entry in the commit gather (empty when it wrote no file):
/// its file record, then the file's CRC and zone table. Those two ride
/// the same wire but never enter the frozen meta.spio layout; rank 0
/// splits them into checksums.spio and zones.spio.
std::vector<std::byte> encode_commit_entry(const WriteJob& job) {
  BinaryWriter w;
  if (job.stats.files_written == 0) return w.take();
  const WriterConfig& config = job.config;
  job.record.serialize(w, config.write_spatial_metadata,
                       config.write_field_ranges);
  w.write<std::uint64_t>(job.crc);
  // Zone count first so rank 0 can size the blob.
  w.write<std::uint32_t>(
      zone_file_count(config.lod, job.record.particle_count));
  for (const FieldRange& z : job.zones) {
    w.write<double>(z.min);
    w.write<double>(z.max);
  }
  return w.take();
}

/// Per-partition load balance over the committed files (the paper's §6
/// adaptive-aggregation motivation), mirrored into the
/// `write.partition_*` gauges.
obs::WriteRunInfo::LoadBalance measure_load_balance(
    const std::vector<FileRecord>& files) {
  obs::WriteRunInfo::LoadBalance lb;
  if (files.empty()) return lb;
  std::uint64_t sum = 0;
  for (const FileRecord& f : files) {
    lb.partition_particles_max =
        std::max(lb.partition_particles_max, f.particle_count);
    sum += f.particle_count;
  }
  lb.partition_particles_mean =
      static_cast<double>(sum) / static_cast<double>(files.size());
  lb.imbalance = lb.partition_particles_mean > 0
                     ? static_cast<double>(lb.partition_particles_max) /
                           lb.partition_particles_mean
                     : 0.0;
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.gauge("write.partition_particles_max")
        .set(static_cast<double>(lb.partition_particles_max));
    reg.gauge("write.partition_particles_mean")
        .set(lb.partition_particles_mean);
    reg.gauge("write.partition_imbalance").set(lb.imbalance);
  }
  return lb;
}

/// Rank 0: decode every rank's commit entry and lay down checksums.spio
/// and zones.spio, then meta.spio (the commit point), then close the
/// journal. The sidecars land first so a metadata file never vouches for
/// a sidecar that a crash kept from reaching the disk.
void save_metadata(WriteJob& job,
                   const std::vector<std::vector<std::byte>>& gathered) {
  const WriterConfig& config = job.config;
  DatasetMetadata meta;
  meta.schema = job.local.schema();
  meta.domain = job.decomp.domain();
  meta.lod = config.lod;
  meta.heuristic = config.heuristic;
  meta.has_bounds = config.write_spatial_metadata;
  meta.has_field_ranges = config.write_field_ranges;
  ChecksumTable checksums;
  ZoneMapTable zone_table;
  zone_table.range_count = meta.range_count();
  zone_table.lod = config.lod;
  for (const auto& from_rank : gathered) {
    if (from_rank.empty()) continue;
    BinaryReader r(from_rank);
    const FileRecord f = FileRecord::deserialize(
        r, meta.has_bounds, meta.has_field_ranges, meta.range_count());
    checksums.entries.push_back({f.aggregator_rank, r.read<std::uint64_t>()});
    FileZones fz;
    fz.aggregator_rank = f.aggregator_rank;
    fz.particle_count = f.particle_count;
    fz.zones.resize(std::size_t{r.read<std::uint32_t>()} *
                    meta.range_count());
    for (FieldRange& z : fz.zones) {
      z.min = r.read<double>();
      z.max = r.read<double>();
    }
    zone_table.files.push_back(std::move(fz));
    meta.total_particles += f.particle_count;
    meta.files.push_back(f);
  }
  std::sort(meta.files.begin(), meta.files.end(),
            [](const FileRecord& a, const FileRecord& b) {
              return a.partition_id < b.partition_id;
            });
  job.balance = measure_load_balance(meta.files);

  std::sort(checksums.entries.begin(), checksums.entries.end(),
            [](const ChecksumTable::Entry& a, const ChecksumTable::Entry& b) {
              return a.aggregator_rank < b.aggregator_rank;
            });
  checksums.save(config.dir);
  meta.has_zone_maps = !meta.files.empty();
  if (meta.has_zone_maps) {
    std::sort(zone_table.files.begin(), zone_table.files.end(),
              [](const FileZones& a, const FileZones& b) {
                return a.aggregator_rank < b.aggregator_rank;
              });
    if (config.faults) {
      // Under fault injection the sidecar takes the same validated write
      // as the data files, so torn/corrupt-write schedules can target
      // `zones.spio` too.
      faultsim::checked_write_file(config.dir / ZoneMapTable::kFileName,
                                   zone_table.serialize(), config.faults,
                                   job.rank);
    } else {
      zone_table.save(config.dir);
    }
  }
  // meta.spio is the commit point; the journal closes only after it.
  meta.save(config.dir);
  WriteJournal::commit(config.dir);
  obs::log::Event(obs::log::Level::kInfo, "write.commit")
      .kv("dir", config.dir.string())
      .kv("particles", meta.total_particles)
      .kv("files", static_cast<std::uint64_t>(meta.files.size()))
      .kv("imbalance", job.balance.imbalance);
}

/// Step 8: gather every file's record on rank 0 and commit the metadata.
/// The write is complete (data + metadata) only once every rank returns.
void commit_metadata(WriteJob& job) {
  const auto gathered =
      job.comm.allgatherv<std::byte>(encode_commit_entry(job));
  if (job.rank == 0) save_metadata(job, gathered);
  job.comm.barrier();
}

/// Gather every rank's stats so rank 0 can lay down the Darshan-style run
/// record next to the dataset. Every rank of the job runs this or none
/// does (see run_pipeline), so the extra collective is uniform.
void save_run_record(const WriteJob& job) {
  static_assert(std::is_trivially_copyable_v<WriteStats>);
  const std::vector<WriteStats> all =
      job.comm.gather<WriteStats>(job.stats, 0);
  if (job.rank != 0) return;
  obs::WriteRunInfo info;
  info.ranks = job.comm.size();
  info.schema_bytes = job.local.record_size();
  info.partition_count = job.stats.partition_count;
  info.config = config_echo(job.config);
  for (int r = 0; r < job.comm.size(); ++r) {
    const WriteStats& s = all[static_cast<std::size_t>(r)];
    obs::RankPhaseRow row{r, {}};
    for (const WritePhaseInfo& p : kWritePhases)
      row.seconds.emplace_back(p.key, s.*p.seconds);
    info.phases.push_back(std::move(row));
    info.totals.particles_sent += s.particles_sent;
    info.totals.bytes_sent += s.bytes_sent;
    info.totals.particles_written += s.particles_written;
    info.totals.bytes_written += s.bytes_written;
    info.totals.files_written += static_cast<std::uint64_t>(s.files_written);
  }
  info.load_balance = job.balance;
  obs::save_write_record(job.config.dir, info,
                         obs::MetricsRegistry::global().snapshot());
}

/// The pipeline's stages, paired index by index with `kWritePhases`.
using Stage = void (*)(WriteJob&);
constexpr std::array<Stage, kWritePhases.size()> kStages = {
    plan_aggregation, exchange_counts, exchange_particles,
    reorder,          write_data_file, commit_metadata};

/// Run one stage as its phase: announce the phase's fault site (if any),
/// open its span and store its wall seconds in the phase's stats member.
void run_stage(WriteJob& job, obs::PhaseSpan& span,
               const WritePhaseInfo& phase, Stage stage) {
  if (phase.fault_phase) enter_phase(job, *phase.fault_phase);
  span.begin(phase.span);
  const auto t0 = Clock::now();
  stage(job);
  job.stats.*phase.seconds = seconds_since(t0);
}

void run_pipeline(WriteJob& job) {
  // simmpi ranks are threads of one process, so every rank observes the
  // same collection state and agrees on the run-record collective
  // without a broadcast.
  const bool record_run = obs::run_records_enabled();
  obs::ScopedSpan whole_span("write.dataset", "writer");
  obs::PhaseSpan span("writer");
  open_dataset(job);
  for (std::size_t i = 0; i < kStages.size(); ++i)
    run_stage(job, span, kWritePhases[i], kStages[i]);
  span.end();
  whole_span.end();
  publish_write_stats(job.stats);
  if (record_run) save_run_record(job);
}

}  // namespace

WriteStats write_dataset(simmpi::Comm& comm, const PatchDecomposition& decomp,
                         const ParticleBuffer& local,
                         const WriterConfig& config) {
  SPIO_CHECK(!config.dir.empty(), ConfigError,
             "WriterConfig.dir must be set");
  SPIO_CHECK(config.factor.valid(), ConfigError,
             "invalid partition factor " << config.factor.to_string());
  SPIO_CHECK(config.lod.valid(), ConfigError,
             "invalid LOD parameters P=" << config.lod.P
                                         << " S=" << config.lod.S);
  SPIO_CHECK(comm.size() == decomp.rank_count(), ConfigError,
             "decomposition has " << decomp.rank_count()
                                  << " patches for a job of " << comm.size()
                                  << " ranks");

  WriteJob job(comm, decomp, local, config);
  try {
    run_pipeline(job);
    return job.stats;
  } catch (const simmpi::Aborted&) {
    // Secondary casualty of another rank's failure: that rank owns the
    // postmortem; dumping here would overwrite it with less context.
    throw;
  } catch (const std::exception& e) {
    // A failure before rank 0 created the directory has nowhere to dump.
    std::error_code ec;
    if (std::filesystem::is_directory(config.dir, ec))
      dump_write_postmortem(config, job.stats, comm.size(), comm.rank(),
                            job.phase, e.what());
    throw;
  }
}

}  // namespace spio
