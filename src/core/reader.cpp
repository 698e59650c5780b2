#include "core/reader.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>

#include "core/journal.hpp"
#include "core/read_engine.hpp"
#include "obs/access_profile.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"
#include "workload/decomposition.hpp"

namespace spio {

namespace {

using Clock = std::chrono::steady_clock;

/// Copy-out is handed out in contiguous file groups of at least this many
/// result bytes: below it, a hand-off to a pool worker costs more than
/// the copy it moves off the caller.
constexpr std::size_t kCopyChunkBytes = std::size_t{512} << 10;

/// Run `body(i)` for every i in [0, count): `runners` pool tasks, and the
/// caller too when `caller_helps`, each claim the next unclaimed index
/// until none is left; returns once every task has finished. A handful
/// of hand-offs per call instead of one per index, and a thread that
/// starts late or is descheduled holds up one index, not a fixed share
/// of them. `body` must not throw.
template <class Body>
void run_claimed(ThreadPool& pool, std::size_t count, std::size_t runners,
                 bool caller_helps, const Body& body) {
  std::atomic<std::size_t> next{0};
  const auto claim = [&]() noexcept {
    for (std::size_t i;
         (i = next.fetch_add(1, std::memory_order_relaxed)) < count;)
      body(i);
  };
  std::vector<std::future<void>> pending;
  pending.reserve(runners);
  for (std::size_t r = 0; r < runners; ++r) pending.push_back(pool.submit(claim));
  if (caller_helps) claim();
  for (std::future<void>& f : pending) f.get();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Return-side counters for one query (naming: docs/OBSERVABILITY.md).
/// The scan-side counters live in `read_data_file`, so query layers and
/// direct file readers never double-count.
void publish_returned(std::uint64_t particles, std::uint64_t bytes) {
  if (!obs::stats_enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("reader.particles_returned").add(particles);
  reg.counter("reader.bytes_returned").add(bytes);
  const std::uint64_t read = reg.counter("reader.bytes_read").value();
  const std::uint64_t ret = reg.counter("reader.bytes_returned").value();
  if (ret > 0)
    reg.gauge("reader.read_amplification")
        .set(static_cast<double>(read) / static_cast<double>(ret));
}

}  // namespace

ReadStats ReadStats::max_over(const ReadStats& a, const ReadStats& b) {
  ReadStats m;
  m.files_opened = a.files_opened + b.files_opened;
  m.bytes_read = a.bytes_read + b.bytes_read;
  m.particles_scanned = a.particles_scanned + b.particles_scanned;
  m.particles_returned = a.particles_returned + b.particles_returned;
  m.cache_hits = a.cache_hits + b.cache_hits;
  m.cache_misses = a.cache_misses + b.cache_misses;
  m.files_skipped = a.files_skipped + b.files_skipped;
  m.lod_bytes_skipped = a.lod_bytes_skipped + b.lod_bytes_skipped;
  m.file_io_seconds = std::max(a.file_io_seconds, b.file_io_seconds);
  m.exchange_seconds = std::max(a.exchange_seconds, b.exchange_seconds);
  return m;
}

Dataset::Dataset(std::filesystem::path dir, DatasetMetadata meta)
    : dir_(std::move(dir)), meta_(std::move(meta)) {
  // Attach the zone sidecar when the metadata promises one. Any failure
  // — missing, torn, corrupt, or belonging to another dataset — degrades
  // to zone-free planning (results stay exact, only pruning is lost);
  // the event is logged and counted so operators see the degradation.
  std::shared_ptr<const ZoneMapTable> zones;
  if (meta_.has_zone_maps) {
    try {
      auto table = std::make_shared<ZoneMapTable>(ZoneMapTable::load(dir_));
      SPIO_CHECK(zones_consistent(*table, meta_), FormatError,
                 "zone sidecar does not match the dataset metadata");
      zones = std::move(table);
    } catch (const Error& e) {
      obs::log::Event(obs::log::Level::kWarn, "planner.zone_fallback")
          .kv("dir", dir_.string())
          .kv("error", e.what());
      if (obs::enabled())
        obs::MetricsRegistry::global().counter("planner.zone_fallbacks")
            .add(1);
    }
  }
  planner_ = std::make_shared<QueryPlanner>(meta_.spatial_tree,
                                            std::move(zones));
  // Hand the partition layout to the spatial access profiler so every
  // fetch below can be attributed to its file's bbox always-on
  // (docs/OBSERVABILITY.md "Spatial access profiles").
  if (!meta_.files.empty()) {
    std::vector<obs::AccessProfiler::FileInfo> files;
    files.reserve(meta_.files.size());
    for (const FileRecord& f : meta_.files)
      files.push_back({f.file_name(), f.bounds, f.particle_count});
    profile_base_ = obs::AccessProfiler::instance().register_dataset(
        dir_.string(), meta_.domain, meta_.schema.record_size(),
        meta_.has_bounds, std::move(files));
  }
}

Dataset Dataset::open(const std::filesystem::path& dir) {
  try {
    return Dataset(dir, DatasetMetadata::load(dir));
  } catch (const Error&) {
    // Unreadable metadata under an open write journal means the writer
    // crashed mid-write: report the richer diagnosis (and how to repair)
    // instead of a bare I/O or parse failure.
    if (WriteJournal::present(dir)) {
      throw IncompleteDatasetError(
          "'" + dir.string() +
          "' holds an interrupted write (journal present, metadata "
          "unreadable); run check_and_repair to clear it");
    }
    throw;
  }
}

std::uint64_t Dataset::level_prefix_count(int file_index, int levels,
                                          int n_readers) const {
  return file_prefix_count(meta_, file_index, levels, n_readers);
}

QueryPlan Dataset::plan_query(const Box3& box,
                              std::span<const RangeFilter> filters,
                              int levels, int n_readers) const {
  return planner_->plan(meta_, box, filters, levels, n_readers);
}

QueryPlan Dataset::plan_reference(const Box3& box,
                                  std::span<const RangeFilter> filters,
                                  int levels, int n_readers) const {
  return planner_->plan_reference(meta_, box, filters, levels, n_readers);
}

QueryPlan Dataset::run_plan(const Box3& box,
                            std::span<const RangeFilter> filters, int levels,
                            int n_readers, ReadStats* stats) const {
  obs::ScopedSpan span("planner.plan", "planner");
  const Clock::time_point t0 = Clock::now();
  QueryPlan plan = planner_->plan(meta_, box, filters, levels, n_readers);
  if (stats) {
    stats->files_skipped += plan.files_skipped;
    stats->lod_bytes_skipped += plan.lod_bytes_skipped;
  }
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("planner.plans").add(1);
    reg.counter("planner.plan_us")
        .add(static_cast<std::uint64_t>(seconds_since(t0) * 1e6));
    reg.counter("reader.files_considered")
        .add(static_cast<std::uint64_t>(plan.files_considered));
    reg.counter("reader.files_skipped")
        .add(static_cast<std::uint64_t>(plan.files_skipped));
    reg.counter("reader.lod_bytes_skipped").add(plan.lod_bytes_skipped);
  }
  return plan;
}

Dataset::FilePrefix Dataset::fetch_file(int file_index, int levels,
                                        int n_readers,
                                        ReadStats* stats) const {
  return fetch_file_records(
      file_index, level_prefix_count(file_index, levels, n_readers), stats);
}

Dataset::FilePrefix Dataset::fetch_file_records(int file_index,
                                                std::uint64_t records,
                                                ReadStats* stats) const {
  SPIO_EXPECTS(file_index >= 0 && file_index < file_count());
  // Cooperative cancellation point: an expired query aborts here,
  // between files, before touching the engine or any shared state.
  read_detail::check_deadline();
  obs::ScopedSpan span("read.file", "reader");
  const Clock::time_point t0 = Clock::now();
  const FileRecord& f = meta_.files[static_cast<std::size_t>(file_index)];
  SPIO_EXPECTS(records <= f.particle_count);
  const std::uint64_t want = records;
  const std::uint64_t record = meta_.schema.record_size();

  const auto path = dir_ / f.file_name();
  ReadEngine& eng = ReadEngine::instance();
  const FileSig sig = eng.probe(path);
  SPIO_CHECK(sig.size == f.particle_count * record, FormatError,
             "data file '" << f.file_name() << "' holds " << sig.size
                           << " bytes but metadata expects "
                           << f.particle_count * record);

  FilePrefix prefix;
  // The mirror spec lets a leader miss build the SoA position mirror
  // with the prefix, so every warm query on this file takes the SIMD
  // kernels (src/simd) instead of the scalar fallback.
  const ReadEngine::MirrorSpec mspec{static_cast<std::size_t>(record),
                                     meta_.schema.offset(0)};
  prefix.fetched = eng.fetch(path, want * record, sig, &mspec);
  prefix.count = want;
  // A single-flight follower shared another query's read: like a hit,
  // this call opened nothing and read no bytes of its own.
  const bool opened = prefix.fetched.outcome == CacheOutcome::kBypass ||
                      prefix.fetched.outcome == CacheOutcome::kMiss;
  if (stats) {
    if (opened) {
      stats->files_opened += 1;
      stats->bytes_read += want * record;
      if (prefix.fetched.outcome == CacheOutcome::kMiss)
        stats->cache_misses += 1;
    } else {
      stats->cache_hits += 1;
    }
    stats->particles_scanned += want;
    stats->file_io_seconds += seconds_since(t0);
  }
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    if (opened) {
      reg.counter("reader.files_opened").add(1);
      reg.counter("reader.bytes_read").add(want * record);
    }
    reg.counter("reader.particles_scanned").add(want);
  }
  // Always-on spatial attribution: this fetch's bytes land in the
  // file's profiler slot. The outcome enums share their values, and the
  // profiler charges bytes_fetched only for kBypass/kMiss — the same
  // "opened" split as the stats above, so followers and hits never
  // double-count disk bytes.
  obs::AccessProfiler::instance().record_fetch(
      profile_base_, file_index, want * record,
      static_cast<obs::AccessOutcome>(prefix.fetched.outcome),
      prefix.fetched.mirror != nullptr,
      static_cast<std::uint64_t>(seconds_since(t0) * 1e6));
  return prefix;
}

ParticleBuffer Dataset::read_data_file(int file_index, int levels,
                                       int n_readers,
                                       ReadStats* stats) const {
  FilePrefix prefix = fetch_file(file_index, levels, n_readers, stats);
  ParticleBuffer buf(meta_.schema);
  buf.append_bytes(prefix.bytes());
  if (stats) stats->particles_returned += prefix.count;
  // A direct file read keeps every scanned record: used == scanned.
  obs::AccessProfiler::instance().record_used(
      profile_base_, file_index, prefix.count * meta_.schema.record_size());
  return buf;
}

void Dataset::for_each_prefix(
    std::span<const FilePlan> files, std::size_t window, const Keep& keep,
    ReadStats* stats,
    const std::function<bool(SelectedFile&)>& consume) const {
  const std::size_t n = files.size();
  ReadEngine& eng = ReadEngine::instance();
  const auto workers = static_cast<std::size_t>(eng.concurrency());
  const bool pooled = n > 1 && workers > 1;
  if (!pooled) window = 1;

  // One slot per planned file; a step writes only its own slot, and the
  // caller's thread reads it only after the step has resolved.
  struct Slot {
    SelectedFile file;
    ReadStats stats;
    std::exception_ptr error;
    std::future<void> done;  // invalid unless the step was its own task
  };
  std::vector<Slot> slots(n);
  // Carry the caller's deadline — and its request ID, for span and log
  // attribution — onto the pool workers. The token outlives the tasks:
  // every launched step is drained below before this frame returns.
  const read_detail::DeadlineToken* deadline = read_detail::current_deadline();
  const std::uint64_t qid = obs::current_query_id();
  const auto step = [&](std::size_t k) {
    Slot& slot = slots[k];
    read_detail::ScopedDeadline dl(deadline);
    obs::ScopedQueryId qs(qid);
    try {
      slot.file = select_file(files[k], keep, &slot.stats);
    } catch (...) {
      slot.error = std::current_exception();
    }
  };

  std::size_t launched = 0;
  if (pooled && window >= n) {
    // The whole plan in flight at once: one claiming task per worker, all
    // drained before the first file is consumed.
    run_claimed(eng.pool(), n, std::min(n, workers), /*caller_helps=*/false,
                step);
    launched = n;
  }
  const auto launch = [&](std::size_t k) {
    if (pooled) {
      slots[k].done = eng.pool().submit([&step, k] { step(k); });
    } else {
      step(k);
    }
  };

  // Consume file k while files k+1 .. k+window-1 are still in flight.
  bool stopped = false;
  std::exception_ptr first_error;
  for (std::size_t k = 0; k < n; ++k) {
    while (!stopped && launched < n && launched < k + window)
      launch(launched++);
    if (k == launched) break;  // stopped, and every launched step drained
    Slot& slot = slots[k];
    if (slot.done.valid()) slot.done.get();
    if (stats) stats->accumulate(slot.stats);
    try {
      if (slot.error) std::rethrow_exception(slot.error);
      if (!stopped && !consume(slot.file)) stopped = true;
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      stopped = true;
    }
    slot.file = SelectedFile{};  // drop the buffer before the next file
  }
  if (first_error) std::rethrow_exception(first_error);
}

Dataset::SelectedFile Dataset::select_file(const FilePlan& p, const Keep& keep,
                                           ReadStats* stats) const {
  SelectedFile s;
  s.file = p.file;
  s.prefix = fetch_file_records(p.file, p.fetch_records, stats);
  read_detail::Selection& sel = s.selection;
  const FileRecord& f = meta_.files[static_cast<std::size_t>(p.file)];
  if (keep.whole_file_fast_path && keep.box.contains_box(f.bounds)) {
    // Whole file lies inside the query: no per-particle filter needed —
    // the payoff of spatially-coherent files. The planner's closed zone
    // tests guarantee a fully-contained file is never tail-clamped, so
    // this prefix is the complete LOD prefix.
    if (s.prefix.count > 0)
      sel.runs.push_back({0, static_cast<std::size_t>(s.prefix.count)});
    sel.count = s.prefix.count;
    return s;
  }
  // The scan time feeds the per-query time breakdown, so the clock is
  // only read in detailed mode.
  const bool timed = obs::AccessProfiler::instance().detailed();
  const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
  read_detail::select_dispatch(s.prefix.bytes(), meta_.schema, keep.box,
                               keep.filters, s.prefix.mirror(), sel);
  if (timed) s.select_us = static_cast<std::uint64_t>(seconds_since(t0) * 1e6);
  return s;
}

std::uint64_t Dataset::append_selected(std::span<SelectedFile> parts,
                                       ParticleBuffer& out) const {
  const std::size_t n = parts.size();
  const std::size_t rec = meta_.schema.record_size();
  // Each file's byte offset in the appended range: an exclusive scan of
  // the kept counts, in plan order.
  std::vector<std::size_t> offset(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k)
    offset[k + 1] =
        offset[k] + static_cast<std::size_t>(parts[k].selection.count) * rec;
  const std::size_t total = offset[n];
  std::byte* dst = out.append_for_overwrite(total / rec).data();

  const bool timed = obs::AccessProfiler::instance().detailed();
  const auto copy_files = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      SelectedFile& s = parts[k];
      const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
      simd::copy_runs(s.prefix.bytes().data(), rec, s.selection.runs,
                      dst + offset[k]);
      if (timed) s.copy_us = static_cast<std::uint64_t>(seconds_since(t0) * 1e6);
    }
  };
  // Contiguous file groups of at least kCopyChunkBytes each (the last may
  // be smaller), claimed one at a time by the caller and up to one fewer
  // pool workers than the pool has.
  std::vector<std::size_t> chunk_end;  // one past each group's last file
  for (std::size_t k = 0, start = 0; k < n; ++k) {
    if (k + 1 == n || offset[k + 1] - offset[start] >= kCopyChunkBytes) {
      chunk_end.push_back(k + 1);
      start = k + 1;
    }
  }
  const std::size_t chunks = chunk_end.size();
  const std::size_t helpers = std::min(
      static_cast<std::size_t>(ReadEngine::instance().concurrency()) - 1,
      chunks > 0 ? chunks - 1 : 0);
  run_claimed(ReadEngine::instance().pool(), chunks, helpers,
              /*caller_helps=*/true, [&](std::size_t c) {
                copy_files(c > 0 ? chunk_end[c - 1] : 0, chunk_end[c]);
              });

  obs::AccessProfiler& prof = obs::AccessProfiler::instance();
  for (const SelectedFile& s : parts)
    prof.record_used(profile_base_, s.file, s.selection.count * rec,
                     s.select_us, s.copy_us);
  return total / rec;
}

std::uint64_t Dataset::filter_files_into(std::span<const FilePlan> files,
                                         const Keep& keep, ParticleBuffer& out,
                                         ReadStats* stats) const {
  std::vector<SelectedFile> parts;
  parts.reserve(files.size());
  for_each_prefix(files, files.size(), keep, stats, [&](SelectedFile& s) {
    parts.push_back(std::move(s));
    return true;
  });
  const std::uint64_t returned = append_selected(parts, out);
  if (stats) stats->particles_returned += returned;
  return returned;
}

ParticleBuffer Dataset::query_box(const Box3& box, int levels, int n_readers,
                                  ReadStats* stats) const {
  obs::ScopedSpan span("read.query_box", "reader");
  obs::ProfiledQuery pq("query_box");
  const QueryPlan plan = run_plan(box, {}, levels, n_readers, stats);
  ParticleBuffer out(meta_.schema);
  filter_files_into(plan.files, {box, {}, /*whole_file_fast_path=*/true}, out,
                    stats);
  publish_returned(out.size(), out.byte_size());
  return out;
}

ParticleBuffer Dataset::query(const Box3& box,
                              std::span<const RangeFilter> filters,
                              int levels, int n_readers,
                              ReadStats* stats) const {
  obs::ScopedSpan span("read.query", "reader");
  obs::ProfiledQuery pq("query");
  for (const RangeFilter& rf : filters) {
    SPIO_CHECK(rf.field < meta_.schema.field_count(), ConfigError,
               "range filter on field " << rf.field << " but schema has "
                                        << meta_.schema.field_count());
    SPIO_CHECK(rf.component < meta_.schema.fields()[rf.field].components,
               ConfigError,
               "range filter component " << rf.component
                                         << " out of bounds");
    SPIO_CHECK(rf.lo <= rf.hi, ConfigError,
               "range filter with lo > hi on field " << rf.field);
  }
  const QueryPlan plan = run_plan(box, filters, levels, n_readers, stats);
  ParticleBuffer out(meta_.schema);
  filter_files_into(plan.files,
                    {box, filters, /*whole_file_fast_path=*/false}, out,
                    stats);
  publish_returned(out.size(), out.byte_size());
  return out;
}

std::uint64_t Dataset::stream_box(
    const Box3& box,
    const std::function<bool(const ParticleBuffer& chunk)>& sink,
    int levels, int n_readers, ReadStats* stats) const {
  SPIO_EXPECTS(sink != nullptr);
  obs::ScopedSpan span("read.stream_box", "reader");
  obs::ProfiledQuery pq("stream_box");
  const QueryPlan plan = run_plan(box, {}, levels, n_readers, stats);

  std::uint64_t delivered = 0;
  for_each_prefix(
      plan.files,
      static_cast<std::size_t>(ReadEngine::instance().concurrency()),
      {box, {}, /*whole_file_fast_path=*/true}, stats, [&](SelectedFile& s) {
        ParticleBuffer chunk(meta_.schema);
        append_selected({&s, 1}, chunk);
        if (chunk.empty()) return true;
        delivered += chunk.size();
        if (stats) stats->particles_returned += chunk.size();
        return sink(chunk);
      });
  publish_returned(delivered, delivered * meta_.schema.record_size());
  return delivered;
}

ParticleBuffer Dataset::query_box_scan_all(const Box3& box,
                                           ReadStats* stats) const {
  obs::ScopedSpan span("read.scan_all", "reader");
  obs::ProfiledQuery pq("scan_all");
  ParticleBuffer out(meta_.schema);
  // Every file in full, no planner: the baseline works without bounds.
  std::vector<FilePlan> all(static_cast<std::size_t>(file_count()));
  for (int fi = 0; fi < file_count(); ++fi) {
    const std::uint64_t count =
        meta_.files[static_cast<std::size_t>(fi)].particle_count;
    all[static_cast<std::size_t>(fi)] = {fi, count, count};
  }
  // No whole-file shortcut: the baseline deliberately filters every
  // particle ("read all particles ... and then cherry-pick", §4).
  filter_files_into(all, {box, {}, /*whole_file_fast_path=*/false}, out,
                    stats);
  publish_returned(out.size(), out.byte_size());
  return out;
}

int Dataset::level_count(int n_readers) const {
  return lod_level_count(meta_.lod, n_readers, meta_.total_particles);
}

Box3 reader_tile(const Box3& domain, int rank, int nranks) {
  SPIO_EXPECTS(nranks >= 1);
  SPIO_EXPECTS(rank >= 0 && rank < nranks);
  return PatchDecomposition::for_ranks(domain, nranks).patch(rank);
}

}  // namespace spio
