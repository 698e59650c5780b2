/// box_warm and serve_distinct: analysis/visualization readers over one
/// shared 216-file dataset (6x6x6 patches, factor 1x1x1, density banded
/// by rank so range filters can prune).
///
///   box_warm        one closed-loop client cycling 64 box queries against
///                   a cache that holds the whole dataset, warmed in set-up:
///                   no disk, no admission queue — planning, cache hits,
///                   SIMD filtering and the merge/copy-out.
///   serve_distinct  four closed-loop clients drawing from 512 distinct
///                   queries (no coalesce keys) through a QueryService with
///                   a 32 MiB cache (about a third of the dataset):
///                   admission, cache misses and evictions, single-flight,
///                   mirror builds and zone-map pruning.
///
/// Every result is checked (record count + CRC-64) against an oracle
/// computed in set-up from `Dataset::plan_reference` and the reference
/// filter kernels over plain file reads. The traced runs replay each
/// query as its public layer calls (see `replay`) with spans around each.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <atomic>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/query_service.hpp"
#include "core/read_engine.hpp"
#include "core/reader.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace spio;

namespace {

// -- sizes ------------------------------------------------------------------------

struct ReadSizes {
  int pool;                  ///< distinct queries
  double edge_lo, edge_hi;   ///< box edge range, as a share of the domain
  std::uint64_t min_ops;     ///< floor on measured operations
  int setup_reps;
};

ReadSizes box_warm_sizes(bool tiny) {
  return tiny ? ReadSizes{16, 0.3, 0.8, 40, 2}
              : ReadSizes{64, 0.3, 0.8, 1000, 5};
}

ReadSizes serve_sizes(bool tiny) {
  return tiny ? ReadSizes{48, 0.15, 0.35, 200, 2}
              : ReadSizes{512, 0.15, 0.35, 1000, 5};
}

/// The shared read dataset: simmpi ranks (= patches = files) and
/// particles per rank.
int dataset_ranks(bool tiny) { return tiny ? 27 : 216; }
std::uint64_t dataset_per_rank(bool tiny) { return tiny ? 400 : 3700; }

constexpr int kEngineThreads = 4;
constexpr int kClients = 4;
constexpr std::uint64_t kWarmCacheBytes = 1ull << 30;
constexpr double kRateWindowS = 0.5;

// -- the dataset ----------------------------------------------------------------

/// Write the dataset in a child process (this binary in
/// `write_read_dataset` mode) and wait for it: the simulation that writes
/// and the client that reads are different processes, so the writer's
/// 216 threads and their allocator state never reach the measured one.
void spawn_dataset_writer(const fs::path& dir, std::uint64_t seed, bool tiny) {
  std::vector<std::string> args = {"spio_perfbench", "--workload",
                                   "write_read_dataset", "--seed",
                                   std::to_string(seed), "--work-dir",
                                   dir.string()};
  if (tiny) args.emplace_back("--tiny");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                  environ) != 0)
    throw IoError("cannot start the dataset writer");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw IoError("dataset writer failed");
}

// -- the query pool ----------------------------------------------------------------

struct PoolQuery {
  Box3 box;
  int levels = -1;        ///< -1 = every LOD level
  bool filtered = false;  ///< add the density filter
};

struct Expected {
  std::uint64_t count = 0;
  std::uint64_t crc = 0;
};

/// A random permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, Xoshiro256& rng) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
  return perm;
}

/// The query pool. Its geometry is one fixed stratified design: box i's
/// size comes from stratum i of [edge_lo, edge_hi) (each axis jittered by
/// up to +-0.05 of the domain) and each axis's position from its own
/// stratum; the pool is issued in design order. The seed picks one of the
/// 48 symmetries of the cube (axis permutation and reflections) for the
/// whole pool, and the dataset's particles. The grid of files is
/// symmetric, so every seed sees the same sequence of query costs (and of
/// result-buffer sizes, which the allocator's behaviour depends on) while
/// the boxes, files and particles touched differ — a held-out seed is a
/// new realization, not a different workload.
std::vector<PoolQuery> make_pool(const ReadSizes& z, const Box3& domain,
                                 std::uint64_t seed, bool serve) {
  const auto n = static_cast<std::size_t>(z.pool);
  Xoshiro256 design(serve ? 0x5e7e : 0xb0c5);
  const auto stratum = [n](std::size_t k) {
    return (static_cast<double>(k) + 0.5) / static_cast<double>(n);
  };
  const std::vector<std::size_t> sizes = permutation(n, design);
  const std::array<std::vector<std::size_t>, 3> places = {
      permutation(n, design), permutation(n, design), permutation(n, design)};

  Xoshiro256 rng(stream_seed(seed, serve ? 0x5e7e : 0xb0c5));
  const std::vector<std::size_t> axes = permutation(3, rng);
  const std::uint64_t flips = rng.next();

  const double ext[3] = {domain.hi.x - domain.lo.x, domain.hi.y - domain.lo.y,
                         domain.hi.z - domain.lo.z};
  const double base[3] = {domain.lo.x, domain.lo.y, domain.lo.z};
  std::vector<PoolQuery> pool(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double share = z.edge_lo + (z.edge_hi - z.edge_lo) * stratum(sizes[i]);
    double lo[3], hi[3];  // in domain units [0, 1)
    for (std::size_t a = 0; a < 3; ++a) {
      const double edge =
          std::clamp(share + design.uniform(-0.05, 0.05), z.edge_lo, z.edge_hi);
      lo[a] = stratum(places[a][i]) * (1.0 - edge);
      hi[a] = lo[a] + edge;
    }
    double slo[3], shi[3];
    for (std::size_t a = 0; a < 3; ++a) {
      const std::size_t src = axes[a];
      const bool flip = (flips >> a) & 1;
      slo[a] = base[a] + ext[a] * (flip ? 1.0 - hi[src] : lo[src]);
      shi[a] = base[a] + ext[a] * (flip ? 1.0 - lo[src] : hi[src]);
    }
    PoolQuery& q = pool[i];
    q.box = Box3({slo[0], slo[1], slo[2]}, {shi[0], shi[1], shi[2]});
    // Kinds go by size stratum, so each kind gets the same sizes.
    if (serve) {
      // Thirds: plain box, LOD-2 box, box + density filter.
      q.levels = sizes[i] % 3 == 1 ? 2 : -1;
      q.filtered = sizes[i] % 3 == 2;
    } else {
      q.levels = sizes[i] % 4 == 3 ? 2 : -1;  // every 4th LOD-bounded
    }
  }
  return pool;
}

std::vector<std::uint64_t> pool_words(const std::vector<PoolQuery>& pool) {
  std::vector<std::uint64_t> w;
  for (const PoolQuery& q : pool) {
    for (const double d : {q.box.lo.x, q.box.lo.y, q.box.lo.z, q.box.hi.x,
                           q.box.hi.y, q.box.hi.z}) {
      std::uint64_t bits;
      std::memcpy(&bits, &d, sizeof bits);
      w.push_back(bits);
    }
    w.push_back(static_cast<std::uint64_t>(q.levels + 1) * 2 + q.filtered);
  }
  return w;
}

/// The read workloads' shared state after set-up.
struct ReadState {
  fs::path dir;
  std::optional<Dataset> ds;
  std::vector<PoolQuery> pool;
  std::vector<Expected> expected;
  std::vector<Dataset::RangeFilter> density;
  double setup_s = 0;  ///< median set-up time

  std::span<const Dataset::RangeFilter> filters_of(const PoolQuery& q) const {
    return q.filtered ? std::span<const Dataset::RangeFilter>(density)
                      : std::span<const Dataset::RangeFilter>();
  }
  /// The untraced public entry point.
  ParticleBuffer entry(const PoolQuery& q) const {
    return q.filtered ? ds->query(q.box, density, q.levels)
                      : ds->query_box(q.box, q.levels);
  }
  bool matches(const ParticleBuffer& out, std::size_t qi) const {
    return out.size() == expected[qi].count &&
           crc64(out.bytes()) == expected[qi].crc;
  }
};

/// The first `bytes` of `path`, read with a plain stream (no engine, no
/// cache): the oracle's I/O.
std::vector<std::byte> read_prefix(const fs::path& path, std::uint64_t bytes) {
  std::vector<std::byte> buf(static_cast<std::size_t>(bytes));
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (!in) throw IoError("oracle: short read of " + path.string());
  return buf;
}

/// Serial oracle: the linear-scan plan, full LOD prefixes, reference
/// kernels — the pre-engine read path.
Expected oracle(const ReadState& st, const PoolQuery& q) {
  const Dataset& ds = *st.ds;
  const Schema& schema = ds.metadata().schema;
  const QueryPlan plan = ds.plan_reference(q.box, st.filters_of(q), q.levels);
  ParticleBuffer out(schema);
  for (const FilePlan& p : plan.files) {
    const FileRecord& f = ds.metadata().files[static_cast<std::size_t>(p.file)];
    const std::vector<std::byte> bytes =
        read_prefix(ds.dir() / f.file_name(), p.fetch_records * schema.record_size());
    if (q.filtered)
      read_detail::filter_box_ranges_reference(bytes, schema, q.box, st.density, out);
    else if (q.box.contains_box(f.bounds))
      out.append_bytes(bytes);
    else
      read_detail::filter_box_reference(bytes, schema, q.box, out);
  }
  return {out.size(), crc64(out.bytes())};
}

/// Set-up, repeated `setup_reps` times (median = setup_s): write the
/// dataset, open it, warm the cache with `warm`. The oracle is computed
/// afterwards, outside setup_s.
template <typename Warm>
ReadState set_up(const Options& opt, const ReadSizes& z, bool serve, Report& rep,
                 Warm&& warm) {
  ReadState st;
  std::vector<double> setups;
  for (int s = 0; s < z.setup_reps; ++s) {
    const fs::path dir = opt.work_dir / ("ds_" + std::to_string(s));
    const std::int64_t t0 = now_ns();
    spawn_dataset_writer(dir, opt.seed, opt.tiny);
    Dataset ds = Dataset::open(dir);
    if (st.pool.empty()) {
      st.pool = make_pool(z, ds.metadata().domain, opt.seed, serve);
      st.density = {{ds.metadata().schema.index_of("density"), 0, 1000.0, 1100.0}};
    }
    st.ds.emplace(std::move(ds));
    ReadEngine::instance().clear_cache();
    warm(st);
    setups.push_back(seconds_between(t0, now_ns()));
    // Outside the timed region: drop the previous repetition's dataset.
    if (!st.dir.empty()) fs::remove_all(st.dir);
    st.dir = dir;
  }
  st.setup_s = median(setups);

  for (const PoolQuery& q : st.pool) st.expected.push_back(oracle(st, q));
  std::vector<std::uint64_t> words;
  for (const Expected& e : st.expected) {
    words.push_back(e.count);
    words.push_back(e.crc);
  }
  rep.stamp("result_digest", hex64(digest_words(words)));
  rep.stamp("files", st.ds->file_count());
  rep.stamp("dataset_particles",
            static_cast<double>(st.ds->metadata().total_particles));
  rep.stamp("pool_queries", static_cast<double>(st.pool.size()));
  return st;
}

void stamp_engine(Report& rep) {
  const ReadEngine& eng = ReadEngine::instance();
  rep.stamp("engine.pool_threads", eng.concurrency());
  rep.stamp("engine.cache_budget_bytes", static_cast<double>(eng.cache_budget()));
  rep.stamp("engine.cache_shards", eng.cache_shards());
}

/// Throwing fetch hook for the fault self-test: every `every`-th real
/// disk read fails like an I/O error would.
void install_fault_hook(int every) {
  if (every <= 0) return;
  auto n = std::make_shared<std::atomic<std::uint64_t>>(0);
  ReadEngine::instance().set_fetch_hook(
      [n, every](const fs::path& path, std::uint64_t) {
        if (n->fetch_add(1) % static_cast<std::uint64_t>(every) ==
            static_cast<std::uint64_t>(every) - 1)
          throw IoError("injected fetch fault: " + path.string());
      });
}

// -- the traced replay --------------------------------------------------------------

/// Replay `Dataset::query_box` / `Dataset::query` as the public layer
/// calls it is made of, in the shape of `Dataset::filter_files_into`:
/// plan, fetch every planned file on the engine pool, filter (or append
/// whole files) in plan order on this thread, trim. Spans go into `tr`
/// under `parent`; the result is byte-identical to the entry point's.
ParticleBuffer replay(const ReadState& st, const PoolQuery& q, OpTrace& tr,
                      int parent) {
  const Dataset& ds = *st.ds;
  const Schema& schema = ds.metadata().schema;
  const auto filters = st.filters_of(q);
  QueryPlan plan;
  {
    ScopedSpan s(tr, Layer::kPlan, parent);
    plan = ds.plan_query(q.box, filters, q.levels);
  }
  tr.files_planned += plan.files.size();
  tr.files_skipped += static_cast<std::uint64_t>(plan.files_skipped);

  ParticleBuffer out(schema);
  const auto note_fetch = [&tr](const Dataset::FilePrefix& p, std::int64_t t0,
                                std::int64_t t1) {
    const double us = static_cast<double>(t1 - t0) / 1e3;
    if (p.fetched.outcome == CacheOutcome::kHit)
      tr.fetch_hit_us.push_back(us);
    else if (p.fetched.outcome == CacheOutcome::kMiss)
      tr.fetch_miss_us.push_back(us);
    tr.scanned_records += p.count;
  };
  const auto filter_one = [&](const FilePlan& p, const Dataset::FilePrefix& prefix) {
    const FileRecord& f = ds.metadata().files[static_cast<std::size_t>(p.file)];
    if (!q.filtered && q.box.contains_box(f.bounds)) {
      ScopedSpan s(tr, Layer::kMerge, parent);
      out.append_bytes(prefix.bytes());
      return;
    }
    {
      ScopedSpan s(tr, Layer::kFilter, parent);
      if (q.filtered)
        read_detail::filter_box_ranges_dispatch(prefix.bytes(), schema, q.box,
                                                filters, prefix.mirror(), out);
      else
        read_detail::filter_box_dispatch(prefix.bytes(), schema, q.box,
                                         prefix.mirror(), out);
    }
    tr.filter_calls += 1;
    tr.filter_records += prefix.count;
    if (prefix.mirror()) tr.mirror_calls += 1;
  };

  ReadEngine& eng = ReadEngine::instance();
  const std::size_t n = plan.files.size();
  if (n <= 1 || eng.concurrency() <= 1) {
    // Serial shape: fetch inline (charged as fetch wait), filter into out.
    for (const FilePlan& p : plan.files) {
      Dataset::FilePrefix prefix;
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan s(tr, Layer::kFetchWait, parent);
        prefix = ds.fetch_file_records(p.file, p.fetch_records, nullptr);
      }
      note_fetch(prefix, t0, now_ns());
      filter_one(p, prefix);
    }
  } else {
    std::uint64_t upper = 0;
    for (const FilePlan& p : plan.files) upper += p.fetch_records;
    {
      ScopedSpan s(tr, Layer::kMerge, parent);
      out.reserve(static_cast<std::size_t>(upper));
    }
    struct PerFile {
      Dataset::FilePrefix prefix;
      std::int64_t t0 = 0, t1 = 0;
      std::uint32_t tid = 0;
    };
    std::vector<PerFile> res(n);
    std::vector<std::future<void>> pending;
    pending.reserve(n);
    for (std::size_t k = 0; k < n; ++k)
      pending.push_back(eng.pool().submit([&ds, &res, &plan, k] {
        PerFile& r = res[k];
        r.tid = thread_tag();
        r.t0 = now_ns();
        r.prefix = ds.fetch_file_records(plan.files[k].file,
                                         plan.files[k].fetch_records, nullptr);
        r.t1 = now_ns();
      }));
    std::exception_ptr first_error;
    for (std::size_t k = 0; k < n; ++k) {
      try {
        {
          ScopedSpan s(tr, Layer::kFetchWait, parent);
          pending[k].get();
        }
        if (first_error) continue;
        PerFile& r = res[k];
        note_fetch(r.prefix, r.t0, r.t1);
        tr.spans().push_back({tr.op(), -1, Layer::kFetch, r.tid, r.t0, r.t1});
        filter_one(plan.files[k], r.prefix);
        r.prefix = Dataset::FilePrefix{};
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    ScopedSpan s(tr, Layer::kMerge, parent);
    if (out.size() < upper / 2) {
      tr.shrink_bytes += out.byte_size();
      out.shrink_to_fit();
    }
  }
  tr.returned_records += out.size();
  tr.returned_bytes += out.byte_size();
  return out;
}

/// Replay identity: for every pooled query the replay's bytes equal the
/// entry point's, and both equal the oracle.
void check_replay_identity(const ReadState& st, Report& rep) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < st.pool.size(); ++i) {
    const ParticleBuffer a = st.entry(st.pool[i]);
    OpTrace tr(0);
    tr.open(Layer::kOp, -1);
    const ParticleBuffer b = replay(st, st.pool[i], tr, 0);
    if (a.byte_size() != b.byte_size() ||
        (a.byte_size() != 0 &&
         std::memcmp(a.bytes().data(), b.bytes().data(), a.byte_size()) != 0) ||
        !st.matches(b, i))
      ++bad;
  }
  rep.stamp("replay_identity_checked", static_cast<double>(st.pool.size()));
  if (bad) rep.fail(std::to_string(bad) + " replays differ from the entry point");
}

// -- per-run tallies ----------------------------------------------------------------

/// Latencies and counts of the operations one client (or the run) made.
struct Tally {
  // Untraced operations, in completion order per client.
  std::vector<double> lat_ms;
  std::vector<double> result_mb;
  std::vector<std::int64_t> end_ns;
  std::vector<double> traced_lat_ms;  ///< traced replays
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::string first_error;

  void completed(std::int64_t t0, std::int64_t t1, const ParticleBuffer& out) {
    lat_ms.push_back(seconds_between(t0, t1) * 1e3);
    result_mb.push_back(static_cast<double>(out.byte_size()) / 1e6);
    end_ns.push_back(t1);
  }
  void merge(const Tally& o) {
    const auto append = [](auto& a, const auto& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(lat_ms, o.lat_ms);
    append(result_mb, o.result_mb);
    append(end_ns, o.end_ns);
    append(traced_lat_ms, o.traced_lat_ms);
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
    if (first_error.empty()) first_error = o.first_error;
  }
  void error(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  void check(const ReadState& st, const ParticleBuffer& out, std::size_t qi) {
    if (st.matches(out, qi)) return;
    ++mismatched;
    error("result differs from the oracle");
  }
};

void report_failures(const Tally& t, Report& rep) {
  rep.attempted += t.attempted;
  rep.failed += t.failed;
  if (t.mismatched)
    rep.fail(std::to_string(t.mismatched) + " results differ from the oracle");
  if (t.failed > t.mismatched) rep.fail("operation failed: " + t.first_error);
}

/// The end-to-end metrics of an untraced run; the rates are medians over
/// rounds (see the callers).
void report_end_to_end(const Tally& t, double setup_s, double ops_per_s,
                       double mb_per_s, Report& rep) {
  rep.metric("setup_s", setup_s, "s");
  rep.stamp("samples", static_cast<double>(t.lat_ms.size()));
  rep.stamp("latency_tail_percentile", 99);
  rep.metric("ops_per_s", ops_per_s, "1/s");
  rep.metric("mb_per_s", mb_per_s, "MB/s");
  rep.metric("latency_p50_ms", median(t.lat_ms), "ms");
  // Chunks in global completion order (clients' samples interleaved).
  std::vector<std::size_t> order(t.lat_ms.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&t](std::size_t a, std::size_t b) { return t.end_ns[a] < t.end_ns[b]; });
  std::vector<double> by_time;
  for (const std::size_t i : order) by_time.push_back(t.lat_ms[i]);
  rep.metric("latency_tail_ms", chunked_tail(by_time, 0.99), "ms");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The read-side per-layer metrics of a traced run.
void report_layers(const Ledger& lg, const Tally& t, const ReadCacheStats& c0,
                   const ReadCacheStats& c1, LayerValues& lv, Report& rep) {
  if (lg.violations())
    rep.fail(std::to_string(lg.violations()) +
             " traced operations whose spans do not sum to their wall time");
  const double ops = static_cast<double>(std::max<std::uint64_t>(lg.ops(), 1));
  const double all_ops =
      static_cast<double>(std::max<std::size_t>(t.lat_ms.size() + t.traced_lat_ms.size(), 1));
  const LayerCounters& c = lg.counters();
  const auto per_op_ms = [&](Layer l) { return lg.self_ns(l) / ops / 1e6; };
  lv["query_plan.plan_us"] = lg.self_ns(Layer::kPlan) / ops / 1e3;
  lv["query_plan.files_planned"] = static_cast<double>(c.files_planned) / ops;
  lv["query_plan.files_skipped"] = static_cast<double>(c.files_skipped) / ops;
  lv["read_engine.fetch_hit_us"] = median(c.fetch_hit_us);
  lv["read_engine.fetch_miss_us"] = median(c.fetch_miss_us);
  if (c.fetch_miss_us.empty()) rep.note("read_engine.fetch_miss_us: no cache misses while traced");
  lv["read_engine.fetch_wait_ms"] = per_op_ms(Layer::kFetchWait);
  const double lookups = static_cast<double>(
      (c1.hits - c0.hits) + (c1.misses - c0.misses) +
      (c1.singleflight_followers - c0.singleflight_followers));
  lv["read_engine.hit_ratio"] =
      lookups > 0 ? static_cast<double>(c1.hits - c0.hits) / lookups : 0.0;
  lv["read_engine.bytes_evicted"] =
      static_cast<double>(c1.bytes_evicted - c0.bytes_evicted) / all_ops;
  lv["read_engine.singleflight_followers"] =
      static_cast<double>(c1.singleflight_followers - c0.singleflight_followers) /
      all_ops;
  lv["simd.filter_ms"] = per_op_ms(Layer::kFilter);
  const double filter_s = lg.self_ns(Layer::kFilter) / 1e9;
  lv["simd.filter_mpps"] =
      filter_s > 0 ? static_cast<double>(c.filter_records) / filter_s / 1e6 : 0.0;
  lv["simd.mirror_ratio"] =
      c.filter_calls ? static_cast<double>(c.mirror_calls) /
                           static_cast<double>(c.filter_calls)
                     : 0.0;
  lv["reader.merge_ms"] = per_op_ms(Layer::kMerge);
  lv["reader.bytes_copied"] =
      static_cast<double>(c.returned_bytes + c.shrink_bytes) / ops;
  lv["reader.read_amplification"] =
      c.returned_records ? static_cast<double>(c.scanned_records) /
                               static_cast<double>(c.returned_records)
                         : 0.0;
  lv["op.wall_ms"] = lg.wall_ns() / ops / 1e6;
  lv["op.unattributed_ms"] = lg.unattributed_ns() / ops / 1e6;
  lv["trace.overhead_pct"] =
      (median(t.traced_lat_ms) / median(t.lat_ms) - 1.0) * 100.0;
  rep.stamp("traced_ops", static_cast<double>(lg.ops()));
}

bool keep_going(std::int64_t start, double seconds, std::uint64_t done,
                std::uint64_t min_ops) {
  const double elapsed = seconds_between(start, now_ns());
  return (elapsed < seconds || done < min_ops) && elapsed < 150.0;
}

struct WorkDirCleanup {
  fs::path dir;
  ~WorkDirCleanup() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

}  // namespace

/// Write the shared read dataset: simmpi ranks of uniform Uintah
/// particles, one file per rank, density banded as 1000*(r mod 8) + 100*U.
void write_read_dataset(const fs::path& dir, std::uint64_t seed, bool tiny) {
  const Schema schema = Schema::uintah();
  const int ranks = dataset_ranks(tiny);
  const std::uint64_t per_rank = dataset_per_rank(tiny);
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), ranks);
  const std::size_t density = schema.index_of("density");
  // One thread per rank: files cannot outnumber writing ranks.
  simmpi::run(ranks, [&](simmpi::Comm& comm) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    ParticleBuffer local = workload::uniform(
        schema, decomp.patch(comm.rank()), per_rank,
        stream_seed(seed, 2 * r), r * per_rank);
    Xoshiro256 rng(stream_seed(seed, 2 * r + 1));
    for (std::size_t i = 0; i < local.size(); ++i)
      local.set_f64(i, density, 0,
                    1000.0 * static_cast<double>(r % 8) + 100.0 * rng.uniform());
    WriterConfig cfg;
    cfg.dir = dir;
    cfg.factor = {1, 1, 1};
    write_dataset(comm, decomp, local, cfg);
  });
}

// -- box_warm ------------------------------------------------------------------------

void run_box_warm(const Options& opt, Report& rep) {
  const ReadSizes z = box_warm_sizes(opt.tiny);
  WorkDirCleanup cleanup{opt.work_dir};
  ReadEngine& eng = ReadEngine::instance();
  eng.set_concurrency(kEngineThreads);
  eng.set_cache_budget(kWarmCacheBytes);
  stamp_engine(rep);

  const ReadState st = set_up(opt, z, false, rep, [](const ReadState& s) {
    for (const PoolQuery& q : s.pool) (void)s.entry(q);
  });
  if (opt.trace) check_replay_identity(st, rep);
  install_fault_hook(opt.fail_every);
  // The client cycles the pool in order: the pool is the sequence.
  rep.stamp("sequence_digest", hex64(digest_words(pool_words(st.pool))));

  Tally t;
  Ledger ledger;
  mark_measurement_start(rep);
  const ReadCacheStats c0 = eng.cache_stats();
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0; keep_going(start, opt.seconds, i, z.min_ops); ++i) {
    // Traced runs alternate entry point and replay per query, switching
    // which goes first every cycle.
    const std::size_t qi = (opt.trace ? i / 2 : i) % st.pool.size();
    const bool traced = opt.trace && ((i % 2) ^ ((i / 2) % 2));
    const PoolQuery& q = st.pool[qi];
    ++t.attempted;
    try {
      if (traced) {
        OpTrace tr(i);
        const int op = tr.open(Layer::kOp, -1);
        const ParticleBuffer out = replay(st, q, tr, op);
        tr.close(op);
        const Span& whole = tr.spans()[0];
        t.traced_lat_ms.push_back(seconds_between(whole.t0, whole.t1) * 1e3);
        ledger.add(tr);
        t.check(st, out, qi);
      } else {
        const std::int64_t t0 = now_ns();
        const ParticleBuffer out = st.entry(q);
        t.completed(t0, now_ns(), out);
        t.check(st, out, qi);
      }
    } catch (const std::exception& e) {
      t.error(e.what());
    }
  }
  const ReadCacheStats c1 = eng.cache_stats();
  eng.set_fetch_hook(nullptr);
  report_failures(t, rep);
  if (!opt.trace) {
    // One closed-loop client: rates are over the time spent inside the
    // queries (the oracle check between queries is not the system's),
    // per pass over the pool, median over passes.
    std::vector<double> secs, ones(t.lat_ms.size(), 1.0);
    for (const double ms : t.lat_ms) secs.push_back(ms / 1e3);
    report_end_to_end(t, st.setup_s,
                      median_group_rate(secs, ones, st.pool.size()),
                      median_group_rate(secs, t.result_mb, st.pool.size()), rep);
    return;
  }
  LayerValues lv;
  report_layers(ledger, t, c0, c1, lv, rep);
  emit_layer_metrics(rep, lv);
  if (!opt.spans_out.empty()) ledger.write_spans(opt.spans_out);
}

// -- serve_distinct -------------------------------------------------------------------

void run_serve_distinct(const Options& opt, Report& rep) {
  const ReadSizes z = serve_sizes(opt.tiny);
  WorkDirCleanup cleanup{opt.work_dir};
  ReadEngine& eng = ReadEngine::instance();
  eng.set_concurrency(kEngineThreads);
  const std::uint64_t dataset_bytes =
      static_cast<std::uint64_t>(dataset_ranks(opt.tiny)) *
      dataset_per_rank(opt.tiny) * Schema::uintah().record_size();
  // 32 MiB at full size: about a third of the dataset.
  eng.set_cache_budget(opt.tiny ? dataset_bytes / 3 : 32ull << 20);
  QueryService svc(ServiceConfig{4, 64, {}});
  stamp_engine(rep);
  rep.stamp("service.workers", svc.workers());
  rep.stamp("service.queue_depth", svc.queue_depth());
  rep.stamp("clients", kClients);

  const ReadState st = set_up(opt, z, true, rep, [&svc](const ReadState& s) {
    // Warm-up: every pooled query once, from four clients.
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&s, &svc, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < s.pool.size();
             i += kClients) {
          const PoolQuery& q = s.pool[i];
          (void)svc.run([&s, &q] { return s.entry(q); });
        }
      });
    for (std::thread& th : clients) th.join();
  });
  if (opt.trace) check_replay_identity(st, rep);
  install_fault_hook(opt.fail_every);

  {
    // Each client's draw sequence is part of the operation sequence.
    std::vector<std::uint64_t> words = pool_words(st.pool);
    for (int c = 0; c < kClients; ++c) {
      Xoshiro256 rng(stream_seed(opt.seed, 0xc11e47 + static_cast<std::uint64_t>(c)));
      for (int k = 0; k < 1024; ++k) words.push_back(rng.uniform_index(st.pool.size()));
    }
    rep.stamp("sequence_digest", hex64(digest_words(words)));
  }

  Ledger ledger;
  std::vector<Tally> tallies(kClients);
  std::atomic<std::uint64_t> done{0};
  mark_measurement_start(rep);
  const ReadCacheStats c0 = eng.cache_stats();
  const ServiceStats s0 = svc.stats();
  const std::int64_t start = now_ns();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      Tally& t = tallies[static_cast<std::size_t>(c)];
      Xoshiro256 rng(stream_seed(opt.seed, 0xc11e47 + static_cast<std::uint64_t>(c)));
      for (std::uint64_t i = 0;
           keep_going(start, opt.seconds, done.load(), z.min_ops); ++i) {
        const std::size_t qi = rng.uniform_index(st.pool.size());
        const PoolQuery& q = st.pool[qi];
        const bool traced = opt.trace && (i % 2 == 1);
        ++t.attempted;
        try {
          if (traced) {
            // The trace is shared with the query function; the service's
            // future orders the hand-offs between the two threads.
            auto tr = std::make_shared<OpTrace>(
                (static_cast<std::uint64_t>(c) << 48) | i);
            const int op = tr->open(Layer::kOp, -1);
            const QueryService::Result res =
                svc.submit([&st, &q, tr, op] {
                     ScopedSpan exec(*tr, Layer::kExec, op);
                     return replay(st, q, *tr, exec.index());
                   }).get();
            tr->close(op);
            const Span whole = tr->spans()[0];
            const Span exec = tr->spans()[1];
            tr->add(Layer::kQueueWait, op, whole.t0, exec.t0);
            tr->add(Layer::kResolve, op, exec.t1, whole.t1);
            t.traced_lat_ms.push_back(seconds_between(whole.t0, whole.t1) * 1e3);
            ledger.add(*tr);
            t.check(st, *res, qi);
          } else {
            const std::int64_t t0 = now_ns();
            const QueryService::Result res =
                svc.submit([&st, &q] { return st.entry(q); }).get();
            t.completed(t0, now_ns(), *res);
            // The client verifies each result before its next query.
            t.check(st, *res, qi);
          }
        } catch (const std::exception& e) {
          t.error(e.what());  // RejectedError, TimeoutError, I/O errors
        }
        done.fetch_add(1);
      }
    });
  for (std::thread& th : clients) th.join();
  const ReadCacheStats c1 = eng.cache_stats();
  const ServiceStats s1 = svc.stats();
  eng.set_fetch_hook(nullptr);
  svc.shutdown();

  Tally t;
  for (const Tally& x : tallies) t.merge(x);
  report_failures(t, rep);
  if (!opt.trace) {
    // Completions per half-second window, median over windows.
    const std::vector<double> ones(t.end_ns.size(), 1.0);
    report_end_to_end(t, st.setup_s,
                      median_window_rate(t.end_ns, ones, start, kRateWindowS),
                      median_window_rate(t.end_ns, t.result_mb, start, kRateWindowS),
                      rep);
    return;
  }
  LayerValues lv;
  report_layers(ledger, t, c0, c1, lv, rep);
  const double ops = static_cast<double>(std::max<std::uint64_t>(ledger.ops(), 1));
  lv["query_service.queue_wait_ms"] = ledger.self_ns(Layer::kQueueWait) / ops / 1e6;
  lv["query_service.exec_ms"] = ledger.total_ns(Layer::kExec) / ops / 1e6;
  lv["query_service.resolve_us"] = ledger.self_ns(Layer::kResolve) / ops / 1e3;
  lv["query_service.coalesced"] = static_cast<double>(s1.coalesced - s0.coalesced);
  if (s1.coalesced != s0.coalesced)
    rep.fail("queries were coalesced in a distinct-query workload");
  emit_layer_metrics(rep, lv);
  if (!opt.spans_out.empty()) ledger.write_spans(opt.spans_out);
}

}  // namespace perfbench
