#include "core/lod.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "util/error.hpp"

namespace spio {

namespace {
constexpr std::uint64_t kU64Max = ~0ULL;

/// n · P · S^l with saturation to u64 max.
std::uint64_t nominal(const LodParams& p, int n_readers, int level) {
  SPIO_EXPECTS(p.valid());
  SPIO_EXPECTS(n_readers >= 1);
  SPIO_EXPECTS(level >= 0);
  const double v = static_cast<double>(n_readers) *
                   static_cast<double>(p.P) *
                   std::pow(p.S, static_cast<double>(level));
  if (v >= static_cast<double>(kU64Max)) return kU64Max;
  return static_cast<std::uint64_t>(v + 0.5);
}
}  // namespace

std::uint64_t lod_level_size(const LodParams& p, int n_readers, int level) {
  return nominal(p, n_readers, level);
}

std::uint64_t lod_cumulative(const LodParams& p, int n_readers, int levels,
                             std::uint64_t total) {
  SPIO_EXPECTS(levels >= 0);
  std::uint64_t cum = 0;
  for (int l = 0; l < levels; ++l) {
    const std::uint64_t sz = nominal(p, n_readers, l);
    if (sz >= total - cum) return total;  // saturated
    cum += sz;
  }
  return cum;
}

std::uint64_t lod_level_size_capped(const LodParams& p, int n_readers,
                                    int level, std::uint64_t total) {
  const std::uint64_t before = lod_cumulative(p, n_readers, level, total);
  const std::uint64_t through = lod_cumulative(p, n_readers, level + 1, total);
  return through - before;
}

int lod_level_count(const LodParams& p, int n_readers, std::uint64_t total) {
  // One accumulating pass: the same sums `lod_cumulative` takes, each
  // level added once.
  int levels = 0;
  for (std::uint64_t cum = 0; cum < total; ++levels) {
    const std::uint64_t sz = nominal(p, n_readers, levels);
    cum = sz >= total - cum ? total : cum + sz;
  }
  return levels;
}

void RecordRuns::add(std::span<const std::byte> run) {
  SPIO_CHECK(run.size() % record_size_ == 0, FormatError,
             "record run of " << run.size()
                              << " bytes is not a multiple of the "
                              << record_size_ << "-byte record");
  if (run.empty()) return;
  data_.push_back(run.data());
  starts_.push_back(size() + run.size() / record_size_);
}

const std::byte* RecordRuns::record(std::size_t i) const {
  SPIO_EXPECTS(i < size());
  // The run holding i is the last one starting at or before it.
  const std::size_t r = static_cast<std::size_t>(
      std::upper_bound(starts_.begin() + 1, starts_.end(), i) -
      (starts_.begin() + 1));
  return data_[r] + (i - starts_[r]) * record_size_;
}

namespace {

/// Position of a record: the schema's first field, f64 ×3 at offset 0.
Vec3d position_at(const std::byte* record) {
  Vec3d p;
  std::memcpy(&p, record, sizeof(Vec3d));
  return p;
}

/// 30-bit Morton code (10 bits per axis) of a normalized position.
std::uint32_t morton_code(const Vec3d& rel) {
  auto quantize = [](double v) {
    return static_cast<std::uint32_t>(
        std::clamp(v, 0.0, 1.0 - 1e-12) * 1024.0);
  };
  auto spread = [](std::uint32_t x) {
    // Interleave 10 bits with two zero bits each.
    std::uint64_t v = x & 0x3FF;
    v = (v | (v << 16)) & 0x030000FF0000FFULL;
    v = (v | (v << 8)) & 0x0300F00F00F00FULL;
    v = (v | (v << 4)) & 0x030C30C30C30C3ULL;
    v = (v | (v << 2)) & 0x09249249249249ULL;
    return v;
  };
  return static_cast<std::uint32_t>(spread(quantize(rel.x)) |
                                    (spread(quantize(rel.y)) << 1) |
                                    (spread(quantize(rel.z)) << 2));
}

/// Morton code of every record, normalized to the records' joint bounds.
std::vector<std::uint32_t> morton_keys(const RecordRuns& records) {
  const std::size_t n = records.size();
  Box3 bounds = Box3::empty();
  for (std::size_t i = 0; i < n; ++i)
    bounds.extend(position_at(records.record(i)));
  const Vec3d size = Vec3d::max(bounds.size(), Vec3d(1e-300));
  std::vector<std::uint32_t> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = morton_code((position_at(records.record(i)) - bounds.lo) / size);
  return keys;
}

/// Indices 0..2^bits-1 in bit-reversed order, filtered to < n.
std::vector<std::uint32_t> bit_reversed_order(std::size_t n) {
  std::vector<std::uint32_t> order;
  order.reserve(n);
  if (n == 0) return order;
  std::size_t bits = 0;
  while ((1ULL << bits) < n) ++bits;
  for (std::size_t i = 0; i < (1ULL << bits); ++i) {
    std::size_t rev = 0;
    for (std::size_t b = 0; b < bits; ++b)
      if (i & (1ULL << b)) rev |= 1ULL << (bits - 1 - b);
    if (rev < n) order.push_back(static_cast<std::uint32_t>(rev));
  }
  return order;
}

std::vector<std::uint32_t> random_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  Xoshiro256 rng(seed);
  // Fisher–Yates: after the pass, every permutation is equally likely, so
  // every prefix is a uniform random subset — exactly the property the LOD
  // prefix reads rely on. Swapping 4-byte indices instead of the records
  // keeps the random accesses inside a cache-resident array.
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        rng.uniform_index(static_cast<std::uint64_t>(i)));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

std::vector<std::uint32_t> stratified_order(
    std::size_t n, std::uint64_t seed, std::span<const std::uint32_t> morton) {
  SPIO_EXPECTS(morton.size() == n);
  // Sort record indices along the Morton curve; ties (same cell) are
  // broken pseudo-randomly so co-located particles do not keep their
  // input order.
  struct Key {
    std::uint32_t morton;
    std::uint32_t tiebreak;
    std::uint32_t index;
  };
  std::vector<Key> keys(n);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = {morton[i], static_cast<std::uint32_t>(rng.next()),
               static_cast<std::uint32_t>(i)};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.morton != b.morton ? a.morton < b.morton
                                : a.tiebreak < b.tiebreak;
  });

  // Emit the space-sorted sequence in bit-reversed rank order: each
  // prefix visits the Morton curve at even spacing, i.e. is spatially
  // stratified.
  std::vector<std::uint32_t> order = bit_reversed_order(n);
  for (std::uint32_t& r : order) r = keys[r].index;
  return order;
}

}  // namespace

std::vector<std::uint32_t> lod_permutation(
    std::uint64_t n, std::uint64_t seed, LodHeuristic heuristic,
    std::span<const std::uint32_t> morton) {
  SPIO_CHECK(n <= std::numeric_limits<std::uint32_t>::max(), ConfigError,
             "cannot LOD-order " << n
                                 << " records: record indices are 32-bit; "
                                    "use a smaller partition factor");
  const auto count = static_cast<std::size_t>(n);
  switch (heuristic) {
    case LodHeuristic::kRandom:
      return random_order(count, seed);
    case LodHeuristic::kStride:
      // Deterministic interleave: indices 0, n/2, n/4, 3n/4, ... —
      // bit-reversed order over the input sequence.
      return bit_reversed_order(count);
    case LodHeuristic::kStratified:
      return stratified_order(count, seed, morton);
  }
  throw ConfigError("unknown LOD heuristic");
}

std::vector<std::uint32_t> lod_order(const RecordRuns& records,
                                     std::uint64_t seed,
                                     LodHeuristic heuristic) {
  const std::vector<std::uint32_t> morton =
      heuristic == LodHeuristic::kStratified ? morton_keys(records)
                                             : std::vector<std::uint32_t>{};
  return lod_permutation(records.size(), seed, heuristic, morton);
}

void lod_gather(const RecordRuns& records,
                std::span<const std::uint32_t> order, ParticleBuffer& out) {
  SPIO_EXPECTS(out.record_size() == records.record_size());
  const std::size_t rs = records.record_size();
  constexpr std::size_t kAhead = 16;
  const std::byte* ahead[kAhead] = {};  // ring: records k .. k+kAhead-1
  const std::size_t n = order.size();
  for (std::size_t k = 0; k < std::min(n, kAhead); ++k)
    ahead[k] = records.record(order[k]);
  // The reads are random, so the records a few steps ahead are prefetched.
  for (std::size_t k = 0; k < n; ++k) {
    const std::byte* src = ahead[k % kAhead];
    if (k + kAhead < n) {
      const std::byte* p = records.record(order[k + kAhead]);
      for (std::size_t off = 0; off < rs; off += 64) __builtin_prefetch(p + off);
      __builtin_prefetch(p + rs - 1);
      ahead[k % kAhead] = p;
    }
    out.append_records(src, 1);
  }
}

void lod_reorder(const RecordRuns& records, ParticleBuffer& out,
                 std::uint64_t seed, LodHeuristic heuristic) {
  const std::vector<std::uint32_t> order = lod_order(records, seed, heuristic);
  out.clear();
  out.reserve(order.size());
  lod_gather(records, order, out);
}

void lod_reorder(ParticleBuffer& buf, std::uint64_t seed,
                 LodHeuristic heuristic) {
  RecordRuns records(buf.record_size());
  records.add(buf.bytes());
  ParticleBuffer out(buf.schema());
  lod_reorder(records, out, seed, heuristic);
  buf = std::move(out);
}

}  // namespace spio
