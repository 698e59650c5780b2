#include "core/query_plan/zone_map.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/lod.hpp"
#include "simd/kernels.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"
#include "workload/particle_buffer.hpp"

namespace spio {

std::uint32_t zone_file_count(const LodParams& lod, std::uint64_t n) {
  return n == 0 ? 0
               : static_cast<std::uint32_t>(lod_level_count(lod, 1, n));
}

std::uint64_t zone_begin(const LodParams& lod, std::uint32_t z,
                         std::uint64_t n) {
  return lod_cumulative(lod, 1, static_cast<int>(z), n);
}

namespace {

/// `zones == zone_file_count(lod, n)` for n > 0, decided in at most
/// `zones + 1` level steps: a hostile sidecar (S = 1 and a huge n) cannot
/// make the parser walk the law to its end.
bool zone_count_law_holds(const LodParams& lod, std::uint32_t zones,
                          std::uint64_t n) {
  std::uint64_t cum = 0;
  for (std::uint32_t z = 0; z < zones; ++z) {
    if (cum >= n) return false;  // n is covered in fewer zones
    const std::uint64_t sz = lod_level_size(lod, 1, static_cast<int>(z));
    cum = sz >= n - cum ? n : cum + sz;
  }
  return cum >= n;
}

}  // namespace

const FileZones* ZoneMapTable::find(std::uint32_t aggregator_rank) const {
  const auto it = std::lower_bound(
      files.begin(), files.end(), aggregator_rank,
      [](const FileZones& f, std::uint32_t r) {
        return f.aggregator_rank < r;
      });
  return it != files.end() && it->aggregator_rank == aggregator_rank
             ? &*it
             : nullptr;
}

std::vector<std::byte> ZoneMapTable::serialize() const {
  BinaryWriter w;
  w.write<std::uint32_t>(kMagic);
  w.write<std::uint32_t>(kVersion);
  w.write<std::uint32_t>(static_cast<std::uint32_t>(range_count));
  w.write<std::uint64_t>(lod.P);
  w.write<double>(lod.S);
  w.write<std::uint32_t>(static_cast<std::uint32_t>(files.size()));
  for (const FileZones& f : files) {
    SPIO_EXPECTS(f.zones.size() ==
                 std::size_t{zone_file_count(lod, f.particle_count)} *
                     range_count);
    w.write<std::uint32_t>(f.aggregator_rank);
    w.write<std::uint64_t>(f.particle_count);
    w.write<std::uint32_t>(zone_file_count(lod, f.particle_count));
    for (const FieldRange& z : f.zones) {
      w.write<double>(z.min);
      w.write<double>(z.max);
    }
  }
  w.write<std::uint64_t>(crc64(w.bytes()));
  return w.take();
}

ZoneMapTable ZoneMapTable::deserialize(std::span<const std::byte> bytes) {
  SPIO_CHECK(bytes.size() > sizeof(std::uint64_t), FormatError,
             "zone sidecar truncated (" << bytes.size() << " bytes)");
  const std::span<const std::byte> body =
      bytes.first(bytes.size() - sizeof(std::uint64_t));
  std::uint64_t trailer;
  std::memcpy(&trailer, bytes.data() + body.size(), sizeof(trailer));
  SPIO_CHECK(trailer == crc64(body), FormatError,
             "zone sidecar CRC mismatch");

  BinaryReader r(body);
  ZoneMapTable t;
  SPIO_CHECK(r.read<std::uint32_t>() == kMagic, FormatError,
             "not a zone sidecar (bad magic)");
  SPIO_CHECK(r.read<std::uint32_t>() == kVersion, FormatError,
             "unsupported zone sidecar version");
  t.range_count = r.read<std::uint32_t>();
  SPIO_CHECK(t.range_count > 0, FormatError,
             "zone sidecar has no field components");
  t.lod.P = r.read<std::uint64_t>();
  t.lod.S = r.read<double>();
  SPIO_CHECK(t.lod.valid(), FormatError,
             "zone sidecar has invalid LOD parameters");
  const auto file_count = r.read<std::uint32_t>();
  // rank, particle count, zone count
  r.check_count(file_count, 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t));
  t.files.reserve(file_count);
  for (std::uint32_t i = 0; i < file_count; ++i) {
    FileZones f;
    f.aggregator_rank = r.read<std::uint32_t>();
    f.particle_count = r.read<std::uint64_t>();
    SPIO_CHECK(f.particle_count > 0, FormatError,
               "zone sidecar entry " << i << " claims an empty file");
    SPIO_CHECK(t.files.empty() ||
                   t.files.back().aggregator_rank < f.aggregator_rank,
               FormatError, "zone sidecar entries out of order");
    const auto zones = r.read<std::uint32_t>();
    // Bytes first: they bound `zones`, and so the law check's steps.
    const std::uint64_t ranges = std::uint64_t{zones} * t.range_count;
    r.check_count(ranges, 2 * sizeof(double));
    SPIO_CHECK(zone_count_law_holds(t.lod, zones, f.particle_count),
               FormatError,
               "zone sidecar entry " << i
                                     << " violates the LOD zone-count law");
    f.zones.resize(static_cast<std::size_t>(ranges));
    for (FieldRange& z : f.zones) {
      z.min = r.read<double>();
      z.max = r.read<double>();
      SPIO_CHECK(!std::isnan(z.min) && !std::isnan(z.max) && z.min <= z.max,
                 FormatError,
                 "zone sidecar entry " << i << " has an invalid range");
    }
    t.files.push_back(std::move(f));
  }
  SPIO_CHECK(r.at_end(), FormatError,
             "zone sidecar has trailing bytes");
  return t;
}

void ZoneMapTable::save(const std::filesystem::path& dir) const {
  write_file(dir / kFileName, serialize());
}

ZoneMapTable ZoneMapTable::load(const std::filesystem::path& dir) {
  return deserialize(read_file(dir / kFileName));
}

bool ZoneMapTable::present(const std::filesystem::path& dir) {
  std::error_code ec;
  return std::filesystem::is_regular_file(dir / kFileName, ec);
}

ZoneAccumulator::ZoneAccumulator(const Schema& s, const LodParams& lod,
                                 std::uint64_t n)
    : lod_(lod),
      n_(n),
      record_size_(s.record_size()),
      // An L2-sized block of records at a time, so the scalar pass reads
      // the block the vector pass just brought into cache.
      block_(std::max<std::size_t>(1, (std::size_t{256} << 10) /
                                          s.record_size())) {
  for (std::size_t f = 0; f < s.field_count(); ++f) {
    const FieldDesc& fd = s.fields()[f];
    const std::size_t elem = field_type_size(fd.type);
    for (std::uint32_t c = 0; c < fd.components; ++c)
      comps_.push_back({comps_.size(), s.offset(f) + c * elem,
                        fd.type == FieldType::kF64});
  }
  // Runs of four consecutive f64 components take the vector kernel; the
  // rest take the scalar loop.
  const auto quad_at = [&](std::size_t c) {
    if (c + 4 > comps_.size()) return false;
    for (std::size_t k = 0; k < 4; ++k)
      if (!comps_[c + k].f64 ||
          comps_[c + k].offset != comps_[c].offset + k * sizeof(double))
        return false;
    return true;
  };
  for (std::size_t c = 0; c < comps_.size();) {
    if (quad_at(c)) {
      quads_.push_back(comps_[c]);
      c += 4;
    } else {
      scalars_.push_back(comps_[c]);
      c += 1;
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  zones_.assign(std::size_t{zone_file_count(lod, n)} * comps_.size(),
                FieldRange{kInf, -kInf});
  next_ = zone_begin(lod, 1, n);
}

void ZoneAccumulator::add(std::span<const std::byte> records) {
  SPIO_EXPECTS(records.size() % record_size_ == 0);
  const std::byte* base = records.data();
  std::uint64_t left = records.size() / record_size_;
  SPIO_EXPECTS(left <= n_ - seen_);
  while (left > 0) {
    if (seen_ == next_) {
      ++zone_;
      next_ = zone_begin(lod_, zone_ + 1, n_);
    }
    // Records up to the next zone boundary all fold into one zone.
    const auto count = static_cast<std::size_t>(
        std::min<std::uint64_t>({left, next_ - seen_, block_}));
    fold(base, count, zones_.data() + std::size_t{zone_} * comps_.size());
    base += count * record_size_;
    seen_ += count;
    left -= count;
  }
}

void ZoneAccumulator::fold(const std::byte* base, std::size_t count,
                           FieldRange* zr) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Up to four quads share one vector pass over the records.
  bool vector = !quads_.empty();
  for (std::size_t g = 0; vector && g < quads_.size(); g += 4) {
    const std::size_t nq = std::min<std::size_t>(4, quads_.size() - g);
    std::size_t offsets[4] = {};
    double lo[16] = {}, hi[16] = {};
    for (std::size_t q = 0; q < nq; ++q) {
      offsets[q] = quads_[g + q].offset;
      for (std::size_t k = 0; k < 4; ++k) {
        lo[4 * q + k] = zr[quads_[g + q].index + k].min;
        hi[4 * q + k] = zr[quads_[g + q].index + k].max;
      }
    }
    unsigned nan = 0;
    // Below AVX2 the kernel declines and every component takes the
    // scalar loop (min/max are idempotent, so nothing is counted twice).
    vector = simd::minmax_f64x4(base, record_size_, count, offsets, nq, lo,
                                hi, &nan);
    for (std::size_t j = 0; vector && j < 4 * nq; ++j) {
      // Filter kernels pass NaN, so a zone that saw one matches everything.
      zr[quads_[g + j / 4].index + j % 4] =
          (nan >> j) & 1u ? FieldRange{-kInf, kInf} : FieldRange{lo[j], hi[j]};
    }
  }
  // Record-major: each record updates all of its scalar component ranges
  // while it sits in cache.
  const std::vector<Comp>& comps = vector ? scalars_ : comps_;
  for (std::size_t i = 0; i < count; ++i) {
    const std::byte* rec = base + i * record_size_;
    for (const Comp& c : comps) {
      double v;
      if (c.f64) {
        std::memcpy(&v, rec + c.offset, sizeof(double));
      } else {
        float fv;
        std::memcpy(&fv, rec + c.offset, sizeof(float));
        v = static_cast<double>(fv);
      }
      FieldRange& r = zr[c.index];
      if (std::isnan(v)) {
        r = {-kInf, kInf};
      } else {
        r.min = std::min(r.min, v);
        r.max = std::max(r.max, v);
      }
    }
  }
}

std::vector<FieldRange> ZoneAccumulator::take() {
  SPIO_EXPECTS(seen_ == n_);
  return std::move(zones_);
}

std::vector<FieldRange> compute_zone_maps(const ParticleBuffer& buf,
                                          const LodParams& lod) {
  if (buf.empty()) return {};
  ZoneAccumulator acc(buf.schema(), lod, buf.size());
  acc.add(buf.bytes());
  return acc.take();
}

std::vector<FieldRange> zone_union(const std::vector<FieldRange>& zones,
                                   std::size_t range_count) {
  SPIO_EXPECTS(range_count > 0 && zones.size() % range_count == 0);
  std::vector<FieldRange> out(zones.begin(),
                              zones.begin() + static_cast<std::ptrdiff_t>(
                                                  range_count));
  for (std::size_t i = range_count; i < zones.size(); ++i) {
    FieldRange& u = out[i % range_count];
    u.min = std::min(u.min, zones[i].min);
    u.max = std::max(u.max, zones[i].max);
  }
  return out;
}

bool zones_consistent(const ZoneMapTable& table,
                      const DatasetMetadata& meta) {
  if (table.range_count != meta.range_count()) return false;
  if (table.lod.P != meta.lod.P || table.lod.S != meta.lod.S) return false;
  for (const FileRecord& f : meta.files) {
    if (f.particle_count == 0) continue;  // no file on disk, no zones
    const FileZones* z = table.find(f.aggregator_rank);
    if (z == nullptr || z->particle_count != f.particle_count) return false;
  }
  return true;
}

}  // namespace spio
