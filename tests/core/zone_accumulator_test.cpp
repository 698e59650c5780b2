/// ZoneAccumulator: streaming a LOD-ordered file in chunks of any size
/// must give, bit for bit, the zone table of one `compute_zone_maps` call
/// — and both must match a plain record-major oracle. Every case runs on
/// the host's best SIMD level (the AVX2 min/max kernel where available)
/// and again capped to the scalar loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "core/lod.hpp"
#include "core/query_plan/zone_map.hpp"
#include "simd/simd_level.hpp"
#include "util/rng.hpp"
#include "workload/particle_buffer.hpp"
#include "workload/schema.hpp"

namespace spio {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The zone table written out by hand: record-major, one component at a
/// time, `std::min(cur, v)`/`std::max(cur, v)`, NaN poisons to ±inf.
std::vector<FieldRange> oracle(const ParticleBuffer& buf,
                               const LodParams& lod) {
  const Schema& s = buf.schema();
  std::vector<std::pair<std::size_t, bool>> comps;  // offset, is f64
  for (std::size_t f = 0; f < s.field_count(); ++f) {
    const FieldDesc& fd = s.fields()[f];
    for (std::uint32_t c = 0; c < fd.components; ++c)
      comps.emplace_back(s.offset(f) + c * field_type_size(fd.type),
                         fd.type == FieldType::kF64);
  }
  const std::uint64_t n = buf.size();
  const std::uint32_t zones = zone_file_count(lod, n);
  std::vector<FieldRange> out(std::size_t{zones} * comps.size(),
                              FieldRange{kInf, -kInf});
  for (std::uint32_t z = 0; z < zones; ++z) {
    for (std::uint64_t i = zone_begin(lod, z, n);
         i < zone_begin(lod, z + 1, n); ++i) {
      const std::byte* rec = buf.bytes().data() + i * buf.record_size();
      for (std::size_t c = 0; c < comps.size(); ++c) {
        double v;
        if (comps[c].second) {
          std::memcpy(&v, rec + comps[c].first, sizeof(v));
        } else {
          float f;
          std::memcpy(&f, rec + comps[c].first, sizeof(f));
          v = f;
        }
        FieldRange& r = out[z * comps.size() + c];
        if (std::isnan(v)) {
          r = {-kInf, kInf};
        } else {
          r.min = std::min(r.min, v);
          r.max = std::max(r.max, v);
        }
      }
    }
  }
  return out;
}

/// Bitwise equality: -0.0 and +0.0 must land exactly where the scalar
/// loop puts them.
bool same_bits(const std::vector<FieldRange>& a,
               const std::vector<FieldRange>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(FieldRange)) == 0;
}

std::vector<FieldRange> streamed(const ParticleBuffer& buf,
                                 const LodParams& lod,
                                 const std::vector<std::uint64_t>& cuts) {
  ZoneAccumulator acc(buf.schema(), lod, buf.size());
  std::uint64_t at = 0;
  const std::size_t rs = buf.record_size();
  for (std::uint64_t cut : cuts) {
    acc.add(buf.bytes().subspan(at * rs, (cut - at) * rs));
    at = cut;
  }
  acc.add(buf.bytes().subspan(at * rs));
  return acc.take();
}

/// Random values in every component, then the edge values the kernels
/// must agree on: NaN in an f64 and an f32 component, and -0.0/+0.0 in
/// both orders inside one zone.
ParticleBuffer make_buffer(const Schema& schema, std::uint64_t n,
                           std::uint64_t seed) {
  ParticleBuffer buf(schema);
  Xoshiro256 rng(seed);
  std::vector<std::byte> rec(schema.record_size());
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < schema.field_count(); ++f) {
      const FieldDesc& fd = schema.fields()[f];
      for (std::uint32_t c = 0; c < fd.components; ++c) {
        const double v = rng.uniform(-100.0, 100.0);
        std::byte* at = rec.data() + schema.offset(f) +
                        c * field_type_size(fd.type);
        if (fd.type == FieldType::kF64) {
          std::memcpy(at, &v, sizeof(v));
        } else {
          const float fv = static_cast<float>(v);
          std::memcpy(at, &fv, sizeof(fv));
        }
      }
    }
    buf.append_record(rec);
  }
  const auto put = [&](std::uint64_t i, std::size_t field, std::uint32_t c,
                       double v) {
    if (i >= n || field >= schema.field_count() ||
        c >= schema.fields()[field].components)
      return;  // the schema has no such component
    if (schema.fields()[field].type == FieldType::kF64)
      buf.set_f64(i, field, c, v);
    else
      buf.set_f32(i, field, c, static_cast<float>(v));
  };
  // ±0 in both orders in position.x and position.y, everything else
  // there positive.
  for (std::uint64_t i = 0; i < n; ++i) {
    put(i, 0, 0, 1.0 + static_cast<double>(i));
    put(i, 0, 1, 1.0 + static_cast<double>(i));
  }
  put(1, 0, 0, +0.0);
  put(2, 0, 0, -0.0);
  put(1, 0, 1, -0.0);
  put(2, 0, 1, +0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::size_t last = schema.field_count() - 1;
  put(5, 0, 1, nan);      // an f64 component, in zone 1 under P=3
  put(n - 1, 0, 2, nan);  // the file's last record
  put(7, last, 0, nan);   // the schema's last field (f32 in both schemas)
  put(9, 2, 1, nan);      // odd_schema: a run-of-four lane at an
                          // unaligned offset
  return buf;
}

/// A schema whose f64 components never line up as the Uintah ones do:
/// position, an f32 that shifts every later offset by 4, a run of five,
/// a pair, a single, then an f32 vector.
Schema odd_schema() {
  return Schema({{"position", FieldType::kF64, 3},
                 {"type", FieldType::kF32, 1},
                 {"five", FieldType::kF64, 5},
                 {"pair", FieldType::kF64, 2},
                 {"one", FieldType::kF64, 1},
                 {"flags", FieldType::kF32, 3}});
}

/// Chunkings of an n-record file under `lod`: one chunk per record, cuts
/// just before, on and just after every zone boundary, fixed strides and
/// random cuts.
std::vector<std::vector<std::uint64_t>> chunkings(const LodParams& lod,
                                                  std::uint64_t n) {
  std::vector<std::vector<std::uint64_t>> out;
  std::vector<std::uint64_t> every;
  for (std::uint64_t i = 1; i < n; ++i) every.push_back(i);
  out.push_back(every);
  for (int delta = -1; delta <= 1; ++delta) {
    std::vector<std::uint64_t> cuts;
    for (std::uint32_t z = 1; z < zone_file_count(lod, n); ++z) {
      const std::int64_t b =
          static_cast<std::int64_t>(zone_begin(lod, z, n)) + delta;
      if (b > 0 && b < static_cast<std::int64_t>(n) &&
          (cuts.empty() || static_cast<std::uint64_t>(b) > cuts.back()))
        cuts.push_back(static_cast<std::uint64_t>(b));
    }
    out.push_back(cuts);
  }
  for (std::uint64_t stride : {2u, 7u, 64u}) {
    std::vector<std::uint64_t> cuts;
    for (std::uint64_t i = stride; i < n; i += stride) cuts.push_back(i);
    out.push_back(cuts);
  }
  Xoshiro256 rng(n);
  for (int t = 0; t < 8; ++t) {
    std::vector<std::uint64_t> cuts;
    for (std::uint64_t i = 1 + rng.uniform_index(9); i < n;
         i += 1 + rng.uniform_index(40))
      cuts.push_back(i);
    out.push_back(cuts);
  }
  return out;
}

struct Case {
  const char* name;
  Schema schema;
  LodParams lod;
  std::uint64_t n;
};

void check_every_chunking(const Case& c) {
  const ParticleBuffer buf = make_buffer(c.schema, c.n, c.n * 31 + 1);
  const std::vector<FieldRange> want = oracle(buf, c.lod);
  for (const bool scalar : {false, true}) {
    std::optional<simd::ScopedLevelCap> cap;
    if (scalar) cap.emplace(simd::Level::kScalar);
    const std::vector<FieldRange> whole = compute_zone_maps(buf, c.lod);
    ASSERT_TRUE(same_bits(whole, want)) << c.name << " scalar=" << scalar;
    for (const auto& cuts : chunkings(c.lod, c.n)) {
      ASSERT_TRUE(same_bits(streamed(buf, c.lod, cuts), want))
          << c.name << " scalar=" << scalar << " cuts=" << cuts.size();
    }
  }
}

TEST(ZoneAccumulator, AnyChunkingMatchesOneCallOnUintahRecords) {
  // P=3, S=2 zones are 3, 6, 12, 24, 48: 94 records leave a 1-record
  // last zone, 93 end exactly on a boundary.
  for (const std::uint64_t n : {1u, 2u, 3u, 4u, 93u, 94u, 200u}) {
    SCOPED_TRACE(n);
    check_every_chunking({"uintah", Schema::uintah(), {3, 2.0}, n});
  }
}

TEST(ZoneAccumulator, AnyChunkingMatchesOneCallOnUnalignedRuns) {
  for (const std::uint64_t n : {1u, 94u, 200u}) {
    SCOPED_TRACE(n);
    check_every_chunking({"odd", odd_schema(), {3, 2.0}, n});
  }
}

TEST(ZoneAccumulator, MoreThanFourRunsTakeSeveralVectorPasses) {
  // 20 consecutive f64 components: five runs of four, one pass of four
  // runs and one of a single run.
  const Schema wide({{"position", FieldType::kF64, 3},
                     {"wide", FieldType::kF64, 17},
                     {"type", FieldType::kF32, 1}});
  check_every_chunking({"wide", wide, {3, 2.0}, 94});
}

TEST(ZoneAccumulator, DefaultLodAndPositionOnlySchema) {
  // The paper's P=32, S=2: zones of 32, 64, 128; 97 records leave a
  // 1-record last zone.
  check_every_chunking({"uintah-32", Schema::uintah(), {32, 2.0}, 97});
  check_every_chunking(
      {"position", Schema({{"position", FieldType::kF64, 3}}), {3, 2.0}, 94});
}

TEST(ZoneAccumulator, NanAndSignedZeroLandWhereTheScalarLoopPutsThem) {
  const ParticleBuffer buf = make_buffer(Schema::uintah(), 94, 5);
  const LodParams lod{3, 2.0};
  const std::size_t comps = 16;
  for (const bool scalar : {false, true}) {
    std::optional<simd::ScopedLevelCap> cap;
    if (scalar) cap.emplace(simd::Level::kScalar);
    const std::vector<FieldRange> z = compute_zone_maps(buf, lod);
    ASSERT_EQ(z.size(), zone_file_count(lod, 94) * comps);
    // Record 5 (zone 1) has NaN in position.y; record 7 (zone 1) in type.
    EXPECT_EQ(z[comps + 1].min, -kInf);
    EXPECT_EQ(z[comps + 1].max, kInf);
    EXPECT_EQ(z[comps + 15].min, -kInf);
    EXPECT_EQ(z[comps + 15].max, kInf);
    EXPECT_NE(z[2].min, -kInf);  // zone 0 untouched
    // Records 1 then 2 are (+0, -0) in position.x, (-0, +0) in position.y:
    // the first zero seen stays, as with std::min/std::max.
    EXPECT_EQ(z[0].min, 0.0);
    EXPECT_FALSE(std::signbit(z[0].min));
    EXPECT_TRUE(std::signbit(z[1].min));
  }
}

}  // namespace
}  // namespace spio
