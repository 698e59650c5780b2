#include "workload/generators.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "util/checksum.hpp"

namespace spio::workload {
namespace {

const Box3 kPatch({2, 2, 2}, {4, 4, 4});

TEST(UniformGenerator, CountAndContainment) {
  const auto buf = uniform(Schema::uintah(), kPatch, 1000, 42);
  EXPECT_EQ(buf.size(), 1000u);
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_TRUE(kPatch.contains(buf.position(i))) << i;
}

TEST(UniformGenerator, Deterministic) {
  const auto a = uniform(Schema::uintah(), kPatch, 100, 7);
  const auto b = uniform(Schema::uintah(), kPatch, 100, 7);
  ASSERT_EQ(a.byte_size(), b.byte_size());
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.byte_size()), 0);
}

TEST(UniformGenerator, SeedChangesOutput) {
  const auto a = uniform(Schema::uintah(), kPatch, 100, 7);
  const auto b = uniform(Schema::uintah(), kPatch, 100, 8);
  EXPECT_NE(std::memcmp(a.bytes().data(), b.bytes().data(), a.byte_size()), 0);
}

TEST(UniformGenerator, IdsAreSequentialFromFirstId) {
  const auto buf = uniform(Schema::uintah(), kPatch, 10, 1, /*first_id=*/500);
  const auto id = buf.schema().index_of("id");
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_EQ(buf.get_f64(i, id), 500.0 + static_cast<double>(i));
}

TEST(UniformGenerator, AttributesArePhysicsPlausible) {
  const auto buf = uniform(Schema::uintah(), kPatch, 200, 3);
  const auto density = buf.schema().index_of("density");
  const auto volume = buf.schema().index_of("volume");
  const auto type = buf.schema().index_of("type");
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_GT(buf.get_f64(i, density), 0.0);
    EXPECT_GT(buf.get_f64(i, volume), 0.0);
    const float t = buf.get_f32(i, type);
    EXPECT_GE(t, 0.0f);
    EXPECT_LT(t, 4.0f);
  }
}

TEST(UniformGenerator, PositionsFillThePatch) {
  // With 5000 samples every octant of the patch should be hit.
  const auto buf = uniform(Schema::position_only(), kPatch, 5000, 11);
  int octant_count[8] = {0};
  const Vec3d mid = kPatch.center();
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const Vec3d p = buf.position(i);
    const int o = (p.x >= mid.x) | ((p.y >= mid.y) << 1) | ((p.z >= mid.z) << 2);
    ++octant_count[o];
  }
  for (int o = 0; o < 8; ++o) EXPECT_GT(octant_count[o], 300) << o;
}

TEST(ZeroCount, ProducesEmptyBuffer) {
  EXPECT_TRUE(uniform(Schema::uintah(), kPatch, 0, 1).empty());
}

TEST(GaussianClusters, ContainedAndClustered) {
  const auto buf =
      gaussian_clusters(Schema::uintah(), kPatch, 2000, 3, 0.05, 13);
  EXPECT_EQ(buf.size(), 2000u);
  Box3 bounds = Box3::empty();
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_TRUE(kPatch.contains(buf.position(i)));
    bounds.extend(buf.position(i));
  }
  // Clusters with sigma 5% of patch occupy far less than the whole patch
  // volume most of the time; just assert the distribution is not uniform:
  // count particles in the densest octant vs the sparsest.
  int octant_count[8] = {0};
  const Vec3d mid = kPatch.center();
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const Vec3d p = buf.position(i);
    const int o = (p.x >= mid.x) | ((p.y >= mid.y) << 1) | ((p.z >= mid.z) << 2);
    ++octant_count[o];
  }
  int mn = octant_count[0], mx = octant_count[0];
  for (int o = 1; o < 8; ++o) {
    mn = std::min(mn, octant_count[o]);
    mx = std::max(mx, octant_count[o]);
  }
  EXPECT_GT(mx, 2 * std::max(mn, 1));
}

TEST(CoverageRegion, ShrinksAlongX) {
  const Box3 domain({0, 0, 0}, {8, 2, 2});
  const Box3 half = coverage_region(domain, 0.5);
  EXPECT_EQ(half, Box3({0, 0, 0}, {4, 2, 2}));
  const Box3 full = coverage_region(domain, 1.0);
  EXPECT_EQ(full, domain);
  const Box3 eighth = coverage_region(domain, 0.125);
  EXPECT_DOUBLE_EQ(eighth.hi.x, 1.0);
}

TEST(UniformInRegion, EmptyIntersectionYieldsNoParticles) {
  const Box3 region({0, 0, 0}, {1, 1, 1});  // disjoint from kPatch
  EXPECT_TRUE(
      uniform_in_region(Schema::uintah(), kPatch, region, 100, 5).empty());
}

TEST(UniformInRegion, PartialIntersectionStaysInside) {
  const Box3 region({0, 0, 0}, {3, 10, 10});  // overlaps half of kPatch in x
  const auto buf = uniform_in_region(Schema::uintah(), kPatch, region, 500, 5);
  EXPECT_EQ(buf.size(), 500u);
  const Box3 live = Box3::intersection(kPatch, region);
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_TRUE(live.contains(buf.position(i)));
}

TEST(PlummerSphere, CountContainmentAndDeterminism) {
  const auto a = plummer_sphere(Schema::uintah(), kPatch, 1500, 0.05, 31);
  const auto b = plummer_sphere(Schema::uintah(), kPatch, 1500, 0.05, 31);
  EXPECT_EQ(a.size(), 1500u);
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(kPatch.contains(a.position(i)));
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.byte_size()), 0);
}

TEST(PlummerSphere, CentrallyConcentrated) {
  const auto buf =
      plummer_sphere(Schema::position_only(), kPatch, 20000, 0.05, 7);
  const Vec3d center = kPatch.center();
  const double half_extent = kPatch.size().min_component() / 2;
  int inner = 0, outer = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const double r = distance(buf.position(i), center);
    if (r < 0.1 * half_extent) ++inner;
    if (r > 0.5 * half_extent) ++outer;
  }
  // Plummer theory: M(<a) = a^3/(2a^2)^(3/2) ~ 35% of the mass inside
  // r = a (here a = 0.1 = the "inner" radius), and ~6% beyond r = 0.5.
  // Uniform sampling would put ~0.05% inside the inner ball.
  EXPECT_GT(inner, 4 * std::max(outer, 1));
  EXPECT_NEAR(static_cast<double>(inner) / static_cast<double>(buf.size()),
              0.354, 0.04);
  EXPECT_NEAR(static_cast<double>(outer) / static_cast<double>(buf.size()),
              0.057, 0.03);
}

TEST(PlummerSphere, ScaleRadiusControlsSpread) {
  const auto tight =
      plummer_sphere(Schema::position_only(), kPatch, 4000, 0.02, 5);
  const auto wide =
      plummer_sphere(Schema::position_only(), kPatch, 4000, 0.3, 5);
  auto mean_radius = [&](const ParticleBuffer& b) {
    double s = 0;
    for (std::size_t i = 0; i < b.size(); ++i)
      s += distance(b.position(i), kPatch.center());
    return s / static_cast<double>(b.size());
  };
  EXPECT_LT(mean_radius(tight), 0.5 * mean_radius(wide));
}

TEST(Injection, TimeZeroIsEmpty) {
  const Box3 domain({0, 0, 0}, {10, 10, 10});
  EXPECT_TRUE(injection(Schema::uintah(), kPatch, domain, 0.0, 100, 9).empty());
}

TEST(Injection, FrontAdvancesWithTime) {
  const Box3 domain({0, 0, 0}, {10, 10, 10});
  const Box3 patch({0, 0, 0}, {10, 10, 10});  // single-rank view
  const auto early = injection(Schema::uintah(), patch, domain, 0.2, 4000, 9);
  const auto late = injection(Schema::uintah(), patch, domain, 0.9, 4000, 9);
  ASSERT_FALSE(early.empty());
  ASSERT_FALSE(late.empty());
  EXPECT_LT(early.bounds().hi.x, 2.01);
  EXPECT_GT(late.bounds().hi.x, 5.0);
}

TEST(Injection, DensityDecaysTowardFront) {
  const Box3 domain({0, 0, 0}, {10, 10, 10});
  const Box3 patch = domain;
  const auto buf = injection(Schema::uintah(), patch, domain, 1.0, 20000, 21);
  // Count particles in the first and last thirds of the occupied region.
  int head = 0, tail = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const double x = buf.position(i).x;
    if (x < 10.0 / 3.0) ++head;
    if (x > 20.0 / 3.0) ++tail;
  }
  EXPECT_GT(head, tail);
}

TEST(Injection, RanksOutsideFrontAreEmpty) {
  const Box3 domain({0, 0, 0}, {10, 10, 10});
  const Box3 far_patch({8, 0, 0}, {10, 10, 10});
  EXPECT_TRUE(
      injection(Schema::uintah(), far_patch, domain, 0.5, 100, 3).empty());
}

// Generator output is pinned byte for byte: the Uintah checkpoint
// workload, plus a schema that reaches every attribute rule (a
// non-tensor `stress`, an f64 `type`, unknown f64 and f32 fields).
const Schema& odd_schema() {
  static const Schema s({{"position", FieldType::kF64, 3},
                         {"stress", FieldType::kF64, 4},
                         {"type", FieldType::kF64, 1},
                         {"velocity", FieldType::kF64, 3},
                         {"id", FieldType::kF64, 1},
                         {"charge", FieldType::kF32, 2},
                         {"density", FieldType::kF64, 1}});
  return s;
}

std::string digest(const ParticleBuffer& buf) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(crc64(buf.bytes())));
  return hex;
}

TEST(GeneratorGolden, Uniform) {
  EXPECT_EQ(digest(uniform(Schema::uintah(), kPatch, 3000, 11, 7)),
            "c794b1be7f5285a6");
  EXPECT_EQ(digest(uniform(odd_schema(), kPatch, 3000, 11, 7)),
            "93997917fdc995c5");
}

TEST(GeneratorGolden, GaussianClusters) {
  EXPECT_EQ(digest(gaussian_clusters(Schema::uintah(), kPatch, 3000, 5, 0.05,
                                     12, 3)),
            "6b9f976735fd871e");
  EXPECT_EQ(
      digest(gaussian_clusters(odd_schema(), kPatch, 3000, 5, 0.05, 12, 3)),
      "7034a39056993dbb");
}

TEST(GeneratorGolden, PlummerSphere) {
  EXPECT_EQ(digest(plummer_sphere(Schema::uintah(), kPatch, 3000, 0.1, 13)),
            "241f057e1d4e9eae");
  EXPECT_EQ(digest(plummer_sphere(odd_schema(), kPatch, 3000, 0.1, 13)),
            "54569a46f746447c");
}

TEST(GeneratorGolden, Injection) {
  const Box3 domain({0, 0, 0}, {10, 10, 10});
  EXPECT_EQ(digest(injection(Schema::uintah(), domain, domain, 0.7, 3000, 14)),
            "b32b30cab137b93f");
  EXPECT_EQ(digest(injection(odd_schema(), domain, domain, 0.7, 3000, 14)),
            "5803d8df57d12b75");
}

// Generators append records without zero-filling them, so every byte of
// a record must be written. Each buffer is generated right after a
// buffer of the same capacity was filled with `poison` and freed: the
// allocator tends to hand that block back to the generator's reserve, so
// a byte left unwritten would read `poison` and tell the two runs apart.
ParticleBuffer generate_after(unsigned char poison, const Schema& schema,
                              std::size_t count,
                              const std::function<ParticleBuffer()>& gen) {
  {
    ParticleBuffer used(schema);
    const std::span<std::byte> all = used.append_for_overwrite(count);
    std::memset(all.data(), poison, all.size());
  }
  return gen();
}

TEST(GeneratorGolden, EveryRecordByteIsWritten) {
  // The odd schema, the Uintah one, and one whose single-value names
  // (density, type) have several components.
  const std::vector<Schema> schemas{
      Schema::uintah(), odd_schema(),
      Schema({{"position", FieldType::kF64, 3},
              {"density", FieldType::kF64, 2},
              {"type", FieldType::kF32, 3},
              {"id", FieldType::kF64, 1}})};
  const Box3 domain({0, 0, 0}, {10, 10, 10});
  constexpr std::size_t kCount = 400;
  for (const Schema& s : schemas) {
    const std::function<ParticleBuffer()> gens[] = {
        [&] { return uniform(s, kPatch, kCount, 11, 7); },
        [&] { return gaussian_clusters(s, kPatch, kCount, 5, 0.05, 12, 3); },
        [&] { return plummer_sphere(s, kPatch, kCount, 0.1, 13); },
        [&] { return injection(s, domain, domain, 0.7, kCount, 14); },
    };
    for (const auto& gen : gens) {
      const ParticleBuffer zeros = generate_after(0x00, s, kCount, gen);
      const ParticleBuffer ones = generate_after(0xFF, s, kCount, gen);
      ASSERT_GT(zeros.size(), 0u);
      ASSERT_EQ(zeros.byte_size(), ones.byte_size());
      EXPECT_EQ(0, std::memcmp(zeros.bytes().data(), ones.bytes().data(),
                               zeros.byte_size()))
          << "schema of " << s.record_size() << "-byte records, generator "
          << (&gen - gens);
    }
  }
}

}  // namespace
}  // namespace spio::workload
