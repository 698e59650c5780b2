#include "workload/particle_buffer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace spio {
namespace {

TEST(ParticleBuffer, StartsEmpty) {
  ParticleBuffer buf(Schema::uintah());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.record_size(), 124u);
}

TEST(ParticleBuffer, AppendAndReadPositions) {
  ParticleBuffer buf(Schema::uintah());
  buf.append_uninitialized();
  buf.set_position(0, {1, 2, 3});
  buf.append_uninitialized();
  buf.set_position(1, {4, 5, 6});
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.position(0), Vec3d(1, 2, 3));
  EXPECT_EQ(buf.position(1), Vec3d(4, 5, 6));
}

TEST(ParticleBuffer, TypedFieldAccess) {
  ParticleBuffer buf(Schema::uintah());
  buf.append_uninitialized();
  const auto density = buf.schema().index_of("density");
  const auto stress = buf.schema().index_of("stress");
  const auto type = buf.schema().index_of("type");
  buf.set_f64(0, density, 0, 997.0);
  buf.set_f64(0, stress, 4, -12.5);
  buf.set_f32(0, type, 0, 2.0f);
  EXPECT_EQ(buf.get_f64(0, density), 997.0);
  EXPECT_EQ(buf.get_f64(0, stress, 4), -12.5);
  EXPECT_EQ(buf.get_f32(0, type), 2.0f);
  // Untouched components remain zero-initialized.
  EXPECT_EQ(buf.get_f64(0, stress, 0), 0.0);
}

TEST(ParticleBuffer, AppendRecordCopiesBytes) {
  ParticleBuffer a(Schema::position_only());
  a.append_uninitialized();
  a.set_position(0, {7, 8, 9});
  ParticleBuffer b(Schema::position_only());
  b.append_record(a.record(0));
  EXPECT_EQ(b.position(0), Vec3d(7, 8, 9));
}

TEST(ParticleBuffer, AppendFromOtherBuffer) {
  ParticleBuffer a(Schema::uintah());
  for (int i = 0; i < 3; ++i) {
    a.append_uninitialized();
    a.set_position(static_cast<std::size_t>(i), Vec3d(i, i, i));
  }
  ParticleBuffer b(Schema::uintah());
  b.append_from(a, 2);
  b.append_from(a, 0);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.position(0), Vec3d(2, 2, 2));
  EXPECT_EQ(b.position(1), Vec3d(0, 0, 0));
}

TEST(ParticleBuffer, AppendBytesRequiresWholeRecords) {
  ParticleBuffer buf(Schema::position_only());
  std::vector<std::byte> bad(25);  // one record is 24 bytes
  EXPECT_THROW(buf.append_bytes(bad), FormatError);
  std::vector<std::byte> good(48);
  buf.append_bytes(good);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(ParticleBuffer, AppendUninitializedZeroFillsAfterPoisonedClear) {
  ParticleBuffer buf(Schema::uintah());
  const std::span<std::byte> poisoned = buf.append_for_overwrite(8);
  std::memset(poisoned.data(), 0xA5, poisoned.size());
  buf.clear();  // keeps the poisoned storage for the next append
  const std::span<std::byte> recs = buf.append_uninitialized(8);
  ASSERT_EQ(recs.size(), 8 * buf.record_size());
  for (const std::byte b : recs) ASSERT_EQ(b, std::byte{0});
}

TEST(ParticleBuffer, AppendForOverwriteGrowsSizeByCount) {
  ParticleBuffer buf(Schema::position_only());
  buf.append_uninitialized();
  buf.set_position(0, {1, 2, 3});
  const std::span<std::byte> recs = buf.append_for_overwrite(5);
  EXPECT_EQ(buf.size(), 6u);
  ASSERT_EQ(recs.size(), 5 * buf.record_size());
  EXPECT_EQ(recs.data(), buf.bytes().data() + buf.record_size());
  EXPECT_TRUE(buf.append_for_overwrite(0).empty());
  EXPECT_EQ(buf.size(), 6u);
  EXPECT_EQ(buf.position(0), Vec3d(1, 2, 3));  // growth keeps the records
}

TEST(ParticleBuffer, CopiesAreDeepAndMovesLeaveTheSourceEmpty) {
  ParticleBuffer a(Schema::position_only());
  for (std::size_t i = 0; i < 100; ++i) {  // several geometric growths
    a.append_uninitialized();
    a.set_position(i, Vec3d(static_cast<double>(i), 0, 0));
  }
  ParticleBuffer b = a;
  b.set_position(0, {-1, -1, -1});
  EXPECT_EQ(a.position(0), Vec3d(0, 0, 0));
  ASSERT_EQ(b.size(), 100u);
  EXPECT_EQ(b.position(99), Vec3d(99, 0, 0));

  ParticleBuffer small(Schema::position_only());
  small.append_uninitialized();
  small = a;  // assignment that must grow
  ASSERT_EQ(small.size(), 100u);
  EXPECT_EQ(0, std::memcmp(small.bytes().data(), a.bytes().data(),
                           a.byte_size()));
  ParticleBuffer one(Schema::position_only());
  one.append_uninitialized();
  one.set_position(0, {4, 5, 6});
  small = one;  // and one that reuses the storage it has
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small.position(0), Vec3d(4, 5, 6));

  ParticleBuffer c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.position(0), Vec3d(-1, -1, -1));
  b = std::move(c);
  EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.size(), 100u);
  b.append_bytes(a.bytes());  // a moved-to buffer grows as usual
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.position(150), Vec3d(50, 0, 0));
}

TEST(ParticleBuffer, BoundsOfEmptyIsEmpty) {
  EXPECT_TRUE(ParticleBuffer(Schema::uintah()).bounds().is_empty());
}

TEST(ParticleBuffer, BoundsCoverAllPositions) {
  ParticleBuffer buf(Schema::position_only());
  const Vec3d pts[] = {{0, 5, 2}, {3, 1, 9}, {-1, 2, 2}};
  for (std::size_t i = 0; i < 3; ++i) {
    buf.append_uninitialized();
    buf.set_position(i, pts[i]);
  }
  const Box3 b = buf.bounds();
  EXPECT_EQ(b.lo, Vec3d(-1, 1, 2));
  EXPECT_EQ(b.hi, Vec3d(3, 5, 9));
}

TEST(ParticleBuffer, ByteSizeTracksRecords) {
  ParticleBuffer buf(Schema::uintah());
  buf.append_uninitialized();
  buf.append_uninitialized();
  EXPECT_EQ(buf.byte_size(), 2 * 124u);
  EXPECT_EQ(buf.bytes().size(), 2 * 124u);
}

}  // namespace
}  // namespace spio
