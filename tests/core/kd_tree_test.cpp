#include "core/query_plan/kd_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/aggregation_grid.hpp"
#include "core/query_plan/planner.hpp"
#include "util/rng.hpp"

namespace spio {
namespace {

/// Synthetic metadata: F disjoint files tiling the unit cube via an
/// aggregation grid.
DatasetMetadata tiled_metadata(const Vec3i& dims) {
  DatasetMetadata m;
  m.schema = Schema::position_only();
  m.domain = Box3::unit();
  m.has_field_ranges = false;
  const AggregationGrid grid(Box3::unit(), dims);
  for (int p = 0; p < grid.partition_count(); ++p) {
    FileRecord f;
    f.partition_id = static_cast<std::uint32_t>(p);
    f.aggregator_rank = static_cast<std::uint32_t>(p);
    f.particle_count = 1;
    f.bounds = grid.partition_box(p);
    m.files.push_back(f);
  }
  m.total_particles = static_cast<std::uint64_t>(grid.partition_count());
  return m;
}

BoxKdTree tree_of(const DatasetMetadata& m) {
  std::vector<Box3> boxes;
  for (const FileRecord& f : m.files) boxes.push_back(f.bounds);
  return BoxKdTree::build(boxes);
}

TEST(BoxKdTree, MatchesLinearScanOnTiledFiles) {
  const DatasetMetadata m = tiled_metadata({8, 8, 8});  // 512 files
  const BoxKdTree tree = tree_of(m);
  Xoshiro256 rng(17);
  for (int q = 0; q < 100; ++q) {
    Box3 box;
    for (int a = 0; a < 3; ++a) {
      const double lo = rng.uniform();
      const double hi = rng.uniform();
      box.lo[a] = std::min(lo, hi);
      box.hi[a] = std::max(lo, hi);
    }
    if (box.is_empty()) continue;
    EXPECT_EQ(tree.query(box), m.files_intersecting(box)) << "query " << q;
  }
}

TEST(BoxKdTree, PointQueriesTouchOneTile) {
  const DatasetMetadata m = tiled_metadata({4, 4, 4});
  const BoxKdTree tree = tree_of(m);
  const Box3 tiny({0.3, 0.3, 0.3}, {0.301, 0.301, 0.301});
  const auto hits = tree.query(tiny);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(
      m.files[static_cast<std::size_t>(hits[0])].bounds.overlaps(tiny));
}

TEST(BoxKdTree, WholeDomainReturnsEverything) {
  const DatasetMetadata m = tiled_metadata({3, 3, 2});
  EXPECT_EQ(tree_of(m).query(Box3::unit()).size(), m.files.size());
}

TEST(BoxKdTree, DisjointQueryReturnsNothing) {
  const DatasetMetadata m = tiled_metadata({2, 2, 2});
  EXPECT_TRUE(tree_of(m).query(Box3({5, 5, 5}, {6, 6, 6})).empty());
}

TEST(BoxKdTree, HandlesFilesOutsideTheNominalDomain) {
  DatasetMetadata m = tiled_metadata({2, 1, 1});
  // A file box sticking out of the domain (adaptive pad case).
  FileRecord f;
  f.partition_id = 2;
  f.aggregator_rank = 9;
  f.particle_count = 1;
  f.bounds = Box3({0.9, 0.9, 0.9}, {1.5, 1.5, 1.5});
  m.files.push_back(f);
  m.total_particles += 1;
  const auto hits = tree_of(m).query(Box3({1.1, 1.1, 1.1}, {1.2, 1.2, 1.2}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 2);
}

TEST(BoxKdTree, SingleFileDataset) {
  const DatasetMetadata m = tiled_metadata({1, 1, 1});
  EXPECT_EQ(tree_of(m).query(Box3({0.4, 0.4, 0.4}, {0.6, 0.6, 0.6})),
            std::vector<int>{0});
}

TEST(QueryPlanner, RequiresBounds) {
  DatasetMetadata m = tiled_metadata({2, 2, 1});
  m.has_bounds = false;
  const QueryPlanner planner(nullptr, nullptr);
  EXPECT_THROW(planner.plan(m, Box3::unit(), {}, -1, 1), ConfigError);
  EXPECT_THROW(planner.plan_reference(m, Box3::unit(), {}, -1, 1),
               ConfigError);
}

}  // namespace
}  // namespace spio
