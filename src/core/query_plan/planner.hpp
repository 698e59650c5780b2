#pragma once

/// \file planner.hpp
/// The hierarchical query planner: given a dataset's metadata, a k-d tree
/// over its partition boxes (kd_tree.hpp) and its zone-map sidecar
/// (zone_map.hpp), produce the minimal per-file fetch plan for a spatial
/// + attribute query. Three pruning levels, each provably lossless:
///
///   1. k-d descent   — candidate files in O(log F + hits);
///   2. file ranges   — drop candidates whose recorded field min/max
///                      misses a filter (the pre-existing §3.5 pruning);
///   3. zone maps     — drop candidates none of whose LOD zones can match
///                      (whole-file skip), and clamp each survivor's
///                      fetch to its last possibly-matching zone
///                      (LOD tail skip).
///
/// Zone interval tests are *closed* on both the query box and the filter
/// intervals, which makes them conservative with respect to every filter
/// kernel — including the whole-file `contains_box` fast path, which
/// appends records sitting exactly on a box's upper faces.
///
/// `plan_reference` is the retained linear-scan planner: the exact
/// pre-k-d, pre-zone behaviour, used as the differential oracle by
/// `tests/core/query_plan_test.cpp`. `plan` itself degrades when a piece
/// is unavailable: no tree falls back to the linear bbox scan, and a
/// missing or corrupt `zones.spio` to zone-free planning.

#include <memory>
#include <span>
#include <vector>

#include "core/metadata.hpp"
#include "core/query_plan/kd_tree.hpp"
#include "core/query_plan/zone_map.hpp"
#include "core/read_engine.hpp"

namespace spio {

/// Particles in the first `levels` LOD levels of file `file_index` for
/// `n_readers` readers (`levels < 0`: the whole file) — the file's
/// proportional share of the global level-size law (§3.4), rounded up.
std::uint64_t file_prefix_count(const DatasetMetadata& meta, int file_index,
                                int levels, int n_readers);

/// One file's slice of a query plan. `prefix_records` is the plain LOD
/// prefix; `fetch_records <= prefix_records` after zone tail-skipping.
struct FilePlan {
  int file = 0;
  std::uint64_t fetch_records = 0;
  std::uint64_t prefix_records = 0;

  bool operator==(const FilePlan&) const = default;
};

/// A planned query: which files to touch and how many records of each.
struct QueryPlan {
  std::vector<FilePlan> files;
  /// Candidates the box search produced (before range/zone pruning).
  int files_considered = 0;
  /// Candidates dropped without being opened (range- or zone-pruned).
  int files_skipped = 0;
  /// Bytes the zone tail-skips shaved off surviving files' prefixes.
  std::uint64_t lod_bytes_skipped = 0;
  /// True when zone maps pruned or clamped anything.
  bool zone_pruned = false;
};

/// Immutable planning state of one open dataset. Methods take the
/// metadata per call, so a copied `Dataset` never dangles; the tree and
/// zone table are shared with it.
class QueryPlanner {
 public:
  QueryPlanner(std::shared_ptr<const BoxKdTree> tree,
               std::shared_ptr<const ZoneMapTable> zones)
      : tree_(std::move(tree)), zones_(std::move(zones)) {}

  const std::shared_ptr<const BoxKdTree>& tree() const { return tree_; }
  const ZoneMapTable* zones() const { return zones_.get(); }

  /// Full pruned plan. Requires bounds; a box disjoint from the domain
  /// yields an empty plan with `files_considered == 0` — zero metadata
  /// work, zero opens.
  QueryPlan plan(const DatasetMetadata& meta, const Box3& box,
                 std::span<const RangeFilter> filters, int levels,
                 int n_readers) const;

  /// The linear-scan oracle: bbox scan + file-range pruning, full LOD
  /// prefixes, no zones. Byte-identical query results to `plan` by the
  /// planner property suite.
  QueryPlan plan_reference(const DatasetMetadata& meta, const Box3& box,
                           std::span<const RangeFilter> filters, int levels,
                           int n_readers) const;

 private:
  std::shared_ptr<const BoxKdTree> tree_;
  std::shared_ptr<const ZoneMapTable> zones_;
};

}  // namespace spio
