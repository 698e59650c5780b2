#pragma once

/// \file zone_map.hpp
/// Per-file, per-LOD-level field statistics ("zone maps"): the min/max of
/// every field component over each LOD level of a data file, folded by
/// the aggregators from each chunk as the file streams out and persisted
/// as the `zones.spio` sidecar (docs/FORMAT.md). The planner uses them to skip
/// whole files, and LOD tails within files, that provably contain no
/// records matching a range filter or query box.
///
/// Zone z of an N-record file covers records
///   [zone_begin(lod, z, N), zone_begin(lod, z + 1, N))
/// — the single-reader LOD prefix law applied file-locally, which every
/// reader can recompute from the metadata alone. `zone_file_count` is
/// `lod_level_count(lod, 1, N)`.
///
/// A zone component that contains any NaN is stored as [-inf, +inf] so it
/// conservatively matches every interval; pruning therefore never drops a
/// record a filter kernel would pass.

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "core/metadata.hpp"

namespace spio {

/// Number of zones of an `n`-record file (non-empty LOD levels for one
/// reader). 0 when n == 0.
std::uint32_t zone_file_count(const LodParams& lod, std::uint64_t n);

/// First record of zone `z` of an `n`-record file; `zone_begin(lod,
/// zone_file_count(lod, n), n) == n`.
std::uint64_t zone_begin(const LodParams& lod, std::uint32_t z,
                         std::uint64_t n);

/// One file's zone table: `zones[z * range_count + c]` is the closed
/// min/max of component `c` over zone `z` (zone-major).
struct FileZones {
  std::uint32_t aggregator_rank = 0;
  std::uint64_t particle_count = 0;
  std::vector<FieldRange> zones;

  bool operator==(const FileZones&) const = default;
};

/// The `zones.spio` sidecar: zone tables for every data file of one
/// dataset, sorted by aggregator rank. The byte stream carries a CRC-64
/// trailer; `load` refuses torn or corrupted sidecars with `FormatError`
/// so the planner can fall back to zone-free planning.
struct ZoneMapTable {
  static constexpr std::uint32_t kMagic = 0x4D5A5053;  // "SPZM"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr const char* kFileName = "zones.spio";

  std::size_t range_count = 0;
  LodParams lod;
  std::vector<FileZones> files;  // sorted by aggregator_rank

  bool operator==(const ZoneMapTable&) const = default;

  /// Zone table for the file written by `aggregator_rank`, or nullptr.
  const FileZones* find(std::uint32_t aggregator_rank) const;

  std::vector<std::byte> serialize() const;
  static ZoneMapTable deserialize(std::span<const std::byte> bytes);

  void save(const std::filesystem::path& dir) const;
  static ZoneMapTable load(const std::filesystem::path& dir);
  static bool present(const std::filesystem::path& dir);
};

/// Builds one file's zone table from its records streamed in file order,
/// in chunks of any size: any split gives the table one pass over the
/// whole file would. Runs of four consecutive f64 components fold with
/// the AVX2 min/max kernel (simd::minmax_f64x4); the other components,
/// and all of them below AVX2, take a scalar record-major loop. Both
/// paths compute exactly `std::min(cur, v)`/`std::max(cur, v)` per
/// component and poison a zone that saw a NaN to [-inf, +inf].
class ZoneAccumulator {
 public:
  /// For a file of `n` records of schema `s`.
  ZoneAccumulator(const Schema& s, const LodParams& lod, std::uint64_t n);

  /// Fold the file's next whole records.
  void add(std::span<const std::byte> records);

  /// The zone-major table; call once, after all `n` records were added.
  std::vector<FieldRange> take();

 private:
  struct Comp {
    std::size_t index;   // component number, the table column
    std::size_t offset;  // byte offset in the record
    bool f64;
  };

  /// Fold `count` records, all of one zone, into its row `zr`.
  void fold(const std::byte* base, std::size_t count, FieldRange* zr) const;

  LodParams lod_;
  std::uint64_t n_;
  std::size_t record_size_;
  std::uint64_t block_;
  std::vector<Comp> comps_;    // every component, in schema order
  std::vector<Comp> quads_;    // first component of each f64 run of four
  std::vector<Comp> scalars_;  // the components no run covers
  std::vector<FieldRange> zones_;
  std::uint32_t zone_ = 0;
  std::uint64_t next_ = 0;  // first record of zone_ + 1
  std::uint64_t seen_ = 0;
};

/// The whole-buffer call of ZoneAccumulator over a LOD-ordered buffer:
/// the zone-major min/max table of every field component. Empty buffer
/// -> empty table.
std::vector<FieldRange> compute_zone_maps(const ParticleBuffer& buf,
                                          const LodParams& lod);

/// Union of all zones per component — the file-level field ranges. NaN-
/// aware: poisoned zones widen the union to [-inf, +inf] instead of
/// dropping the values.
std::vector<FieldRange> zone_union(const std::vector<FieldRange>& zones,
                                   std::size_t range_count);

/// True when the sidecar structurally matches the dataset metadata: same
/// range count and LOD parameters, and a zone table with the right
/// particle count for every file. A false return means the sidecar
/// belongs to a different (e.g. partially rewritten) dataset and must not
/// be used for pruning.
bool zones_consistent(const ZoneMapTable& table, const DatasetMetadata& meta);

}  // namespace spio
