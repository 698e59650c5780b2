#pragma once

/// \file kernels_x86_body.hpp
/// Internal: the shared kernel bodies, templated over a per-ISA Traits
/// type. Each ISA TU (kernels_sse2.cpp, kernels_avx2.cpp) defines a
/// Traits with `kLanes`, a vector register type `Reg`, and the small
/// set of ops the bodies need, then instantiates these templates. The
/// header itself contains no intrinsics, so it compiles at any ISA.
///
/// A Traits must provide:
///   static constexpr std::size_t kLanes;       // f64 lanes per Reg
///   using Reg = ...;
///   static Reg load(const double*);            // unaligned
///   static Reg set1(double);
///   static Reg cmp_ge(Reg, Reg);               // ordered: NaN -> false
///   static Reg cmp_lt(Reg, Reg);               // ordered: NaN -> false
///   static Reg and_(Reg, Reg);
///   static unsigned movemask(Reg);             // sign bit per lane
///   static Reg add(Reg, Reg);
///   static Reg sub(Reg, Reg);
///   static Reg div(Reg, Reg);                  // true IEEE divide
///   static Reg mul(Reg, Reg);
///   static Reg floor_(Reg);
///   static Reg max_(Reg a, Reg b);             // NaN in a -> b (MAXPD)
///   static Reg min_(Reg a, Reg b);             // NaN in a -> b (MINPD)
///   static void to_int32(Reg, std::int32_t*);  // truncating, pre-clamped
///
/// Byte-identity with the fused scalar kernels rests on two facts used
/// throughout: every compare is ordered (NaN fails, matching scalar
/// `>=`/`<`), and the arithmetic sequences are the scalar ones
/// operation for operation (sub, divide — never a reciprocal multiply —
/// mul, floor, clamp), so IEEE determinism makes each lane bit-equal to
/// the scalar loop. The select bodies fold the masks into the same
/// maximal runs the scalar kernels close, so `copy_runs` then copies the
/// very same records from the very same AoS bytes.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "simd/kernels.hpp"
#include "simd/position_mirror.hpp"
#include "util/box.hpp"
#include "workload/decomposition.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::simd::detail {

/// Folds a stream of per-record keep/drop decisions (indices strictly
/// increasing) into the maximal runs of a `Selection`, *without touching
/// the AoS bytes*: the scan over the mirror is cheap, and the copy runs
/// later — possibly on another thread — from the finished selection.
class RunCollector {
 public:
  explicit RunCollector(Selection& sel) : sel_(sel) {
    sel_.runs.clear();
    sel_.count = 0;
  }
  void keep(std::size_t i) {
    if (run_ == kNone) run_ = i;
  }
  void drop(std::size_t i) {
    if (run_ != kNone) close(i);
  }
  void finish(std::size_t n) {
    if (run_ != kNone) close(n);
  }

 private:
  void close(std::size_t end) {
    sel_.runs.push_back({run_, end - run_});
    sel_.count += end - run_;
    run_ = kNone;
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  Selection& sel_;
  std::size_t run_ = kNone;
};

/// Box-mask state shared by the two select kernels: six broadcast
/// planes, one fused in-box mask per vector of mirrored positions.
template <class T>
struct BoxMask {
  explicit BoxMask(const Box3& box)
      : lox(T::set1(box.lo.x)), hix(T::set1(box.hi.x)),
        loy(T::set1(box.lo.y)), hiy(T::set1(box.hi.y)),
        loz(T::set1(box.lo.z)), hiz(T::set1(box.hi.z)) {}

  unsigned bits(const double* xs, const double* ys, const double* zs,
                std::size_t i) const {
    const typename T::Reg x = T::load(xs + i);
    const typename T::Reg y = T::load(ys + i);
    const typename T::Reg z = T::load(zs + i);
    const typename T::Reg in = T::and_(
        T::and_(T::and_(T::cmp_ge(x, lox), T::cmp_lt(x, hix)),
                T::and_(T::cmp_ge(y, loy), T::cmp_lt(y, hiy))),
        T::and_(T::cmp_ge(z, loz), T::cmp_lt(z, hiz)));
    return T::movemask(in);
  }

  typename T::Reg lox, hix, loy, hiy, loz, hiz;
};

template <class T>
void select_box_body(const PositionMirror& mirror, const Box3& box,
                     Selection& sel) {
  constexpr std::size_t W = T::kLanes;
  constexpr unsigned kFull = (1u << W) - 1;
  const std::size_t n = mirror.size();
  const double* xs = mirror.x();
  const double* ys = mirror.y();
  const double* zs = mirror.z();
  const BoxMask<T> mask(box);
  RunCollector runs(sel);

  // The mirror's tail is NaN-padded to a lane multiple and NaN fails
  // every ordered compare, so the vector loop covers the ragged tail:
  // padding lanes read as drops, which also closes a run ending at n.
  const std::size_t padded = (n + W - 1) / W * W;
  for (std::size_t i = 0; i < padded; i += W) {
    const unsigned bits = mask.bits(xs, ys, zs, i);
    if (bits == kFull) {
      runs.keep(i);
    } else if (bits == 0) {
      runs.drop(i);
    } else {
      for (std::size_t b = 0; b < W; ++b) {
        if (bits & (1u << b)) {
          runs.keep(i + b);
        } else {
          runs.drop(i + b);
        }
      }
    }
  }
  runs.finish(n);
}

template <class T>
void select_box_ranges_body(const PositionMirror& mirror,
                            const std::byte* base, std::size_t record_size,
                            const Box3& box, std::span<const RangePred> preds,
                            Selection& sel) {
  constexpr std::size_t W = T::kLanes;
  const std::size_t n = mirror.size();
  const double* xs = mirror.x();
  const double* ys = mirror.y();
  const double* zs = mirror.z();
  const BoxMask<T> mask(box);
  RunCollector runs(sel);

  // Box predicate at full vector width over the mirror; only the lanes
  // it passes pay the scalar range loads from the AoS record. Padding
  // lanes are NaN, fail the box mask, and so never touch the buffer.
  const std::size_t padded = (n + W - 1) / W * W;
  for (std::size_t i = 0; i < padded; i += W) {
    const unsigned bits = mask.bits(xs, ys, zs, i);
    if (bits == 0) {
      runs.drop(i);
      continue;
    }
    for (std::size_t b = 0; b < W; ++b) {
      const std::size_t idx = i + b;
      if ((bits & (1u << b)) &&
          record_passes_ranges(base + idx * record_size, preds)) {
        runs.keep(idx);
      } else {
        runs.drop(idx);
      }
    }
  }
  runs.finish(n);
}

template <class T>
void bin_by_owner_body(const PositionMirror& mirror, const std::byte* base,
                       std::size_t record_size,
                       const PatchDecomposition& decomp,
                       std::vector<ParticleBuffer>& outgoing) {
  constexpr std::size_t W = T::kLanes;
  // Owners for one chunk of records, computed vector-wide, then folded
  // into runs scalar-side. A multiple of the widest lane count so every
  // vector store stays inside the chunk buffer.
  constexpr std::size_t kChunk = 1024;
  static_assert(kChunk % 8 == 0);

  const std::size_t n = mirror.size();
  const double* xs = mirror.x();
  const double* ys = mirror.y();
  const double* zs = mirror.z();

  // Exactly cell_of + rank_of, vectorized. rel = (p - lo) / size, then
  // floor(rel * grid), clamped into [0, grid-1] in the double domain
  // (max_ with the NaN operand first maps NaN to 0, the same value the
  // scalar std::max(0.0, t) produces). The rank combine
  // cx + gx*(cy + gy*cz) runs in doubles: every operand is an integer
  // below 2^31 and every intermediate below rank_count() <= INT_MAX, so
  // the arithmetic is exact and one truncating convert yields the rank.
  const Box3& dom = decomp.domain();
  const Vec3d dsize = dom.size();
  const Vec3i& grid = decomp.grid();
  const typename T::Reg lo_x = T::set1(dom.lo.x), lo_y = T::set1(dom.lo.y),
                        lo_z = T::set1(dom.lo.z);
  const typename T::Reg sz_x = T::set1(dsize.x), sz_y = T::set1(dsize.y),
                        sz_z = T::set1(dsize.z);
  const typename T::Reg g_x = T::set1(static_cast<double>(grid.x)),
                        g_y = T::set1(static_cast<double>(grid.y)),
                        g_z = T::set1(static_cast<double>(grid.z));
  const typename T::Reg gm1_x = T::set1(static_cast<double>(grid.x - 1)),
                        gm1_y = T::set1(static_cast<double>(grid.y - 1)),
                        gm1_z = T::set1(static_cast<double>(grid.z - 1));
  const typename T::Reg zero = T::set1(0.0);

  const auto axis_cell = [&](const double* lanes, std::size_t i,
                             typename T::Reg lo, typename T::Reg sz,
                             typename T::Reg g, typename T::Reg gm1) {
    typename T::Reg t = T::div(T::sub(T::load(lanes + i), lo), sz);
    t = T::floor_(T::mul(t, g));
    return T::min_(T::max_(t, zero), gm1);
  };

  struct OwnerRun {
    std::size_t start;
    std::size_t len;
    int owner;
  };
  std::vector<OwnerRun> runs;
  std::vector<std::size_t> totals(outgoing.size(), 0);
  int cur_owner = -1;
  std::size_t run_start = 0;
  const auto close_run = [&](std::size_t end) {
    if (cur_owner >= 0 && end > run_start) {
      runs.push_back({run_start, end - run_start, cur_owner});
      totals[static_cast<std::size_t>(cur_owner)] += end - run_start;
    }
  };

  std::int32_t owners[kChunk];
  for (std::size_t chunk = 0; chunk < n; chunk += kChunk) {
    const std::size_t cn = std::min(kChunk, n - chunk);
    // Vector loop may overrun cn up to the next lane multiple — those
    // lanes read NaN padding (owner 0 after the clamp) and are never
    // consumed by the fold below.
    for (std::size_t j = 0; j < cn; j += W) {
      const typename T::Reg cx =
          axis_cell(xs, chunk + j, lo_x, sz_x, g_x, gm1_x);
      const typename T::Reg cy =
          axis_cell(ys, chunk + j, lo_y, sz_y, g_y, gm1_y);
      const typename T::Reg cz =
          axis_cell(zs, chunk + j, lo_z, sz_z, g_z, gm1_z);
      const typename T::Reg owner =
          T::add(cx, T::mul(g_x, T::add(cy, T::mul(g_y, cz))));
      T::to_int32(owner, owners + j);
    }
    for (std::size_t j = 0; j < cn; ++j) {
      const int owner = owners[j];
      if (owner != cur_owner) {
        close_run(chunk + j);
        cur_owner = owner;
        run_start = chunk + j;
      }
    }
  }
  close_run(n);

  // Two-pass append, identical to the fused scalar kernel: exact
  // reserves, then one memcpy per run.
  for (std::size_t o = 0; o < outgoing.size(); ++o)
    if (totals[o] > 0) outgoing[o].reserve(outgoing[o].size() + totals[o]);
  for (const OwnerRun& r : runs)
    outgoing[static_cast<std::size_t>(r.owner)].append_records(
        base + r.start * record_size, r.len);
}

}  // namespace spio::simd::detail
