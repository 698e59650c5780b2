#pragma once

/// \file generators.hpp
/// Synthetic particle workload generators reproducing the distributions
/// the paper evaluates on: the uniform Uintah-style checkpoint workload
/// (§5.1), the shrinking-coverage non-uniform distributions (§6, Fig. 10d),
/// gaussian cluster distributions (Fig. 10a-c), and an injection-over-time
/// workload (coal-jet style, Fig. 9).
///
/// All generators are deterministic: identical (patch, count, seed) inputs
/// produce identical particles. Each fills the non-position attributes
/// with plausible physics-like values (stress, density, volume, global
/// id, material type); fields it does not know get uniform noise.

#include <cstdint>

#include "util/box.hpp"
#include "util/rng.hpp"
#include "workload/particle_buffer.hpp"
#include "workload/schema.hpp"

namespace spio::workload {

/// `count` particles uniformly distributed in `patch`.
ParticleBuffer uniform(const Schema& schema, const Box3& patch,
                       std::uint64_t count, std::uint64_t seed,
                       std::uint64_t first_id = 0);

/// `count` particles drawn from `clusters` isotropic gaussian blobs whose
/// centers are uniform in `patch`; `sigma_frac` scales the blob width
/// relative to the patch. Positions are clamped into the patch so every
/// particle stays within its owner's extent.
ParticleBuffer gaussian_clusters(const Schema& schema, const Box3& patch,
                                 std::uint64_t count, int clusters,
                                 double sigma_frac, std::uint64_t seed,
                                 std::uint64_t first_id = 0);

/// The occupied sub-region used by the §6.1 experiment: the fraction
/// `coverage` (0, 1] of `domain` along the x axis (anchored at domain.lo),
/// matching "particles distributed over progressively smaller portions of
/// the domain".
Box3 coverage_region(const Box3& domain, double coverage);

/// `count` particles uniform in `patch ∩ region`; returns an empty buffer
/// when the intersection is empty. Used to build non-uniform global
/// distributions where some ranks hold no particles at all (Fig. 10d).
ParticleBuffer uniform_in_region(const Schema& schema, const Box3& patch,
                                 const Box3& region, std::uint64_t count,
                                 std::uint64_t seed,
                                 std::uint64_t first_id = 0);

/// Cosmology-style radial distribution: `count` particles drawn from a
/// Plummer sphere (density ~ (1 + r²/a²)^(-5/2)) centered in `patch`,
/// with scale radius `a = scale_frac * min patch extent`, clamped into
/// the patch. The centrally-concentrated profile is the classic N-body
/// halo model — the paper's cosmology use case (HACC, Dark Sky).
ParticleBuffer plummer_sphere(const Schema& schema, const Box3& patch,
                              std::uint64_t count, double scale_frac,
                              std::uint64_t seed,
                              std::uint64_t first_id = 0);

/// Injection workload: particles enter at the x-low face of `domain` and
/// drift toward x-high; at normalized time `t01` in [0, 1] the occupied
/// region is the first `t01` fraction of the domain with density decaying
/// along the jet. `count` is the number of particles in `patch` at `t01`
/// before density decay (the returned buffer may be smaller).
ParticleBuffer injection(const Schema& schema, const Box3& patch,
                         const Box3& domain, double t01, std::uint64_t count,
                         std::uint64_t seed, std::uint64_t first_id = 0);

}  // namespace spio::workload
