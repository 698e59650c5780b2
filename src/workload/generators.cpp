#include "workload/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace spio::workload {

namespace {

/// Clamp a coordinate strictly inside [lo, hi) so half-open partition
/// membership is unambiguous.
double clamp_open(double v, double lo, double hi) {
  const double eps = (hi - lo) * 1e-12;
  return std::clamp(v, lo, hi - eps);
}

Vec3d clamp_into(const Box3& box, Vec3d p) {
  for (int a = 0; a < 3; ++a) p[a] = clamp_open(p[a], box.lo[a], box.hi[a]);
  return p;
}

/// How one attribute field is filled, decided once per buffer from the
/// field's name and type so the per-particle loop does no string compares.
enum class Role : std::uint8_t {
  kStress,    // symmetric-ish tensor with dominant diagonal, like MPM stress
  kDensity,
  kVolume,
  kId,        // the particle's global id
  kType,      // f32 material type in [0, 4)
  kNoiseF64,  // unknown attribute: uniform noise of the right type
  kNoiseF32,
};

/// Fills the non-position attributes of records with plausible,
/// deterministic physics-like values (stress, density, volume, global id,
/// material type). Fields are filled in schema order with the same draws
/// per field, so the bytes depend only on the schema and the seed. Every
/// component of every field is written (schema offsets have no padding),
/// which is what lets `append_particle` skip zero-filling the record.
class AttributeFiller {
 public:
  explicit AttributeFiller(const Schema& s) {
    for (std::size_t f = 1; f < s.field_count(); ++f) {
      const FieldDesc& fd = s.fields()[f];
      const bool f64 = fd.type == FieldType::kF64;
      Role role = f64 ? Role::kNoiseF64 : Role::kNoiseF32;
      // The single-value roles write one component; a multi-component
      // field of the same name gets noise in every component instead.
      const bool scalar = fd.components == 1;
      if (fd.name == "stress") role = Role::kStress;
      if (fd.name == "density" && scalar) role = Role::kDensity;
      if (fd.name == "volume" && scalar) role = Role::kVolume;
      if (fd.name == "id" && scalar) role = Role::kId;
      if (fd.name == "type" && !f64 && scalar) role = Role::kType;
      // The named f64 roles only make sense on f64 fields.
      SPIO_EXPECTS(f64 || role == Role::kType || role == Role::kNoiseF32);
      fields_.push_back({role, s.offset(f), fd.components});
    }
  }

  void fill(std::byte* rec, std::uint64_t id, Xoshiro256& rng) const {
    for (const Field& fd : fields_) {
      std::byte* at = rec + fd.offset;
      switch (fd.role) {
        case Role::kStress:
          for (std::uint32_t c = 0; c < fd.components; ++c) {
            const bool diag = fd.components == 9 && c % 4 == 0;
            put<double>(at, c, (diag ? 1.0e5 : 1.0e3) * rng.normal());
          }
          break;
        case Role::kDensity:
          put<double>(at, 0, 1000.0 + 50.0 * rng.normal());
          break;
        case Role::kVolume:
          put<double>(at, 0, 1e-9 * (1.0 + 0.1 * rng.uniform()));
          break;
        case Role::kId:
          put<double>(at, 0, static_cast<double>(id));
          break;
        case Role::kType:
          put<float>(at, 0, static_cast<float>(rng.uniform_index(4)));
          break;
        case Role::kNoiseF64:
          for (std::uint32_t c = 0; c < fd.components; ++c)
            put<double>(at, c, rng.uniform());
          break;
        case Role::kNoiseF32:
          for (std::uint32_t c = 0; c < fd.components; ++c)
            put<float>(at, c, static_cast<float>(rng.uniform()));
          break;
      }
    }
  }

 private:
  struct Field {
    Role role;
    std::size_t offset;
    std::uint32_t components;
  };

  template <typename T>
  static void put(std::byte* field, std::uint32_t comp, T v) {
    std::memcpy(field + comp * sizeof(T), &v, sizeof(T));
  }

  std::vector<Field> fields_;
};

void append_particle(ParticleBuffer& buf, const AttributeFiller& filler,
                     const Vec3d& pos, std::uint64_t id, Xoshiro256& rng) {
  std::byte* rec = buf.append_for_overwrite(1).data();
  std::memcpy(rec, &pos, sizeof(Vec3d));  // position is field 0
  filler.fill(rec, id, rng);
}

}  // namespace

ParticleBuffer uniform(const Schema& schema, const Box3& patch,
                       std::uint64_t count, std::uint64_t seed,
                       std::uint64_t first_id) {
  SPIO_EXPECTS(!patch.is_empty());
  ParticleBuffer buf(schema);
  buf.reserve(count);
  const AttributeFiller filler(schema);
  Xoshiro256 rng(seed);
  for (std::uint64_t k = 0; k < count; ++k) {
    Vec3d p;
    for (int a = 0; a < 3; ++a)
      p[a] = clamp_open(rng.uniform(patch.lo[a], patch.hi[a]), patch.lo[a],
                        patch.hi[a]);
    append_particle(buf, filler, p, first_id + k, rng);
  }
  return buf;
}

ParticleBuffer gaussian_clusters(const Schema& schema, const Box3& patch,
                                 std::uint64_t count, int clusters,
                                 double sigma_frac, std::uint64_t seed,
                                 std::uint64_t first_id) {
  SPIO_EXPECTS(!patch.is_empty());
  SPIO_EXPECTS(clusters > 0);
  SPIO_EXPECTS(sigma_frac > 0.0);
  ParticleBuffer buf(schema);
  buf.reserve(count);
  const AttributeFiller filler(schema);
  Xoshiro256 rng(seed);

  std::vector<Vec3d> centers;
  centers.reserve(static_cast<std::size_t>(clusters));
  for (int c = 0; c < clusters; ++c) {
    Vec3d ctr;
    for (int a = 0; a < 3; ++a) ctr[a] = rng.uniform(patch.lo[a], patch.hi[a]);
    centers.push_back(ctr);
  }
  const Vec3d sigma = patch.size() * sigma_frac;
  for (std::uint64_t k = 0; k < count; ++k) {
    const Vec3d& ctr =
        centers[static_cast<std::size_t>(rng.uniform_index(centers.size()))];
    Vec3d p;
    for (int a = 0; a < 3; ++a) p[a] = ctr[a] + sigma[a] * rng.normal();
    append_particle(buf, filler, clamp_into(patch, p), first_id + k, rng);
  }
  return buf;
}

Box3 coverage_region(const Box3& domain, double coverage) {
  SPIO_EXPECTS(coverage > 0.0 && coverage <= 1.0);
  Box3 region = domain;
  region.hi.x = domain.lo.x + domain.size().x * coverage;
  return region;
}

ParticleBuffer uniform_in_region(const Schema& schema, const Box3& patch,
                                 const Box3& region, std::uint64_t count,
                                 std::uint64_t seed, std::uint64_t first_id) {
  const Box3 live = Box3::intersection(patch, region);
  if (live.is_empty() || count == 0) return ParticleBuffer(schema);
  return uniform(schema, live, count, seed, first_id);
}

ParticleBuffer plummer_sphere(const Schema& schema, const Box3& patch,
                              std::uint64_t count, double scale_frac,
                              std::uint64_t seed, std::uint64_t first_id) {
  SPIO_EXPECTS(!patch.is_empty());
  SPIO_EXPECTS(scale_frac > 0.0);
  ParticleBuffer buf(schema);
  buf.reserve(count);
  const AttributeFiller filler(schema);
  Xoshiro256 rng(seed);
  const Vec3d center = patch.center();
  const double a = scale_frac * patch.size().min_component();
  for (std::uint64_t k = 0; k < count; ++k) {
    // Inverse-CDF sampling of the Plummer radial profile:
    // r = a / sqrt(u^(-2/3) - 1) for u uniform in (0, 1).
    double u = rng.uniform();
    if (u <= 0.0) u = 0x1.0p-53;
    const double r = a / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    // Uniform direction on the sphere.
    const double cos_t = rng.uniform(-1.0, 1.0);
    const double sin_t = std::sqrt(std::max(0.0, 1.0 - cos_t * cos_t));
    const double phi = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    const Vec3d p{center.x + r * sin_t * std::cos(phi),
                  center.y + r * sin_t * std::sin(phi),
                  center.z + r * cos_t};
    append_particle(buf, filler, clamp_into(patch, p), first_id + k, rng);
  }
  return buf;
}

ParticleBuffer injection(const Schema& schema, const Box3& patch,
                         const Box3& domain, double t01, std::uint64_t count,
                         std::uint64_t seed, std::uint64_t first_id) {
  SPIO_EXPECTS(t01 >= 0.0 && t01 <= 1.0);
  if (t01 <= 0.0) return ParticleBuffer(schema);
  const Box3 front = coverage_region(domain, t01);
  const Box3 live = Box3::intersection(patch, front);
  if (live.is_empty()) return ParticleBuffer(schema);

  ParticleBuffer buf(schema);
  buf.reserve(count);
  const AttributeFiller filler(schema);
  Xoshiro256 rng(seed);
  const double x0 = domain.lo.x;
  const double front_x = front.hi.x;
  std::uint64_t id = first_id;
  for (std::uint64_t k = 0; k < count; ++k) {
    Vec3d p;
    for (int a = 0; a < 3; ++a)
      p[a] = clamp_open(rng.uniform(live.lo[a], live.hi[a]), live.lo[a],
                        live.hi[a]);
    // Density decays linearly toward the jet front: keep a particle with
    // probability (1 - progress/2), so the inlet is denser than the front.
    const double progress = (p.x - x0) / std::max(front_x - x0, 1e-300);
    if (rng.uniform() < 1.0 - 0.5 * progress) {
      append_particle(buf, filler, p, id++, rng);
    }
  }
  return buf;
}

}  // namespace spio::workload
