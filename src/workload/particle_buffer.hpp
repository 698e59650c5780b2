#pragma once

/// \file particle_buffer.hpp
/// AoS particle container: a schema plus a flat byte buffer of records.
/// This is the unit of exchange throughout the library — patches hand one
/// to the writer, aggregators assemble one, readers return one.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>

#include "util/box.hpp"
#include "util/error.hpp"
#include "util/vec3.hpp"
#include "workload/schema.hpp"

namespace spio {

class ParticleBuffer {
 public:
  explicit ParticleBuffer(Schema schema);

  const Schema& schema() const { return schema_; }
  std::size_t size() const { return data_.size() / record_size_; }
  bool empty() const { return data_.size() == 0; }
  std::size_t record_size() const { return record_size_; }
  std::size_t byte_size() const { return data_.size(); }

  void reserve(std::size_t particles) {
    data_.reserve(particles * record_size_);
  }
  /// Return over-reserved capacity to the allocator.
  void shrink_to_fit() { data_.shrink_to_fit(); }
  /// Drop every record; the capacity stays.
  void clear() { data_.truncate(0); }

  /// Append `count` zero-initialized records and return a writable view
  /// of them — for callers that set some fields and rely on the rest
  /// reading zero.
  std::span<std::byte> append_uninitialized(std::size_t count = 1);

  /// Append `count` records whose bytes are indeterminate (whatever the
  /// storage held) and return a writable view of them. The caller must
  /// write every byte of the view before the buffer is read, copied or
  /// sent: this is how a result is grown when its bytes are about to be
  /// copied in anyway, so each byte is written once.
  std::span<std::byte> append_for_overwrite(std::size_t count) {
    const std::size_t n = count * record_size_;
    return {data_.grow(n), n};
  }

  /// Append a full record copied from raw bytes (size must equal
  /// record_size()).
  void append_record(std::span<const std::byte> record);

  /// Append record `i` of `other` (schemas must match).
  void append_from(const ParticleBuffer& other, std::size_t i);

  /// Append all records held in `bytes` (a multiple of record_size()).
  void append_bytes(std::span<const std::byte> bytes);

  /// Append `count` whole records starting at `p` — the fused read
  /// kernels' inner-loop appender. Unchecked (those kernels address by
  /// record index, so the payload is whole records by construction) and
  /// header-inline: a short matching run must cost one `memcpy`, not an
  /// out-of-line call plus a divisibility check.
  void append_records(const std::byte* p, std::size_t count) {
    copy_in(p, count * record_size_);
  }

  /// Read-only view of record `i`.
  std::span<const std::byte> record(std::size_t i) const;
  /// Writable view of record `i`.
  std::span<std::byte> record(std::size_t i);

  /// The whole AoS payload, for sends and file writes.
  std::span<const std::byte> bytes() const {
    return {data_.data(), data_.size()};
  }

  // ---- typed field access ----

  Vec3d position(std::size_t i) const;
  void set_position(std::size_t i, const Vec3d& p);

  /// Value of component `comp` of f64 field `field` in record `i`.
  double get_f64(std::size_t i, std::size_t field, std::size_t comp = 0) const;
  void set_f64(std::size_t i, std::size_t field, std::size_t comp, double v);
  float get_f32(std::size_t i, std::size_t field, std::size_t comp = 0) const;
  void set_f32(std::size_t i, std::size_t field, std::size_t comp, float v);

  /// Drop all records past the first `count` (no-op if already smaller).
  void truncate(std::size_t count);

  /// Tight bounding box of all particle positions; `Box3::empty()` if the
  /// buffer is empty.
  Box3 bounds() const;

 private:
  /// Owned bytes whose growth does not initialise. Growth, copies and
  /// appends are one `memcpy` each. A `std::vector` with a
  /// default-initialising allocator would not do: libstdc++ keeps its
  /// `memmove` paths for `std::allocator` and copies element by element
  /// for any allocator that defines `construct`.
  class Bytes {
   public:
    Bytes() = default;
    Bytes(const Bytes& other);
    Bytes& operator=(const Bytes& other);
    Bytes(Bytes&& other) noexcept;
    Bytes& operator=(Bytes&& other) noexcept;
    ~Bytes() = default;

    std::byte* data() { return p_.get(); }
    const std::byte* data() const { return p_.get(); }
    std::size_t size() const { return size_; }

    void reserve(std::size_t bytes) {
      if (bytes > cap_) reallocate(bytes);
    }
    void shrink_to_fit() {
      if (cap_ > size_) reallocate(size_);
    }
    /// Keep the first `bytes` (which must not exceed size()).
    void truncate(std::size_t bytes) { size_ = bytes; }
    /// Grow by `bytes` indeterminate bytes (geometrically, so appending
    /// one record at a time stays amortised O(1)); returns the first.
    std::byte* grow(std::size_t bytes) {
      if (bytes > cap_ - size_) reallocate(std::max(size_ + bytes, 2 * cap_));
      std::byte* at = p_.get() + size_;
      size_ += bytes;
      return at;
    }

   private:
    void reallocate(std::size_t capacity);

    std::unique_ptr<std::byte[]> p_;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
  };

  /// Append `n` bytes from `p`; `memcpy` forbids null pointers even for
  /// an empty copy, and an empty buffer has no storage.
  void copy_in(const std::byte* p, std::size_t n) {
    if (n != 0) std::memcpy(data_.grow(n), p, n);
  }

  const std::byte* field_ptr(std::size_t i, std::size_t field,
                             std::size_t comp, std::size_t elem_size) const;
  std::byte* field_ptr(std::size_t i, std::size_t field, std::size_t comp,
                       std::size_t elem_size);

  Schema schema_;
  std::size_t record_size_;
  Bytes data_;
};

}  // namespace spio
