// Versioned binary encoding of DpcSolution — the unit the solution log
// stores.
//
// Layout (little-endian, raw doubles, same idiom as data/io.h SaveBinary):
//
//   magic[4] = "DPSN"     | format version u32 (= 3)
//   d_cut f64 | epsilon f64 | compute_cost_seconds f64 | flags u32
//   algorithm: len u32 + bytes
//   rho:           count i64 + count f64
//   delta:         count i64 + count f64
//   dependency:    count i64 + count i64
//   density_order: count i64 + count i64   (empty for interrupted solves)
//
// The record carries no checksum of its own: the log frame's checksum
// covers it, and every read of a payload (fetch, replay, compaction)
// verifies that frame first (store/solution_log.h). Version 2 closed the
// record with an FNV-1a trailer and version 1 also carried the input's
// fingerprint (its store key holds it); both are refused like any other
// unknown version, so their keys recompute.
//
// DecodeSolution checks the structure: magic, version, every length
// against the bytes left, no trailing bytes, ids inside [-1, n)
// (dependency) and [0, n) (density_order), and a density order n long (0
// for an interrupted solve). A decoded solution is safe to label, whatever
// bytes it was given.
//
// Doubles round-trip bit-exactly (raw bytes), which is what makes the
// serve-layer promotion path bit-identical to in-memory.
//
// SerializedSolutionBytes() computes the encoded size WITHOUT encoding —
// the serve-layer cache uses it for byte-accurate GreedyDual accounting.

#ifndef DPC_STORE_SOLUTION_FORMAT_H_
#define DPC_STORE_SOLUTION_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/dpc.h"
#include "core/status.h"

namespace dpc::store {

inline constexpr char kSolutionMagic[4] = {'D', 'P', 'S', 'N'};
inline constexpr uint32_t kSolutionFormatVersion = 3;

namespace internal {

/// Solution flags (bit set) persisted in the header.
inline constexpr uint32_t kFlagInterrupted = 1u;

template <typename T>
inline void AppendRaw(const T& v, std::string* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
inline void AppendArray(const std::vector<T>& v, std::string* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendRaw(static_cast<int64_t>(v.size()), out);
  if (!v.empty()) {
    out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
}

/// Bounds-checked sequential reader over an encoded buffer.
class Reader {
 public:
  Reader(const char* data, size_t size) : p_(data), left_(size) {}

  template <typename T>
  bool Read(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (left_ < sizeof(T)) return false;
    std::memcpy(v, p_, sizeof(T));
    p_ += sizeof(T);
    left_ -= sizeof(T);
    return true;
  }

  template <typename T>
  bool ReadArray(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    int64_t count = 0;
    // Bound the count before multiplying: count * sizeof(T) wraps for
    // counts near 2^64 / sizeof(T).
    if (!Read(&count) || count < 0 ||
        static_cast<uint64_t>(count) > left_ / sizeof(T)) {
      return false;
    }
    const size_t bytes = static_cast<size_t>(count) * sizeof(T);
    v->resize(static_cast<size_t>(count));
    if (count > 0) std::memcpy(v->data(), p_, bytes);
    p_ += bytes;
    left_ -= bytes;
    return true;
  }

  bool ReadBytes(std::string* out, size_t n) {
    if (left_ < n) return false;
    out->assign(p_, n);
    p_ += n;
    left_ -= n;
    return true;
  }

  size_t left() const { return left_; }

 private:
  const char* p_;
  size_t left_;
};

}  // namespace internal

/// Exact EncodeSolution output size — keep in sync with EncodeSolution
/// (store_test asserts equality).
inline size_t SerializedSolutionBytes(const DpcSolution& s) {
  size_t bytes = sizeof(kSolutionMagic) + sizeof(uint32_t);  // magic + version
  bytes += 3 * sizeof(double) + sizeof(uint32_t);  // params, cost, flags
  bytes += sizeof(uint32_t) + s.algorithm.size();  // algorithm
  bytes += 4 * sizeof(int64_t);                    // the four array counts
  bytes += (s.rho.size() + s.delta.size()) * sizeof(double);
  bytes += (s.dependency.size() + s.density_order.size()) * sizeof(PointId);
  return bytes;
}

inline void EncodeSolution(const DpcSolution& s, std::string* out) {
  out->clear();
  out->reserve(SerializedSolutionBytes(s));
  out->append(kSolutionMagic, sizeof(kSolutionMagic));
  internal::AppendRaw(kSolutionFormatVersion, out);
  internal::AppendRaw(s.compute.d_cut, out);
  internal::AppendRaw(s.compute.epsilon, out);
  internal::AppendRaw(s.compute_cost_seconds, out);
  const uint32_t flags = s.interrupted() ? internal::kFlagInterrupted : 0u;
  internal::AppendRaw(flags, out);
  internal::AppendRaw(static_cast<uint32_t>(s.algorithm.size()), out);
  out->append(s.algorithm);
  internal::AppendArray(s.rho, out);
  internal::AppendArray(s.delta, out);
  internal::AppendArray(s.dependency, out);
  internal::AppendArray(s.density_order, out);
}

inline StatusOr<DpcSolution> DecodeSolution(const char* data, size_t size) {
  internal::Reader r(data, size);
  char magic[sizeof(kSolutionMagic)];
  if (!r.Read(&magic) ||
      std::memcmp(magic, kSolutionMagic, sizeof(kSolutionMagic)) != 0) {
    return Status::InvalidArgument("bad solution record magic");
  }
  uint32_t version = 0;
  if (!r.Read(&version)) {
    return Status::InvalidArgument("solution record truncated");
  }
  if (version != kSolutionFormatVersion) {
    return Status::InvalidArgument("unsupported solution format version " +
                                   std::to_string(version));
  }
  DpcSolution s;
  uint32_t flags = 0;
  uint32_t algo_len = 0;
  if (!r.Read(&s.compute.d_cut) || !r.Read(&s.compute.epsilon) ||
      !r.Read(&s.compute_cost_seconds) || !r.Read(&flags) ||
      !r.Read(&algo_len) || !r.ReadBytes(&s.algorithm, algo_len) ||
      !r.ReadArray(&s.rho) || !r.ReadArray(&s.delta) ||
      !r.ReadArray(&s.dependency) ||
      !r.ReadArray(&s.density_order) || r.left() != 0) {
    return Status::InvalidArgument("solution record truncated");
  }
  s.stats.interrupted = (flags & internal::kFlagInterrupted) != 0;
  const size_t n = s.rho.size();
  if (s.delta.size() != n || s.dependency.size() != n ||
      s.density_order.size() != (s.interrupted() ? 0 : n)) {
    return Status::InvalidArgument("solution record arrays disagree on n");
  }
  // Labeling indexes by these ids, so a record whose frame checksum holds
  // but whose ids point outside the solution is refused here, not read
  // out of bounds later.
  const auto n_ids = static_cast<PointId>(n);
  for (const PointId dep : s.dependency) {
    if (dep < -1 || dep >= n_ids) {
      return Status::InvalidArgument("solution record dependency out of range");
    }
  }
  for (const PointId id : s.density_order) {
    if (id < 0 || id >= n_ids) {
      return Status::InvalidArgument("solution record density order out of range");
    }
  }
  return s;
}

inline StatusOr<DpcSolution> DecodeSolution(const std::string& buf) {
  return DecodeSolution(buf.data(), buf.size());
}

}  // namespace dpc::store

#endif  // DPC_STORE_SOLUTION_FORMAT_H_
