// Named, ref-counted datasets with content fingerprints. Clients
// register a PointSet once under a handle and submit requests by handle;
// the registry hands out shared_ptr<const NamedDataset> so an in-flight
// request keeps its points alive even if the handle is replaced or
// unregistered mid-run.
//
// The fingerprint is a content hash (FingerprintPoints below — FNV-1a
// over dim, cardinality, and the raw coordinate bytes), not a handle
// hash: it keys the solution cache (serve/solution_cache.h), so
// re-registering byte-identical points — or the same points under a
// different name — keeps every cached solution valid, while any
// coordinate change invalidates exactly the stale entries.
#ifndef DPC_SERVE_DATASET_REGISTRY_H_
#define DPC_SERVE_DATASET_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "core/dpc.h"
#include "core/status.h"

namespace dpc {

/// Content hash of a point set: two sets fingerprint equal iff they hold
/// the same coordinates in the same order at the same dimensionality.
/// Identifies a registered dataset — and keys the serving layer's caches
/// and store — without retaining the points themselves.
inline uint64_t FingerprintPoints(const PointSet& points) {
  const int32_t dim = points.dim();
  const int64_t n = points.size();
  uint64_t h = Fnv1aBytes(&dim, sizeof(dim));
  h = Fnv1aBytes(&n, sizeof(n), h);
  return Fnv1aBytes(points.raw().data(), points.raw().size() * sizeof(double),
                    h);
}

namespace serve {

/// An immutable registered dataset. Held by shared_ptr: the registry owns
/// one reference, every in-flight request that resolved the handle owns
/// another.
struct NamedDataset {
  std::string name;
  PointSet points;
  uint64_t fingerprint = 0;

  NamedDataset() : points(1) {}
};

class DatasetRegistry {
 public:
  /// Registers (or atomically replaces) `name`; returns the content
  /// fingerprint. Requests already holding the old entry keep it alive.
  uint64_t Register(const std::string& name, PointSet points) {
    auto entry = std::make_shared<NamedDataset>();
    entry->name = name;
    entry->fingerprint = FingerprintPoints(points);
    entry->points = std::move(points);
    const uint64_t fingerprint = entry->fingerprint;
    std::lock_guard<std::mutex> lock(mu_);
    datasets_[name] = std::move(entry);
    return fingerprint;
  }

  /// The current entry for `name`, or null if unknown.
  std::shared_ptr<const NamedDataset> Find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = datasets_.find(name);
    return it == datasets_.end() ? nullptr : it->second;
  }

  /// Drops the handle (in-flight holders are unaffected). Returns whether
  /// the handle existed.
  bool Unregister(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return datasets_.erase(name) > 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return datasets_.size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const NamedDataset>>
      datasets_;
};

}  // namespace serve
}  // namespace dpc

#endif  // DPC_SERVE_DATASET_REGISTRY_H_
