// Hash helpers. Int64VectorHash hashes integer-coordinate keys; LSH
// bucket keys (index/lsh.h) are its only user: vector<int64_t>
// coordinates hashed into an unordered_map whose equality check is the
// full coordinate comparison, so collisions can never merge distinct
// keys. (Grid cells use their own flat table, index/grid.h.)
#ifndef DPC_COMMON_HASH_H_
#define DPC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpc {

/// FNV-1a over a raw byte range, chainable via the seed parameter; the
/// same constants as Int64VectorHash below. Its users: the dataset content
/// fingerprint (serve/dataset_registry.h FingerprintPoints) and the
/// solution log's record checksum (store/solution_log.h).
inline uint64_t Fnv1aBytes(const void* data, size_t size,
                           uint64_t seed = 1469598103934665603ULL) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over the little-endian bytes of each coordinate.
struct Int64VectorHash {
  size_t operator()(const std::vector<int64_t>& coords) const {
    uint64_t h = 1469598103934665603ULL;
    for (const int64_t c : coords) {
      uint64_t v = static_cast<uint64_t>(c);
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffULL;
        h *= 1099511628211ULL;
      }
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace dpc

#endif  // DPC_COMMON_HASH_H_
