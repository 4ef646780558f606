// Thread-count helpers for the parallel/ layer. The name keeps the
// paper's OpenMP vocabulary (the reference implementation is
// OpenMP-based: omp_get_num_procs, omp_set_num_threads); this library is
// std::thread-only, so these are the equivalents the rest of parallel/
// and the benches build on.
#ifndef DPC_PARALLEL_OMP_UTILS_H_
#define DPC_PARALLEL_OMP_UTILS_H_

#include <thread>

namespace dpc {

/// Number of hardware threads; >= 1 even where the runtime reports 0.
inline int HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

/// 0 (or negative) requests all hardware threads.
inline int ResolveThreads(int requested) {
  return requested > 0 ? requested : HardwareThreads();
}

}  // namespace dpc

#endif  // DPC_PARALLEL_OMP_UTILS_H_
