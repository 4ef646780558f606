// Name-based algorithm factory for CLIs and config-driven pipelines.
// Names mirror the paper's algorithm menu; every entry is implemented.
// Adding an algorithm means adding one table slot here (and a registry
// test run picks it up automatically). Every algorithm runs at fixed
// settings: a name is all it takes to construct one.
#ifndef DPC_CORE_REGISTRY_H_
#define DPC_CORE_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/cfsfdp_a.h"
#include "baselines/lsh_ddp.h"
#include "baselines/scan_dpc.h"
#include "core/approx_dpc.h"
#include "core/dpc.h"
#include "core/ex_dpc.h"
#include "core/s_approx_dpc.h"
#include "core/status.h"

namespace dpc {

namespace internal {

struct AlgorithmEntry {
  const char* name;
  std::unique_ptr<DpcAlgorithm> (*factory)();
};

template <typename Algo>
std::unique_ptr<DpcAlgorithm> Make() {
  return std::make_unique<Algo>();
}

/// Single source of truth: landing an algorithm means adding one slot
/// here.
inline const std::vector<AlgorithmEntry>& AlgorithmTable() {
  static const std::vector<AlgorithmEntry> kTable = {
      {"ex-dpc", &Make<ExDpc>},
      {"approx-dpc", &Make<ApproxDpc>},
      {"s-approx-dpc", &Make<SApproxDpc>},
      {"scan", &Make<ScanDpc>},
      {"rtree-scan", &Make<RtreeScanDpc>},
      {"lsh-ddp", &Make<LshDdp>},
      {"cfsfdp-a", &Make<CfsfdpA>},
  };
  return kTable;
}

}  // namespace internal

/// Names accepted by MakeAlgorithmByName, the paper's algorithms first.
inline std::vector<std::string> RegisteredAlgorithmNames() {
  std::vector<std::string> names;
  for (const auto& entry : internal::AlgorithmTable()) names.emplace_back(entry.name);
  return names;
}

/// Constructs a registered algorithm; an unknown name fails NotFound
/// with the menu.
inline StatusOr<std::unique_ptr<DpcAlgorithm>> MakeAlgorithmByName(
    const std::string& name) {
  for (const auto& entry : internal::AlgorithmTable()) {
    if (name == entry.name) return entry.factory();
  }
  std::string menu;
  for (const auto& entry : internal::AlgorithmTable()) {
    if (!menu.empty()) menu += ", ";
    menu += entry.name;
  }
  return Status::NotFound("unknown algorithm '" + name + "'; expected one of: " +
                          menu);
}

}  // namespace dpc

#endif  // DPC_CORE_REGISTRY_H_
