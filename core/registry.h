// Name-based algorithm factory for CLIs and config-driven pipelines.
// Names mirror the paper's algorithm menu; every entry is implemented.
// Adding an algorithm means adding one table slot here (and a registry
// test run picks it up automatically).
//
// API v2: every factory takes an OptionsMap (core/options.h) so callers
// like `dpc_cli --opt k=v` can drive per-algorithm knobs — LSH-DDP's
// table and bit counts, CFSFDP-A's sample rate and seed — without
// recompiling. The paper's three algorithms and the Scan baselines have
// no keys. Unknown keys and malformed values fail with InvalidArgument.
#ifndef DPC_CORE_REGISTRY_H_
#define DPC_CORE_REGISTRY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cfsfdp_a.h"
#include "baselines/lsh_ddp.h"
#include "baselines/scan_dpc.h"
#include "core/approx_dpc.h"
#include "core/dpc.h"
#include "core/ex_dpc.h"
#include "core/options.h"
#include "core/s_approx_dpc.h"
#include "core/status.h"

namespace dpc {

namespace internal {

struct AlgorithmEntry {
  const char* name;
  StatusOr<std::unique_ptr<DpcAlgorithm>> (*factory)(const OptionsMap&);
};

/// Wraps Algo(AlgoOptions::FromOptions(map)) into the registry's factory
/// signature.
template <typename Algo, typename Options>
StatusOr<std::unique_ptr<DpcAlgorithm>> MakeWithOptions(const OptionsMap& map) {
  StatusOr<Options> options = Options::FromOptions(map);
  if (!options.ok()) return options.status();
  return std::unique_ptr<DpcAlgorithm>(
      std::make_unique<Algo>(std::move(options).value()));
}

/// The factory of an algorithm without options: every key is unknown.
template <typename Algo>
StatusOr<std::unique_ptr<DpcAlgorithm>> MakeWithoutOptions(const OptionsMap& map) {
  if (Status s = OptionsReader(map).status(); !s.ok()) return s;
  return std::unique_ptr<DpcAlgorithm>(std::make_unique<Algo>());
}

/// Single source of truth: landing an algorithm means adding one slot
/// here.
inline const std::vector<AlgorithmEntry>& AlgorithmTable() {
  static const std::vector<AlgorithmEntry> kTable = {
      {"ex-dpc", &MakeWithoutOptions<ExDpc>},
      {"approx-dpc", &MakeWithoutOptions<ApproxDpc>},
      {"s-approx-dpc", &MakeWithoutOptions<SApproxDpc>},
      {"scan", &MakeWithoutOptions<ScanDpc>},
      {"rtree-scan", &MakeWithoutOptions<RtreeScanDpc>},
      {"lsh-ddp", &MakeWithOptions<LshDdp, LshDdpOptions>},
      {"cfsfdp-a", &MakeWithOptions<CfsfdpA, CfsfdpAOptions>},
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

/// Constructs a registered algorithm, wiring the options map into its
/// per-algorithm options struct (see each algorithm header for the keys).
inline StatusOr<std::unique_ptr<DpcAlgorithm>> MakeAlgorithmByName(
    const std::string& name, const OptionsMap& options) {
  for (const auto& entry : internal::AlgorithmTable()) {
    if (name == entry.name) return entry.factory(options);
  }
  std::string menu;
  for (const auto& entry : internal::AlgorithmTable()) {
    if (!menu.empty()) menu += ", ";
    menu += entry.name;
  }
  return Status::NotFound("unknown algorithm '" + name + "'; expected one of: " +
                          menu);
}

inline StatusOr<std::unique_ptr<DpcAlgorithm>> MakeAlgorithmByName(
    const std::string& name) {
  return MakeAlgorithmByName(name, OptionsMap{});
}

}  // namespace dpc

#endif  // DPC_CORE_REGISTRY_H_
