// The four benchmark workloads. Each is a closed loop: a federated round
// starts only after the previous one commits. The seed is the benchmark's;
// the library receives only the generated datasets, partition and config.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/partition.h"
#include "fl/runner.h"
#include "fl/sync_strategy.h"

namespace apfbench {

struct WorkloadSpec {
  std::string name;
  /// Module owning the strategy's hot call: "core" (APF synchronize),
  /// "compress" (TopK synchronize) or "fl" (async encode_push).
  std::string strategy_module;
  std::size_t rounds = 0;      // rounds per measured simulation
  std::size_t eval_every = 0;  // evaluation cadence (and the last round)
  double accuracy_floor = 0.0;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// One assembled workload: inputs, factories, config and a fresh strategy.
struct Instance {
  std::shared_ptr<const apf::data::Dataset> train;
  std::shared_ptr<const apf::data::Dataset> test;
  apf::data::Partition partition;
  apf::fl::ModelFactory model;
  apf::fl::OptimizerFactory optimizer;
  apf::fl::FlConfig config;
  std::unique_ptr<apf::fl::SyncStrategy> strategy;
};

/// Synthesizes the workload's datasets and partition from `seed` and builds
/// its factories, config (`rounds`, `lanes` worker threads) and strategy.
Instance make_instance(const WorkloadSpec& spec, std::uint64_t seed,
                       std::size_t rounds, std::size_t lanes);

}  // namespace apfbench
