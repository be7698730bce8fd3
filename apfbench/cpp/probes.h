// Layer probes: direct calls into the library's public kernel, codec and
// fold functions at the shapes, dimensions, masks and fan-in a workload
// actually produces, with warm-up and a median over repeated samples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"
#include "util/bitmap.h"

namespace apfbench {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct ProbeInputs {
  std::string workload;
  apf::nn::Module* model = nullptr;  // a fresh workload model (shape check)
  std::size_t batch = 0;             // local batch size
  apf::Bitmap frozen_mask;           // the mask a strategy synchronizes with
  std::size_t fold_clients = 0;      // synchronous fan-in per round
  std::size_t goal_k = 0;            // async commit size
  std::uint64_t seed = 1;
};

/// Runs every probe; throws when the workload's model no longer has the
/// layer shapes the GEMM/conv probes assume.
std::vector<Metric> run_probes(const ProbeInputs& in);

}  // namespace apfbench
