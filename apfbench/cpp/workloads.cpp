#include "workloads.h"

#include "common.h"
#include "compress/topk.h"
#include "core/apf_manager.h"
#include "data/synthetic_images.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "optim/optimizer.h"
#include "util/rng.h"

namespace apfbench {

using namespace apf;

namespace {

// Rounds per measured simulation are sized so that at least two
// simulations fit in one benchmark run. Where a run holds enough rounds for
// a tail, every fourth round evaluates: the tail is then an eval round and
// the median a training-only round. wide-apf fits too few rounds for a tail
// and evaluates only in its last round, so its median is not split between
// the two kinds of round.
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"lenet-apf", "core", 20, 4, 0.5},
      {"kws-topk", "compress", 20, 4, 0.4},
      {"wide-apf", "core", 10, 10, 0.5},
      {"wide-async", "fl", 24, 4, 0.5},
  };
  return kSpecs;
}

Instance from_task(bench::TaskBundle task) {
  Instance inst;
  inst.train = std::move(task.train);
  inst.test = std::move(task.test);
  inst.partition = std::move(task.partition);
  inst.model = std::move(task.model);
  inst.optimizer = std::move(task.optimizer);
  inst.config = task.config;
  return inst;
}

// The learning rates are above the paper's (Adam 1e-3, SGD 0.01) so the
// short simulations converge far enough for a stable accuracy check.
bench::TaskOptions paper_task_options(const WorkloadSpec& spec,
                                      std::uint64_t seed, std::size_t rounds,
                                      double lr) {
  bench::TaskOptions options;
  options.num_clients = 8;
  options.rounds = rounds;
  options.local_iters = 5;
  options.batch_size = 32;
  options.train_samples = 2400;
  options.test_samples = 512;
  options.eval_every = spec.eval_every;
  options.lr = lr;
  options.seed = seed;
  return options;
}

// Flatten + MLP 1200 -> 512 -> 512 -> 10 (883k parameters) on 3x20x20
// synthetic images: a model whose per-round strategy work (one pass over
// 883k scalars per client) outweighs its batch-4 local step.
Instance wide_instance(const WorkloadSpec& w, std::uint64_t seed,
                       std::size_t rounds) {
  data::SyntheticImageSpec spec;
  spec.num_classes = 10;
  spec.channels = 3;
  spec.image_size = 20;
  spec.noise_stddev = 1.0;
  spec.amplitude_jitter = 0.3;
  spec.max_shift = 3;
  spec.seed = seed;
  Instance inst;
  inst.train = std::make_shared<data::SyntheticImageDataset>(spec, 2400,
                                                             seed + 1);
  inst.test = std::make_shared<data::SyntheticImageDataset>(spec, 512,
                                                            seed + 2);
  const std::size_t clients = 32;
  Rng part_rng(seed ^ 0x9A27717107ULL);
  inst.partition = data::dirichlet_partition(
      inst.train->all_labels(), inst.train->num_classes(), clients, 1.0,
      part_rng);
  const std::uint64_t model_seed = seed + 3;
  inst.model = [model_seed]() -> std::unique_ptr<nn::Module> {
    Rng rng(model_seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add(std::make_unique<nn::Flatten>(), "flatten");
    net->add(nn::make_mlp(rng, 1200, 512, 2, 10), "mlp");
    return net;
  };
  inst.optimizer = [](nn::Module& m) -> std::unique_ptr<optim::Optimizer> {
    return std::make_unique<optim::Sgd>(m.parameters(), 0.2);
  };
  inst.config.num_clients = clients;
  inst.config.rounds = rounds;
  inst.config.local_iters = 1;
  inst.config.batch_size = 4;
  inst.config.seed = seed;
  inst.config.eval_every = w.eval_every;
  return inst;
}

// The ext_async_straggler compute mix: every fifth client 4x slow, client 7
// (mod 10) 16x slow, the rest 1x.
std::vector<double> straggler_multipliers(std::size_t n) {
  std::vector<double> mult(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 10 == 7) {
      mult[i] = 16.0;
    } else if (i % 5 == 3) {
      mult[i] = 4.0;
    }
  }
  return mult;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : specs()) names.push_back(spec.name);
  return names;
}

Instance make_instance(const WorkloadSpec& spec, std::uint64_t seed,
                       std::size_t rounds, std::size_t lanes) {
  Instance inst;
  if (spec.name == "lenet-apf") {
    inst = from_task(
        bench::lenet_task(paper_task_options(spec, seed, rounds, 3e-3)));
    inst.strategy =
        std::make_unique<core::ApfManager>(bench::default_apf_options());
  } else if (spec.name == "kws-topk") {
    inst = from_task(
        bench::lstm_task(paper_task_options(spec, seed, rounds, 0.2)));
    compress::TopKOptions topk;
    topk.fraction = 0.1;
    inst.strategy = std::make_unique<compress::TopKSync>(topk);
  } else if (spec.name == "wide-apf") {
    inst = wide_instance(spec, seed, rounds);
    inst.strategy =
        std::make_unique<core::ApfManager>(bench::default_apf_options());
  } else {
    inst = wide_instance(spec, seed, rounds);
    inst.config.aggregation_mode = fl::AggregationMode::kAsyncBuffered;
    inst.config.async_goal_k = 16;
    inst.config.async_timeout_seconds = 8.0;
    inst.config.compute_seconds_per_iter = 0.5;
    inst.config.compute_multiplier =
        straggler_multipliers(inst.config.num_clients);
    inst.strategy = std::make_unique<fl::FullSync>();
  }
  inst.config.worker_threads = lanes;
  return inst;
}

}  // namespace apfbench
