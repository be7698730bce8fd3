// Pass-through timing decorators over the seams FederatedRunner already lets
// a caller inject: the model factory's modules, the optimizer factory's
// optimizers, the train Dataset and the SyncStrategy (with its StreamSync
// hooks). Each forwards every call unchanged and reports to a Recorder, so a
// decorated run produces the same SimulationResult bit for bit (the
// benchmark checks this on every run).
#pragma once

#include <memory>
#include <string>

#include "data/dataset.h"
#include "fl/runner.h"
#include "fl/sync_strategy.h"
#include "nn/module.h"
#include "optim/optimizer.h"
#include "trace.h"

namespace apfbench {

class TimedModule final : public apf::nn::Module {
 public:
  TimedModule(std::unique_ptr<apf::nn::Module> inner, Recorder& rec);

  apf::Tensor forward(const apf::Tensor& input) override;
  apf::Tensor backward(const apf::Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<apf::nn::ParamRef>& out) override;
  void collect_buffers(const std::string& prefix,
                       std::vector<apf::nn::BufferRef>& out) override;
  void set_training(bool training) override;

 private:
  std::unique_ptr<apf::nn::Module> inner_;
  Recorder& rec_;
};

/// Optimizer::zero_grad and set_lr are not virtual: the base is built over
/// the same parameters so zero_grad clears the real gradients, and the
/// workloads set no LR schedule (set_lr would not reach the inner optimizer).
class TimedOptimizer final : public apf::optim::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<apf::optim::Optimizer> inner,
                 apf::nn::Module& module, Recorder& rec);

  void step() override;
  void reset_state() override;

 private:
  std::unique_ptr<apf::optim::Optimizer> inner_;
  Recorder& rec_;
};

class TimedDataset final : public apf::data::Dataset {
 public:
  TimedDataset(const apf::data::Dataset& inner, Recorder& rec);

  std::size_t size() const override;
  std::size_t num_classes() const override;
  apf::Shape sample_shape() const override;
  std::size_t label(std::size_t i) const override;
  apf::data::Batch get_batch(
      std::span<const std::size_t> indices) const override;

 private:
  const apf::data::Dataset& inner_;
  Recorder& rec_;
};

/// Wraps a strategy and, when it streams, its StreamSync hooks. Strategy
/// init marks the start of round 1 (set-up ends at the first forward).
class TimedStrategy final : public apf::fl::SyncStrategy,
                            public apf::fl::StreamSync {
 public:
  TimedStrategy(apf::fl::SyncStrategy& inner, Recorder& rec);

  void init(std::span<const float> initial_params,
            std::size_t num_clients) override;
  Result synchronize(apf::fl::RoundId round,
                     std::vector<std::vector<float>>& client_params,
                     const std::vector<double>& weights) override;
  std::span<const float> global_params() const override;
  const apf::Bitmap* frozen_mask() const override;
  std::span<const float> frozen_anchor() const override;
  apf::fl::StreamSync* stream_sync() override;
  std::string name() const override;

  std::vector<std::uint8_t> encode_push(
      apf::fl::ClientId client, std::span<const float> params) override;
  void begin_fold(apf::fl::RoundId round) override;
  void fold_push(apf::fl::ClientId client,
                 std::span<const std::uint8_t> frame,
                 double normalized_weight) override;
  std::vector<std::uint8_t> finish_fold() override;
  void apply_pull(std::span<const std::uint8_t> frame,
                  std::vector<float>& params) const override;

 private:
  apf::fl::SyncStrategy& inner_;
  apf::fl::StreamSync* inner_stream_;
  Recorder& rec_;
};

apf::fl::ModelFactory timed_model_factory(apf::fl::ModelFactory inner,
                                          Recorder& rec);
apf::fl::OptimizerFactory timed_optimizer_factory(
    apf::fl::OptimizerFactory inner, Recorder& rec);

}  // namespace apfbench
