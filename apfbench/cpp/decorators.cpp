#include "decorators.h"

#include <type_traits>
#include <utility>

namespace apfbench {

namespace {

// Runs `call`, recording it as a `kind` span when the recorder traces.
template <typename Call>
auto timed(Recorder& rec, SpanKind kind, Call&& call) {
  if (!rec.tracing()) return call();
  const std::int64_t start = now_ns();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    rec.record(kind, start, now_ns());
  } else {
    auto result = call();
    rec.record(kind, start, now_ns());
    return result;
  }
}

}  // namespace

TimedModule::TimedModule(std::unique_ptr<apf::nn::Module> inner,
                         Recorder& rec)
    : inner_(std::move(inner)), rec_(rec) {
  Module::set_training(inner_->training());
}

apf::Tensor TimedModule::forward(const apf::Tensor& input) {
  if (!training()) {
    return timed(rec_, SpanKind::kEvalForward,
                 [&] { return inner_->forward(input); });
  }
  rec_.note_training_forward(input.rank() > 0 ? input.dim(0) : 0);
  return timed(rec_, SpanKind::kForward,
               [&] { return inner_->forward(input); });
}

apf::Tensor TimedModule::backward(const apf::Tensor& grad_output) {
  return timed(rec_, SpanKind::kBackward,
               [&] { return inner_->backward(grad_output); });
}

void TimedModule::collect_params(const std::string& prefix,
                                 std::vector<apf::nn::ParamRef>& out) {
  inner_->collect_params(prefix, out);
}

void TimedModule::collect_buffers(const std::string& prefix,
                                  std::vector<apf::nn::BufferRef>& out) {
  inner_->collect_buffers(prefix, out);
}

void TimedModule::set_training(bool training) {
  Module::set_training(training);
  inner_->set_training(training);
}

TimedOptimizer::TimedOptimizer(std::unique_ptr<apf::optim::Optimizer> inner,
                               apf::nn::Module& module, Recorder& rec)
    : Optimizer(module.parameters(), inner->lr()),
      inner_(std::move(inner)),
      rec_(rec) {}

void TimedOptimizer::step() {
  timed(rec_, SpanKind::kStep, [&] { inner_->step(); });
}

void TimedOptimizer::reset_state() { inner_->reset_state(); }

TimedDataset::TimedDataset(const apf::data::Dataset& inner, Recorder& rec)
    : inner_(inner), rec_(rec) {}

std::size_t TimedDataset::size() const { return inner_.size(); }
std::size_t TimedDataset::num_classes() const { return inner_.num_classes(); }
apf::Shape TimedDataset::sample_shape() const {
  return inner_.sample_shape();
}
std::size_t TimedDataset::label(std::size_t i) const {
  return inner_.label(i);
}
apf::data::Batch TimedDataset::get_batch(
    std::span<const std::size_t> indices) const {
  return timed(rec_, SpanKind::kGetBatch,
               [&] { return inner_.get_batch(indices); });
}

TimedStrategy::TimedStrategy(apf::fl::SyncStrategy& inner, Recorder& rec)
    : inner_(inner), inner_stream_(inner.stream_sync()), rec_(rec) {}

void TimedStrategy::init(std::span<const float> initial_params,
                         std::size_t num_clients) {
  inner_.init(initial_params, num_clients);
  rec_.mark_rounds_start();
}

apf::fl::SyncStrategy::Result TimedStrategy::synchronize(
    apf::fl::RoundId round, std::vector<std::vector<float>>& client_params,
    const std::vector<double>& weights) {
  return timed(rec_, SpanKind::kSynchronize, [&] {
    return inner_.synchronize(round, client_params, weights);
  });
}

std::span<const float> TimedStrategy::global_params() const {
  return inner_.global_params();
}
const apf::Bitmap* TimedStrategy::frozen_mask() const {
  return inner_.frozen_mask();
}
std::span<const float> TimedStrategy::frozen_anchor() const {
  return inner_.frozen_anchor();
}
apf::fl::StreamSync* TimedStrategy::stream_sync() {
  return inner_stream_ != nullptr ? this : nullptr;
}
std::string TimedStrategy::name() const { return inner_.name(); }

std::vector<std::uint8_t> TimedStrategy::encode_push(
    apf::fl::ClientId client, std::span<const float> params) {
  return timed(rec_, SpanKind::kEncodePush,
               [&] { return inner_stream_->encode_push(client, params); });
}
void TimedStrategy::begin_fold(apf::fl::RoundId round) {
  inner_stream_->begin_fold(round);
}
void TimedStrategy::fold_push(apf::fl::ClientId client,
                              std::span<const std::uint8_t> frame,
                              double normalized_weight) {
  inner_stream_->fold_push(client, frame, normalized_weight);
}
std::vector<std::uint8_t> TimedStrategy::finish_fold() {
  return inner_stream_->finish_fold();
}
void TimedStrategy::apply_pull(std::span<const std::uint8_t> frame,
                               std::vector<float>& params) const {
  inner_stream_->apply_pull(frame, params);
}

apf::fl::ModelFactory timed_model_factory(apf::fl::ModelFactory inner,
                                          Recorder& rec) {
  return [inner = std::move(inner),
          &rec]() -> std::unique_ptr<apf::nn::Module> {
    return std::make_unique<TimedModule>(inner(), rec);
  };
}

apf::fl::OptimizerFactory timed_optimizer_factory(
    apf::fl::OptimizerFactory inner, Recorder& rec) {
  return [inner = std::move(inner), &rec](apf::nn::Module& module)
             -> std::unique_ptr<apf::optim::Optimizer> {
    return std::make_unique<TimedOptimizer>(inner(module), module, rec);
  };
}

}  // namespace apfbench
