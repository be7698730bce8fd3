#include "probes.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "tensor/conv.h"
#include "tensor/ops.h"
#include "trace.h"
#include "transport/buffered.h"
#include "transport/streaming.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wire/masked.h"
#include "wire/wire.h"

namespace apfbench {

using namespace apf;

namespace {

// Results feed this sink so no probed call can be optimized away.
volatile float g_sink = 0.f;

// kws-topk's Top-k fraction; every workload probes APS1 at it.
constexpr double kSparseFraction = 0.1;

// Median seconds per call of `call`: at least 50 ms of warm-up, then nine
// samples of at least 20 ms each.
double seconds_per_call(const std::function<void()>& call) {
  const std::int64_t warm_start = now_ns();
  std::size_t warm_calls = 0;
  while (warm_calls < 3 || now_ns() - warm_start < 50'000'000) {
    call();
    ++warm_calls;
  }
  const double warm_ns_per_call =
      static_cast<double>(now_ns() - warm_start) / warm_calls;
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(20e6 / warm_ns_per_call)));
  std::vector<double> samples;
  for (int s = 0; s < 9; ++s) {
    const std::int64_t t0 = now_ns();
    for (std::size_t r = 0; r < reps; ++r) call();
    samples.push_back(static_cast<double>(now_ns() - t0) / reps);
  }
  std::nth_element(samples.begin(), samples.begin() + 4, samples.end());
  return samples[4] * 1e-9;
}

// A fully connected GEMM site: `rows` x `in` activations against an
// `out` x `in` weight, `calls` times per local step (LSTM time steps).
struct LinearSite {
  std::size_t rows, in, out, calls;
};
// A convolution site, lowered per sample to im2col + GEMM.
struct ConvSite {
  ConvGeom geom;
  std::size_t out_channels;
};

struct LayerTable {
  std::vector<ConvSite> convs;
  std::vector<LinearSite> linears;
};

// LeNet-5 on 3x20x20 inputs: conv 5x5 (3->6) on 20x20, pool, conv 5x5
// (6->16) on 8x8, pool, then fc 64->120->84->10.
std::vector<ConvSite> lenet_convs() {
  return {{ConvGeom{3, 20, 20, 5, 1, 0}, 6}, {ConvGeom{6, 8, 8, 5, 1, 0}, 16}};
}

// The GEMM and conv sites one local step of each workload executes, in
// model parameter order (checked against the model by check_layer_table).
LayerTable layer_table(const std::string& workload, std::size_t b) {
  if (workload == "lenet-apf") {
    return {lenet_convs(), {{b, 64, 120, 1}, {b, 120, 84, 1}, {b, 84, 10, 1}}};
  }
  if (workload == "kws-topk") {
    // Two LSTM layers (8 -> 32, 32 -> 32 hidden) over 16 time steps: each
    // step multiplies input and hidden state by a 4H-row gate weight.
    const std::size_t t = 16, gates = 128;
    return {{},
            {{b, 8, gates, t},
             {b, 32, gates, t},
             {b, 32, gates, t},
             {b, 32, gates, t},
             {b, 32, 10, 1}}};
  }
  return {{}, {{b, 1200, 512, 1}, {b, 512, 512, 1}, {b, 512, 10, 1}}};
}

void check_layer_table(const LayerTable& table, nn::Module& model) {
  std::vector<Shape> expected;
  for (const ConvSite& c : table.convs) {
    expected.push_back(
        {c.out_channels, c.geom.channels * c.geom.kernel * c.geom.kernel});
  }
  for (const LinearSite& l : table.linears) expected.push_back({l.out, l.in});
  std::vector<Shape> actual;
  for (const nn::ParamRef& p : model.parameters()) {
    if (p.param->value.rank() == 2) actual.push_back(p.param->value.shape());
  }
  if (actual != expected) {
    throw std::runtime_error(
        "probe layer table no longer matches the workload model");
  }
}

struct Gemm {
  Tensor a, b;
  std::size_t calls;  // per local step
};

Tensor random_tensor(Shape shape, Rng& rng) {
  return Tensor::uniform(std::move(shape), rng, -1.f, 1.f);
}

// GFLOP/s of `kernel` over the workload's operand mix, each entry weighted
// by its calls per local step. flops_of(entry) counts one call.
Metric gemm_probe(const std::string& name, std::vector<Gemm> mix,
                  Tensor (*kernel)(const Tensor&, const Tensor&),
                  double (*flops_of)(const Gemm&)) {
  double flops = 0;
  for (const Gemm& g : mix) flops += flops_of(g) * g.calls;
  const double s = seconds_per_call([&] {
    for (const Gemm& g : mix) {
      for (std::size_t c = 0; c < g.calls; ++c) {
        g_sink = g_sink + kernel(g.a, g.b).raw()[0];
      }
    }
  });
  return {name, flops / s * 1e-9, "GFLOP/s"};
}

Metric bytes_probe(const std::string& name, double bytes,
                   const std::function<void()>& call) {
  return {name, bytes / seconds_per_call(call) * 1e-9, "GB/s"};
}

std::vector<float> random_values(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform_float(-1.f, 1.f);
  return v;
}

}  // namespace

std::vector<Metric> run_probes(const ProbeInputs& in) {
  // Inside the runner every kernel runs on a pool lane, where it stays
  // serial; probe them the same way.
  util::ThreadPool serial(1);
  util::set_compute_pool(&serial);
  struct RestorePool {
    ~RestorePool() { util::set_compute_pool(nullptr); }
  } restore;

  Rng rng(in.seed ^ 0x9B0BE5ULL);
  std::vector<Metric> out;

  const LayerTable table = layer_table(in.workload, in.batch);
  check_layer_table(table, *in.model);
  // mm: A(m x k) B(k x n); tn: A(m x k)^T B(m x n); nt: A(m x k) B(r x k)^T.
  std::vector<Gemm> mm, tn, nt;
  for (const ConvSite& c : table.convs) {
    const std::size_t fan_in = c.geom.channels * c.geom.kernel * c.geom.kernel;
    const std::size_t pix = c.geom.out_h() * c.geom.out_w();
    const std::size_t oc = c.out_channels;
    mm.push_back({random_tensor({oc, fan_in}, rng),
                  random_tensor({fan_in, pix}, rng), in.batch});
    nt.push_back({random_tensor({oc, pix}, rng),
                  random_tensor({fan_in, pix}, rng), in.batch});
    tn.push_back({random_tensor({oc, fan_in}, rng),
                  random_tensor({oc, pix}, rng), in.batch});
  }
  for (const LinearSite& l : table.linears) {
    nt.push_back({random_tensor({l.rows, l.in}, rng),
                  random_tensor({l.out, l.in}, rng), l.calls});
    tn.push_back({random_tensor({l.rows, l.out}, rng),
                  random_tensor({l.rows, l.in}, rng), l.calls});
    mm.push_back({random_tensor({l.rows, l.out}, rng),
                  random_tensor({l.out, l.in}, rng), l.calls});
  }
  out.push_back(gemm_probe("tensor.matmul.gflops", mm, &matmul,
                           [](const Gemm& g) {
                             return 2.0 * g.a.dim(0) * g.a.dim(1) * g.b.dim(1);
                           }));
  out.push_back(gemm_probe("tensor.matmul_tn.gflops", tn, &matmul_tn,
                           [](const Gemm& g) {
                             return 2.0 * g.a.dim(0) * g.a.dim(1) * g.b.dim(1);
                           }));
  out.push_back(gemm_probe("tensor.matmul_nt.gflops", nt, &matmul_nt,
                           [](const Gemm& g) {
                             return 2.0 * g.a.dim(0) * g.a.dim(1) * g.b.dim(0);
                           }));

  // Only lenet-apf convolves; the other workloads probe its conv sites.
  const std::vector<ConvSite> convs =
      table.convs.empty() ? lenet_convs() : table.convs;
  {
    std::vector<Tensor> images;
    std::vector<Tensor> cols;
    double col_bytes = 0;
    for (const ConvSite& c : convs) {
      images.push_back(random_tensor(
          {c.geom.channels, c.geom.in_h, c.geom.in_w}, rng));
      cols.push_back(im2col(images.back().raw(), c.geom));
      col_bytes += 4.0 * cols.back().numel() * in.batch;
    }
    out.push_back(bytes_probe("tensor.im2col.gbps", col_bytes, [&] {
      for (std::size_t i = 0; i < convs.size(); ++i) {
        for (std::size_t s = 0; s < in.batch; ++s) {
          g_sink = g_sink + im2col(images[i].raw(), convs[i].geom).raw()[0];
        }
      }
    }));
    out.push_back(bytes_probe("tensor.col2im.gbps", col_bytes, [&] {
      for (std::size_t i = 0; i < convs.size(); ++i) {
        for (std::size_t s = 0; s < in.batch; ++s) {
          std::fill(images[i].raw(), images[i].raw() + images[i].numel(), 0.f);
          col2im(cols[i], convs[i].geom, images[i].raw());
        }
        g_sink = g_sink + images[i].raw()[0];
      }
    }));
  }

  // Codecs at the workload's flat model dimension and frozen mask.
  const std::size_t dim = in.frozen_mask.size();
  const std::vector<float> params = random_values(dim, rng);
  const double param_bytes = 4.0 * static_cast<double>(dim);
  const std::vector<std::uint8_t> dense = wire::encode_dense(params);
  out.push_back(bytes_probe("wire.dense_encode.gbps", param_bytes, [&] {
    g_sink = g_sink + wire::encode_dense(params).back();
  }));
  out.push_back(bytes_probe("wire.dense_decode.gbps", param_bytes, [&] {
    g_sink = g_sink + wire::decode_dense(dense).back();
  }));
  out.push_back(bytes_probe("wire.pack_unfrozen.gbps", param_bytes, [&] {
    const std::vector<float> packed =
        wire::pack_unfrozen(params, in.frozen_mask);
    g_sink = g_sink + (packed.empty() ? 0.f : packed.back());
  }));
  const std::vector<std::uint8_t> masked =
      wire::encode_masked_update(params, in.frozen_mask);
  out.push_back(bytes_probe("wire.masked_encode.gbps", param_bytes, [&] {
    g_sink = g_sink + wire::encode_masked_update(params, in.frozen_mask).back();
  }));
  out.push_back(bytes_probe("wire.masked_decode.gbps", param_bytes, [&] {
    g_sink = g_sink + static_cast<float>(
                          wire::decode_masked_update(masked).payload.size());
  }));

  wire::SparsePayload sparse;
  sparse.dim = static_cast<std::uint32_t>(dim);
  {
    std::vector<std::uint32_t> all(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      all[j] = static_cast<std::uint32_t>(j);
    }
    rng.shuffle(all);
    const std::size_t k = static_cast<std::size_t>(
        std::ceil(kSparseFraction * static_cast<double>(dim)));
    sparse.indices.assign(all.begin(), all.begin() + k);
    std::sort(sparse.indices.begin(), sparse.indices.end());
    sparse.values = random_values(k, rng);
  }
  const std::vector<std::uint8_t> sparse_frame = wire::encode_sparse(sparse);
  const double sparse_bytes = static_cast<double>(sparse_frame.size());
  out.push_back(bytes_probe("wire.sparse_encode.gbps", sparse_bytes, [&] {
    g_sink = g_sink + wire::encode_sparse(sparse).back();
  }));
  out.push_back(bytes_probe("wire.sparse_decode.gbps", sparse_bytes, [&] {
    g_sink = g_sink + wire::decode_sparse(sparse_frame).values.back();
  }));

  // Folds: one synchronous round (every client's unfrozen payload, ascending
  // ids) and one async commit (goal-K dense pushes).
  const std::size_t unfrozen = dim - in.frozen_mask.count();
  const std::vector<float> payload(params.begin(), params.begin() + unfrozen);
  std::vector<float> merged(unfrozen);
  out.push_back(bytes_probe(
      "transport.streaming_fold.gbps",
      4.0 * static_cast<double>(unfrozen) * in.fold_clients, [&] {
        transport::StreamingAggregator agg(unfrozen);
        const double w = 1.0 / static_cast<double>(in.fold_clients);
        for (std::size_t c = 0; c < in.fold_clients; ++c) {
          agg.fold(util::ClientId(c), payload, w);
        }
        agg.finish_weighted(merged);
        g_sink = g_sink + (merged.empty() ? 0.f : merged.back());
      }));
  std::vector<float> committed(dim);
  out.push_back(bytes_probe(
      "transport.buffered_fold.gbps",
      4.0 * static_cast<double>(dim) * in.goal_k, [&] {
        transport::BufferedAggregator buffer(dim, in.goal_k);
        buffer.begin_round(util::RoundId(2));
        for (std::size_t c = 0; c < in.goal_k; ++c) {
          buffer.fold(util::ClientId(c), util::RoundId(1 + c % 2), params, 1.0);
        }
        buffer.commit(committed);
        g_sink = g_sink + committed.back();
      }));
  return out;
}

}  // namespace apfbench
