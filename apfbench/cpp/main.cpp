// apfbench — the repository benchmark.
//
//   apfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-file F]
//
// Runs one workload (workloads.h) at a fixed 4 worker lanes from outside the
// library: timing decorators on the runner's injection seams, RoundObserver
// round boundaries, direct probes of kernels, codecs and folds. Every run
// first self-tests (a plain 4-lane run, a decorated 1-lane run and, when
// tracing, a traced run of the same short simulation must produce the same
// SimulationResult digest), measures set-up time, then repeats full
// simulations for about S seconds, checking that every one reproduces the
// same digest, the self-test's byte column, and clears the workload's
// accuracy floor. --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced simulations, reports the per-layer metrics
// from the traced ones and writes their spans to F. The last stdout line is
// one JSON object; the exit code is 1 when any run failed a check.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "decorators.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace apfbench {
namespace {

using namespace apf;

constexpr std::size_t kLanes = 4;
constexpr std::size_t kCheckRounds = 3;  // self-test simulation length
// Set-up-only runs per benchmark run: at least kSetupRuns of them, and more
// until they add up to kSetupSeconds, so a cheap set-up gets a steady median.
constexpr int kSetupRuns = 5;
constexpr double kSetupSeconds = 1.5;
constexpr int kMaxSetupRuns = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
};

// kPlain: library objects only. kTimed / kTraced: through the decorators,
// without / with spans. kSetupOnly: decorated, abandoned at the first
// training forward once set-up is measured.
enum class Mode { kPlain, kTimed, kTraced, kSetupOnly };

struct SimOutcome {
  fl::SimulationResult result;
  std::uint64_t digest = 0;
  double setup_s = 0;
  std::vector<double> round_s;  // wall seconds of rounds 2..R
  double samples = 0;           // training samples in rounds 2..R
  std::vector<RoundPhases> phases;
  Bitmap frozen_mask;  // the strategy's mask after the run (empty: none)
};

// FNV-1a over the result columns the output check covers.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 1099511628211ULL;
    }
  }
  template <typename T>
  void add(const T& v) {
    add(&v, sizeof(v));
  }
};

std::uint64_t digest_of(const fl::SimulationResult& r) {
  Digest d;
  d.add(r.final_global_params.data(),
        r.final_global_params.size() * sizeof(float));
  for (const fl::RoundRecord& rec : r.rounds) {
    d.add(rec.bytes_per_client);
    d.add(rec.test_accuracy);
    d.add(rec.frozen_fraction);
    for (const auto& [client, staleness] : rec.staleness) {
      d.add(client.value());
      d.add(staleness);
    }
  }
  return d.h;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

SimOutcome simulate(const WorkloadSpec& spec, std::uint64_t seed,
                    std::size_t rounds, std::size_t lanes, Mode mode,
                    std::ostream* trace_out = nullptr, int sim_index = 0,
                    bool first_trace = true) {
  Recorder rec(mode == Mode::kTraced, mode == Mode::kSetupOnly);
  rec.mark_workload_start();
  Instance inst = make_instance(spec, seed, rounds, lanes);
  SimOutcome out;
  if (mode == Mode::kPlain) {
    fl::FederatedRunner runner(inst.config, *inst.train, inst.partition,
                               *inst.test, inst.model, inst.optimizer,
                               *inst.strategy);
    out.result = runner.run();
  } else {
    const TimedDataset train(*inst.train, rec);
    TimedStrategy strategy(*inst.strategy, rec);
    fl::FederatedRunner runner(inst.config, train, inst.partition, *inst.test,
                               timed_model_factory(inst.model, rec),
                               timed_optimizer_factory(inst.optimizer, rec),
                               strategy);
    runner.set_observer([&rec](fl::RoundId round, std::span<const float>,
                               const std::vector<std::vector<float>>&) {
      rec.end_round(static_cast<std::uint32_t>(round.value()));
    });
    auto setup_s = [&] {
      return (rec.first_forward_ns() - rec.workload_start_ns()) * 1e-9;
    };
    if (mode == Mode::kSetupOnly) {
      try {
        runner.run();
      } catch (const SetupDone&) {
        out.setup_s = setup_s();
        return out;
      }
      throw std::runtime_error("set-up run ended without a training forward");
    }
    out.result = runner.run();
    out.setup_s = setup_s();
    const auto& b = rec.boundaries();
    require(b.size() == rounds + 1, "observer saw the wrong round count");
    for (std::size_t r = 2; r <= rounds; ++r) {
      out.round_s.push_back((b[r] - b[r - 1]) * 1e-9);
      for (const auto& lane : rec.lanes()) {
        if (lane->samples_by_round.size() > r) {
          out.samples += static_cast<double>(lane->samples_by_round[r]);
        }
      }
    }
    if (mode == Mode::kTraced) {
      out.phases = round_phases(rec);
      for (const RoundPhases& p : out.phases) {
        require(p.nested, "round " + std::to_string(p.round) +
                              ": spans do not nest under their round");
      }
      if (trace_out != nullptr) {
        write_trace_json(*trace_out, rec, sim_index, spec.strategy_module,
                         first_trace);
      }
    }
  }
  out.digest = digest_of(out.result);
  const Bitmap* mask = inst.strategy->frozen_mask();
  out.frozen_mask = mask != nullptr
                        ? *mask
                        : Bitmap(out.result.final_global_params.size());
  return out;
}

double median(std::vector<double> v) {
  require(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The tail the sample count supports: the highest nearest-rank percentile
// with at least ten samples above it. Below 30 samples that percentile is
// under p67, no tail at all, and the median stands in for it.
struct Tail {
  double percentile = 0;
  double value = 0;
};
Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 30) return {50, median(v)};
  return {100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
          v[n - 11]};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

class Benchmark {
 public:
  explicit Benchmark(Args args)
      : args_(std::move(args)), spec_(*find_workload(args_.workload)) {}

  int run();

 private:
  template <typename Fn>
  bool attempt(const std::string& what, Fn&& fn) {
    ++attempted_;
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      ++failed_;
      std::cout << "FAILED " << what << ": " << e.what() << "\n";
    } catch (...) {
      ++failed_;
      std::cout << "FAILED " << what << ": unknown exception\n";
    }
    return false;
  }

  void self_test();
  void measure();
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer();

  Args args_;
  const WorkloadSpec& spec_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::optional<SimOutcome> check_;  // the self-test's plain 4-lane run
  std::vector<double> setups_;
  std::vector<SimOutcome> untraced_, traced_;
  std::ofstream trace_out_;
};

void Benchmark::self_test() {
  attempt("self-test plain 4-lane run", [&] {
    check_ = simulate(spec_, args_.seed, kCheckRounds, kLanes, Mode::kPlain);
  });
  if (!check_) return;
  attempt("self-test decorated 1-lane run", [&] {
    const SimOutcome one =
        simulate(spec_, args_.seed, kCheckRounds, 1, Mode::kTimed);
    require(one.digest == check_->digest,
            "decorated 1-lane result differs from the plain 4-lane result");
  });
  if (args_.trace) {
    attempt("self-test traced run", [&] {
      const SimOutcome traced =
          simulate(spec_, args_.seed, kCheckRounds, kLanes, Mode::kTraced);
      require(traced.digest == check_->digest,
              "traced result differs from the plain result");
    });
  }
}

void Benchmark::measure() {
  const std::int64_t setup_start = now_ns();
  for (int i = 0; i < kMaxSetupRuns &&
                  (i < kSetupRuns ||
                   (now_ns() - setup_start) * 1e-9 < kSetupSeconds);
       ++i) {
    attempt("set-up run", [&] {
      setups_.push_back(simulate(spec_, args_.seed, spec_.rounds, kLanes,
                                 Mode::kSetupOnly)
                            .setup_s);
    });
  }
  if (args_.trace) {
    trace_out_.open(args_.trace_file);
    require(trace_out_.good(), "cannot write " + args_.trace_file);
    trace_out_ << "{\"workload\": \"" << spec_.name
               << "\", \"seed\": " << args_.seed << ", \"lanes\": " << kLanes
               << ", \"sims\": [\n";
  }
  std::optional<std::uint64_t> digest;
  const std::int64_t start = now_ns();
  // Whole simulations until --seconds have passed; a traced run needs an
  // untraced and a traced one.
  for (int sim = 0;; ++sim) {
    const int needed = args_.trace ? 2 : 1;
    if (sim >= needed && (now_ns() - start) * 1e-9 >= args_.seconds) break;
    // Traced runs alternate with untraced ones so both see the same machine.
    const bool traced = args_.trace && sim % 2 == 1;
    attempt("simulation " + std::to_string(sim), [&] {
      SimOutcome o = simulate(spec_, args_.seed, spec_.rounds, kLanes,
                              traced ? Mode::kTraced : Mode::kTimed,
                              traced ? &trace_out_ : nullptr, sim,
                              traced_.empty());
      if (!digest) digest = o.digest;
      require(o.digest == *digest, "simulation digest differs between runs");
      require(check_.has_value(), "no self-test byte column to compare");
      for (std::size_t r = 0; r < kCheckRounds; ++r) {
        require(o.result.rounds[r].bytes_per_client ==
                    check_->result.rounds[r].bytes_per_client,
                "round " + std::to_string(r + 1) +
                    " bytes differ from the self-test run");
      }
      require(o.result.final_accuracy >= spec_.accuracy_floor,
              "final accuracy " + std::to_string(o.result.final_accuracy) +
                  " below the floor " + std::to_string(spec_.accuracy_floor));
      setups_.push_back(o.setup_s);
      (traced ? traced_ : untraced_).push_back(std::move(o));
    });
  }
  if (args_.trace) trace_out_ << "\n]}\n";
}

std::vector<double> rounds_of(const std::vector<SimOutcome>& sims) {
  std::vector<double> v;
  for (const SimOutcome& s : sims) {
    v.insert(v.end(), s.round_s.begin(), s.round_s.end());
  }
  return v;
}

std::vector<Metric> Benchmark::end_to_end() const {
  const std::vector<double> rounds = rounds_of(untraced_);
  double samples = 0, wall = 0;
  for (const SimOutcome& s : untraced_) {
    samples += s.samples;
    for (const double r : s.round_s) wall += r;
  }
  const Tail tail = tail_of(rounds);
  const fl::SimulationResult& result = untraced_.front().result;
  double bytes = 0;
  for (const fl::RoundRecord& r : result.rounds) bytes += r.bytes_per_client;
  std::cout << "rounds measured: " << rounds.size() << " over "
            << untraced_.size() << " simulations of " << spec_.rounds
            << " rounds (round 1 of each excluded); round_s.tail is p"
            << tail.percentile << "\n";
  // Reported, not bounded: the peak depends on which lane's malloc arena
  // served which client, so it moves by +-10% between runs of one seed.
  std::cout << "peak_rss_mb (unbounded) = " << peak_rss_mib() << " MiB\n";
  return {
      {"round_s.p50", median(rounds), "s"},
      {"round_s.tail", tail.value, "s"},
      {"train_samples_per_s", samples / wall, "samples/s"},
      {"setup_s", median(setups_), "s"},
      {"bytes_per_client", bytes / static_cast<double>(result.rounds.size()),
       "B/round"},
      {"final_accuracy", result.final_accuracy, "fraction"},
  };
}

std::vector<Metric> Benchmark::per_layer() {
  // Per-round means over the traced simulations' rounds 2..R.
  double n = 0, wall = 0, train = 0, strategy = 0, eval = 0, self = 0;
  double busy[kSpanKinds] = {}, forward_calls = 0;
  for (const SimOutcome& s : traced_) {
    for (const RoundPhases& p : s.phases) {
      ++n;
      wall += p.wall_s;
      train += p.train_s;
      strategy += p.strategy_s;
      eval += p.eval_s;
      self += p.runner_self_s;
      forward_calls += static_cast<double>(p.forward_calls);
      for (int k = 0; k < kSpanKinds; ++k) busy[k] += p.busy_s[k];
    }
  }
  require(n > 0, "no traced rounds");
  auto per_round = [&](double total) { return total / n; };
  auto kind = [&](SpanKind k) { return per_round(busy[static_cast<int>(k)]); };
  const double train_busy = kind(SpanKind::kGetBatch) +
                            kind(SpanKind::kForward) +
                            kind(SpanKind::kBackward) + kind(SpanKind::kStep);
  const double lane_capacity = static_cast<double>(kLanes) * per_round(train);
  const double sync = kind(SpanKind::kSynchronize);

  std::cout << "blocking path per round (mean of " << n << " traced rounds): "
            << "wall " << per_round(wall) << " s = train " << per_round(train)
            << " + strategy " << per_round(strategy) << " + eval "
            << per_round(eval) << " + runner self " << per_round(self)
            << "\n  train x " << kLanes << " lanes = " << lane_capacity
            << " lane-s = forward " << kind(SpanKind::kForward)
            << " + backward " << kind(SpanKind::kBackward) << " + step "
            << kind(SpanKind::kStep) << " + get_batch "
            << kind(SpanKind::kGetBatch) << " + idle/in-lane glue "
            << lane_capacity - train_busy << "\n";

  double staleness = 0, folded = 0;
  const fl::SimulationResult& result = traced_.front().result;
  for (const fl::RoundRecord& r : result.rounds) {
    for (const auto& entry : r.staleness) {
      staleness += static_cast<double>(entry.second);
      ++folded;
    }
  }
  const double untraced_p50 = median(rounds_of(untraced_));
  const double traced_p50 = median(rounds_of(traced_));
  std::cout << "tracing overhead: traced round_s.p50 " << traced_p50
            << " s - untraced " << untraced_p50 << " s\n";

  std::vector<Metric> m = {
      {"nn.forward_s", kind(SpanKind::kForward), "s/round"},
      {"nn.backward_s", kind(SpanKind::kBackward), "s/round"},
      {"nn.forward.calls", per_round(forward_calls), "count/round"},
      {"nn.eval_forward_s", kind(SpanKind::kEvalForward), "s/round"},
      {"optim.step_s", kind(SpanKind::kStep), "s/round"},
      {"data.get_batch_s", kind(SpanKind::kGetBatch), "s/round"},
      {"core.synchronize_s", spec_.strategy_module == "core" ? sync : 0.0,
       "s/round"},
      {"compress.synchronize_s",
       spec_.strategy_module == "compress" ? sync : 0.0, "s/round"},
      {"fl.encode_push_s", kind(SpanKind::kEncodePush), "s/round"},
      {"fl.runner.self_s", per_round(self), "s/round"},
      {"fl.serial_share", 1.0 - train / wall, "fraction"},
      {"util.pool.train_idle_share",
       lane_capacity > 0 ? (lane_capacity - train_busy) / lane_capacity : 0.0,
       "fraction"},
      {"core.frozen_fraction", result.mean_frozen_fraction, "fraction"},
      {"transport.staleness.mean", folded > 0 ? staleness / folded : 0.0,
       "rounds"},
      {"trace.overhead_s", traced_p50 - untraced_p50, "s"},
  };

  ProbeInputs in;
  in.workload = spec_.name;
  const Instance inst = make_instance(spec_, args_.seed, 1, 1);
  const std::unique_ptr<nn::Module> model = inst.model();
  in.model = model.get();
  in.batch = inst.config.batch_size;
  in.frozen_mask = traced_.back().frozen_mask;
  in.fold_clients = inst.config.num_clients;
  in.goal_k = inst.config.async_goal_k > 0 ? inst.config.async_goal_k
                                           : inst.config.num_clients;
  in.seed = args_.seed;
  for (Metric& p : run_probes(in)) m.push_back(std::move(p));
  return m;
}

int Benchmark::run() {
  std::cout << "apfbench workload=" << spec_.name << " seed=" << args_.seed
            << " lanes=" << kLanes << " seconds=" << args_.seconds
            << " trace=" << args_.trace << "\n";
  const std::int64_t t0 = now_ns();
  self_test();
  const std::int64_t t1 = now_ns();
  attempt("measurement", [&] { measure(); });
  std::cout << "self-test " << (t1 - t0) * 1e-9
            << " s, set-up runs and simulations " << (now_ns() - t1) * 1e-9
            << " s\n";
  std::vector<Metric> metrics;
  const bool have_runs = args_.trace ? !traced_.empty() && !untraced_.empty()
                                     : !untraced_.empty();
  if (have_runs) {
    attempt("metrics", [&] {
      metrics = args_.trace ? per_layer() : end_to_end();
    });
  } else {
    ++attempted_;
    ++failed_;
    std::cout << "FAILED: no simulation completed\n";
  }
  std::cout.precision(10);
  for (const Metric& m : metrics) {
    std::cout << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "failed " << failed_ << " of " << attempted_ << " runs ("
            << 100.0 * static_cast<double>(failed_) /
                   static_cast<double>(attempted_)
            << "%)\n";
  const bool correct = failed_ == 0;
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME --seed N --seconds S --trace 0|1"
               " [--trace-file PATH]\nworkloads:";
  for (const std::string& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace
}  // namespace apfbench

int main(int argc, char** argv) {
  using namespace apfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (key == "--trace-file") {
        args.trace_file = value;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || find_workload(args.workload) == nullptr ||
      !(args.seconds > 0)) {
    return usage(argv[0]);
  }
  if (args.trace && args.trace_file.empty()) {
    args.trace_file = "apfbench-trace-" + args.workload + "-seed" +
                      std::to_string(args.seed) + ".json";
  }
  return Benchmark(std::move(args)).run();
}
