// In-memory span recorder for one federated simulation.
//
// The decorators (decorators.h) call into a Recorder around every call they
// wrap. Worker lanes write only to their own LaneLog, found through a
// thread-local cache, so recording takes no lock after a lane's first call.
// Round boundaries come from the runner's RoundObserver on the coordinating
// thread. Untraced runs keep only what the end-to-end metrics need (round
// boundaries, the first training forward, trained samples); traced runs also
// keep every span. Spans are written out after the run (write_trace_json).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace apfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Leaf span kinds, named by the module that owns the wrapped call.
enum class SpanKind : std::uint8_t {
  kGetBatch,     // data: Dataset::get_batch on a training lane
  kForward,      // nn: training-mode Module::forward
  kBackward,     // nn: Module::backward
  kStep,         // optim: Optimizer::step
  kEvalForward,  // nn: eval-mode Module::forward (evaluation replicas)
  kSynchronize,  // strategy: SyncStrategy::synchronize
  kEncodePush,   // fl: StreamSync::encode_push (async push path)
};
inline constexpr int kSpanKinds = 7;

const char* span_name(SpanKind kind, const std::string& strategy_module);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t round = 0;
  std::uint32_t lane = 0;
  SpanKind kind = SpanKind::kForward;
};

/// One thread's records. Only its owning thread writes it while the run is
/// in flight; the coordinator reads it after run() returns.
struct LaneLog {
  std::uint32_t lane = 0;
  std::vector<Span> spans;
  std::vector<std::uint64_t> samples_by_round;  // training samples per round
};

/// Thrown from the first training forward of a set-up-only run.
struct SetupDone {};

class Recorder {
 public:
  /// `stop_at_first_forward`: throw SetupDone from the first training
  /// forward, ending the run once its set-up is measured.
  explicit Recorder(bool tracing, bool stop_at_first_forward = false);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool tracing() const { return tracing_; }

  /// Round the simulation is in: 1 until the first observer call.
  std::uint32_t round() const {
    return round_.load(std::memory_order_relaxed);
  }

  /// Appends a finished span for the calling thread's lane.
  void record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns);

  /// Counts a training forward of `samples` rows; the first one also fixes
  /// the end of set-up.
  void note_training_forward(std::size_t samples);

  /// Start of the workload (before dataset synthesis).
  void mark_workload_start() { workload_start_ns_ = now_ns(); }
  /// Strategy init returned: round 1 starts.
  void mark_rounds_start() { boundaries_ns_.assign(1, now_ns()); }
  /// RoundObserver: round `round` has committed.
  void end_round(std::uint32_t round);

  std::int64_t workload_start_ns() const { return workload_start_ns_; }
  std::int64_t first_forward_ns() const {
    return first_forward_ns_.load(std::memory_order_relaxed);
  }
  /// boundaries[r - 1] .. boundaries[r] is round r.
  const std::vector<std::int64_t>& boundaries() const {
    return boundaries_ns_;
  }
  /// Every lane that recorded anything (read after the run).
  const std::vector<std::unique_ptr<LaneLog>>& lanes() const { return lanes_; }

 private:
  LaneLog& lane();

  const bool tracing_;
  const bool stop_at_first_forward_;
  const std::uint64_t id_;
  std::atomic<std::uint32_t> round_{1};
  std::atomic<std::int64_t> first_forward_ns_{0};
  std::int64_t workload_start_ns_ = 0;
  std::vector<std::int64_t> boundaries_ns_;  // coordinator thread only
  std::mutex lanes_mu_;                      // guards registration in lanes_
  std::vector<std::unique_ptr<LaneLog>> lanes_;
};

/// Per-round phase breakdown derived from a traced run's spans.
struct RoundPhases {
  std::uint32_t round = 0;
  double wall_s = 0;
  double train_s = 0;      // hull of the round's training-lane spans
  double strategy_s = 0;   // sum of synchronize / encode_push spans
  double eval_s = 0;       // hull of the round's eval-forward spans
  double runner_self_s = 0;  // wall minus the three phases above
  double busy_s[kSpanKinds] = {};  // lane-summed busy seconds per kind
  std::uint64_t forward_calls = 0;
  bool nested = true;  // every span inside the round, phases disjoint
};

/// Phases of rounds 2..R (round 1 carries set-up and is left out).
std::vector<RoundPhases> round_phases(const Recorder& rec);

/// Writes the run's spans, with synthesized round / train / eval parents,
/// as one JSON object. `sim` tags the simulation within the benchmark run.
void write_trace_json(std::ostream& out, const Recorder& rec, int sim,
                      const std::string& strategy_module, bool first);

}  // namespace apfbench
