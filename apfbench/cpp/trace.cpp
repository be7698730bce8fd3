#include "trace.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace apfbench {

namespace {

std::atomic<std::uint64_t> g_next_recorder_id{1};

// Which recorder this thread last registered with, and its log there. A new
// Recorder gets a new id, so a stale cache from an earlier run never matches.
struct LaneCache {
  std::uint64_t owner = 0;
  LaneLog* log = nullptr;
};
thread_local LaneCache t_lane_cache;

bool is_training_kind(SpanKind kind) {
  return kind == SpanKind::kGetBatch || kind == SpanKind::kForward ||
         kind == SpanKind::kBackward || kind == SpanKind::kStep;
}

bool is_strategy_kind(SpanKind kind) {
  return kind == SpanKind::kSynchronize || kind == SpanKind::kEncodePush;
}

struct Interval {
  std::int64_t start = std::numeric_limits<std::int64_t>::max();
  std::int64_t end = std::numeric_limits<std::int64_t>::min();
  bool empty() const { return start > end; }
  void cover(const Span& s) {
    start = std::min(start, s.start_ns);
    end = std::max(end, s.end_ns);
  }
  double seconds() const { return empty() ? 0.0 : (end - start) * 1e-9; }
};

bool overlaps(std::int64_t a0, std::int64_t a1, std::int64_t b0,
              std::int64_t b1) {
  return a0 < b1 && b0 < a1;
}

// Spans grouped by round id (index = round; round 0 is unused).
std::vector<std::vector<Span>> spans_by_round(const Recorder& rec) {
  const std::size_t rounds =
      rec.boundaries().empty() ? 0 : rec.boundaries().size() - 1;
  std::vector<std::vector<Span>> by_round(rounds + 1);
  for (const auto& lane : rec.lanes()) {
    for (const Span& s : lane->spans) {
      if (s.round >= 1 && s.round <= rounds) by_round[s.round].push_back(s);
    }
  }
  for (auto& spans : by_round) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start_ns < b.start_ns;
    });
  }
  return by_round;
}

}  // namespace

const char* span_name(SpanKind kind, const std::string& strategy_module) {
  switch (kind) {
    case SpanKind::kGetBatch:
      return "data.get_batch";
    case SpanKind::kForward:
      return "nn.forward";
    case SpanKind::kBackward:
      return "nn.backward";
    case SpanKind::kStep:
      return "optim.step";
    case SpanKind::kEvalForward:
      return "nn.eval_forward";
    case SpanKind::kSynchronize:
      return strategy_module == "compress" ? "compress.synchronize"
                                           : "core.synchronize";
    case SpanKind::kEncodePush:
      return "fl.encode_push";
  }
  return "unknown";
}

Recorder::Recorder(bool tracing, bool stop_at_first_forward)
    : tracing_(tracing),
      stop_at_first_forward_(stop_at_first_forward),
      id_(g_next_recorder_id.fetch_add(1)) {}

LaneLog& Recorder::lane() {
  if (t_lane_cache.owner == id_) return *t_lane_cache.log;
  std::lock_guard<std::mutex> lock(lanes_mu_);
  lanes_.push_back(std::make_unique<LaneLog>());
  lanes_.back()->lane = static_cast<std::uint32_t>(lanes_.size() - 1);
  t_lane_cache = {id_, lanes_.back().get()};
  return *t_lane_cache.log;
}

void Recorder::record(SpanKind kind, std::int64_t start_ns,
                      std::int64_t end_ns) {
  LaneLog& log = lane();
  log.spans.push_back({start_ns, end_ns, round(), log.lane, kind});
}

void Recorder::note_training_forward(std::size_t samples) {
  if (first_forward_ns_.load(std::memory_order_relaxed) == 0) {
    std::int64_t unset = 0;
    first_forward_ns_.compare_exchange_strong(unset, now_ns());
  }
  if (stop_at_first_forward_) throw SetupDone{};
  LaneLog& log = lane();
  const std::uint32_t r = round();
  if (log.samples_by_round.size() <= r) log.samples_by_round.resize(r + 1, 0);
  log.samples_by_round[r] += samples;
}

void Recorder::end_round(std::uint32_t round) {
  if (boundaries_ns_.size() != round) {
    throw std::runtime_error("round observer out of order at round " +
                             std::to_string(round));
  }
  boundaries_ns_.push_back(now_ns());
  round_.store(round + 1, std::memory_order_relaxed);
}

std::vector<RoundPhases> round_phases(const Recorder& rec) {
  const auto by_round = spans_by_round(rec);
  const auto& b = rec.boundaries();
  std::vector<RoundPhases> out;
  for (std::size_t r = 2; r < by_round.size(); ++r) {
    RoundPhases p;
    p.round = static_cast<std::uint32_t>(r);
    const std::int64_t r0 = b[r - 1], r1 = b[r];
    p.wall_s = (r1 - r0) * 1e-9;
    Interval train, eval;
    std::vector<const Span*> strategy;
    for (const Span& s : by_round[r]) {
      if (s.start_ns < r0 || s.end_ns > r1 || s.end_ns < s.start_ns) {
        p.nested = false;
      }
      p.busy_s[static_cast<int>(s.kind)] += (s.end_ns - s.start_ns) * 1e-9;
      if (is_training_kind(s.kind)) train.cover(s);
      if (s.kind == SpanKind::kForward) ++p.forward_calls;
      if (s.kind == SpanKind::kEvalForward) eval.cover(s);
      if (is_strategy_kind(s.kind)) {
        p.strategy_s += (s.end_ns - s.start_ns) * 1e-9;
        strategy.push_back(&s);
      }
    }
    // The phases run one after another on the coordinator, so they must
    // not overlap each other (strategy spans are already start-sorted).
    if (!train.empty() && !eval.empty() &&
        overlaps(train.start, train.end, eval.start, eval.end)) {
      p.nested = false;
    }
    for (std::size_t i = 0; i < strategy.size(); ++i) {
      const Span& s = *strategy[i];
      if (i + 1 < strategy.size() && s.end_ns > strategy[i + 1]->start_ns) {
        p.nested = false;
      }
      for (const Interval* phase : {&train, &eval}) {
        if (!phase->empty() &&
            overlaps(s.start_ns, s.end_ns, phase->start, phase->end)) {
          p.nested = false;
        }
      }
    }
    p.train_s = train.seconds();
    p.eval_s = eval.seconds();
    p.runner_self_s = p.wall_s - p.train_s - p.strategy_s - p.eval_s;
    if (p.runner_self_s < 0) p.nested = false;
    out.push_back(p);
  }
  return out;
}

void write_trace_json(std::ostream& out, const Recorder& rec, int sim,
                      const std::string& strategy_module, bool first) {
  const auto by_round = spans_by_round(rec);
  const auto& b = rec.boundaries();
  const std::int64_t t0 = rec.workload_start_ns();
  long long next_id = 0;
  bool first_span = true;
  auto emit = [&](const char* name, std::int64_t start, std::int64_t end,
                  long long parent, long long lane, std::size_t round) {
    out << (first_span ? "\n" : ",\n") << "    {\"id\": " << next_id
        << ", \"name\": \"" << name << "\", \"start_ns\": " << start - t0
        << ", \"end_ns\": " << end - t0 << ", \"parent\": ";
    if (parent < 0) {
      out << "null";
    } else {
      out << parent;
    }
    out << ", \"lane\": " << lane << ", \"round\": " << round << "}";
    first_span = false;
    return next_id++;
  };
  out << (first ? "" : ",\n") << "  {\"sim\": " << sim
      << ", \"setup_ns\": " << rec.first_forward_ns() - t0
      << ", \"spans\": [";
  for (std::size_t r = 1; r < by_round.size(); ++r) {
    const long long round_id = emit("round", b[r - 1], b[r], -1, -1, r);
    Interval train, eval;
    for (const Span& s : by_round[r]) {
      if (is_training_kind(s.kind)) train.cover(s);
      if (s.kind == SpanKind::kEvalForward) eval.cover(s);
    }
    const long long train_id =
        train.empty() ? -1
                      : emit("train", train.start, train.end, round_id, -1, r);
    const long long eval_id =
        eval.empty() ? -1 : emit("eval", eval.start, eval.end, round_id, -1, r);
    for (const Span& s : by_round[r]) {
      const long long parent = is_training_kind(s.kind) ? train_id
                               : s.kind == SpanKind::kEvalForward ? eval_id
                                                                  : round_id;
      emit(span_name(s.kind, strategy_module), s.start_ns, s.end_ns, parent,
           s.lane, r);
    }
  }
  out << "\n  ]}";
}

}  // namespace apfbench
