// Span-based bottleneck attribution: folds the span ring into
// per-(phase, rank) compute/wait/IO time, per-phase critical path and
// straggler rank, per-rank utilization, and pipeline-bubble time for the
// Algorithm 5 phase loop — the paper's Section VII time-attribution
// exercise as a first-class artifact instead of an eyeballed chrome trace.
//
// Span taxonomy (see core/parda.hpp and comm/comm.hpp):
//   sections (top level, cover a rank's phase time):
//     "analyze"            compute on the rank's own chunk
//     "scatter"            phase intake: pipe read + chunk distribution (IO)
//     "infinity-pipeline"  Algorithm 3/5 merge rounds
//     "reduce"             per-phase state reduction (Algorithm 6)
//     "final-reduce"       end-of-run histogram/profile reduction
//   waits (nested inside sections): "recv-wait", "barrier-wait"
//
// Attribution semantics: a rank's `total` is its section coverage, `wait`
// the nested blocking time, and `self = total - wait` the time the rank
// spent making (or delaying) progress. The per-phase straggler is the rank
// with the largest SELF time: a rank held up by others shows large waits,
// the rank holding everyone up shows large self time — so a fault-injected
// delay on one rank is automatically named even though every rank's
// wall time inflates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span_tracer.hpp"

namespace parda::obs {

struct RankSlice {
  int rank = -1;
  std::uint64_t total_ns = 0;    // section span coverage
  std::uint64_t wait_ns = 0;     // nested recv-wait/barrier-wait time
  std::uint64_t self_ns = 0;     // total - wait (clamped at 0)
  std::uint64_t io_ns = 0;       // "scatter" section share of total
  std::uint64_t compute_ns = 0;  // "analyze" section share of total
};

struct PhaseReport {
  std::uint32_t phase = kNoPhase;  // kNoPhase = outside the phase loop
  std::int64_t t_begin_ns = 0;     // earliest section start in the phase
  std::int64_t t_end_ns = 0;       // latest section end
  std::uint64_t critical_path_ns = 0;  // max over ranks of total_ns
  int straggler_rank = -1;             // argmax over ranks of self_ns
  std::uint64_t straggler_self_ns = 0;
  std::uint64_t bubble_ns = 0;  // sum over ranks of (extent - total_ns)
  std::vector<RankSlice> ranks;
};

struct RankUtilization {
  int rank = -1;
  std::uint64_t busy_ns = 0;  // section coverage across all phases
  std::uint64_t wait_ns = 0;
  std::uint64_t self_ns = 0;
  double utilization = 0.0;  // self / report wall extent
};

class SpanReport {
 public:
  /// Builds the report from an event list — a tracer's events() or the
  /// hub's merged_events(). Call after the analysis has joined its ranks.
  static SpanReport from_events(const std::vector<SpanEvent>& events,
                                std::uint64_t spans_dropped = 0);

  /// Phases in execution order; the kNoPhase pseudo-phase (offline spans,
  /// final-reduce) sorts last.
  const std::vector<PhaseReport>& phases() const noexcept { return phases_; }
  const std::vector<RankUtilization>& ranks() const noexcept {
    return ranks_;
  }
  /// Wall extent covered by the report (max end - min start over events).
  std::uint64_t wall_ns() const noexcept { return wall_ns_; }
  /// The rank with the largest total self time, or -1 when empty.
  int straggler_rank() const noexcept { return straggler_rank_; }
  std::uint64_t spans_dropped() const noexcept { return spans_dropped_; }

  /// Cross-process error bar: when the report was built from hub-merged
  /// events, the largest clock-handshake uncertainty among the remote
  /// processes whose spans it contains (0 for single-process reports).
  /// Timing differences below this are not attributable.
  std::int64_t clock_uncertainty_ns() const noexcept {
    return clock_uncertainty_ns_;
  }
  void set_clock_uncertainty_ns(std::int64_t ns) noexcept {
    clock_uncertainty_ns_ = ns;
  }

  /// "parda.spanreport.v1" JSON.
  std::string to_json() const;
  /// Aligned text tables (per-rank utilization + per-phase attribution).
  std::string to_table() const;

 private:
  std::vector<PhaseReport> phases_;
  std::vector<RankUtilization> ranks_;
  std::uint64_t wall_ns_ = 0;
  int straggler_rank_ = -1;
  std::uint64_t spans_dropped_ = 0;
  std::int64_t clock_uncertainty_ns_ = 0;
};

}  // namespace parda::obs
