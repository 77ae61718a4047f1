#include "obs/report.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "util/json.hpp"
#include "util/table.hpp"

namespace parda::obs {

namespace {

bool is_wait_op(const char* op) noexcept {
  return std::strcmp(op, "recv-wait") == 0 ||
         std::strcmp(op, "barrier-wait") == 0;
}

bool is_io_op(const char* op) noexcept {
  return std::strcmp(op, "scatter") == 0;
}

bool is_compute_op(const char* op) noexcept {
  return std::strcmp(op, "analyze") == 0;
}

std::uint64_t span_ns(const SpanEvent& e) noexcept {
  return e.t_end_ns > e.t_start_ns
             ? static_cast<std::uint64_t>(e.t_end_ns - e.t_start_ns)
             : 0;
}

struct SliceAccum {
  RankSlice slice;
  bool seen = false;
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string phase_name(std::uint32_t phase) {
  return phase == kNoPhase ? std::string("-") : std::to_string(phase);
}

}  // namespace

SpanReport SpanReport::from_events(const std::vector<SpanEvent>& events,
                                   std::uint64_t spans_dropped) {
  SpanReport r;
  r.spans_dropped_ = spans_dropped;

  // kNoPhase maps above every real phase so the pseudo-phase sorts last.
  auto phase_key = [](std::uint32_t phase) -> std::uint64_t {
    return phase == kNoPhase ? ~std::uint64_t{0}
                             : static_cast<std::uint64_t>(phase);
  };

  std::map<std::uint64_t, std::map<int, SliceAccum>> by_phase;
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> extents;
  std::map<int, RankUtilization> by_rank;
  std::int64_t wall_begin = 0;
  std::int64_t wall_end = 0;
  bool any = false;

  for (const SpanEvent& e : events) {
    const std::uint64_t dur = span_ns(e);
    const std::uint64_t key = phase_key(e.phase);
    auto& acc = by_phase[key][e.rank];
    acc.slice.rank = e.rank;
    auto& util = by_rank[e.rank];
    util.rank = e.rank;

    if (is_wait_op(e.op)) {
      // Waits nest inside sections: they refine the section time, they do
      // not add to it.
      acc.slice.wait_ns += dur;
      util.wait_ns += dur;
      continue;
    }
    acc.slice.total_ns += dur;
    util.busy_ns += dur;
    if (is_io_op(e.op)) acc.slice.io_ns += dur;
    if (is_compute_op(e.op)) acc.slice.compute_ns += dur;

    auto [it, inserted] =
        extents.try_emplace(key, e.t_start_ns, e.t_end_ns);
    if (!inserted) {
      it->second.first = std::min(it->second.first, e.t_start_ns);
      it->second.second = std::max(it->second.second, e.t_end_ns);
    }
    if (!acc.seen) acc.seen = true;
    if (!any) {
      wall_begin = e.t_start_ns;
      wall_end = e.t_end_ns;
      any = true;
    } else {
      wall_begin = std::min(wall_begin, e.t_start_ns);
      wall_end = std::max(wall_end, e.t_end_ns);
    }
  }
  if (any && wall_end > wall_begin)
    r.wall_ns_ = static_cast<std::uint64_t>(wall_end - wall_begin);

  for (auto& [key, ranks] : by_phase) {
    PhaseReport phase;
    phase.phase = key == ~std::uint64_t{0}
                      ? kNoPhase
                      : static_cast<std::uint32_t>(key);
    const auto ext_it = extents.find(key);
    const std::int64_t ext_begin =
        ext_it != extents.end() ? ext_it->second.first : 0;
    const std::int64_t ext_end =
        ext_it != extents.end() ? ext_it->second.second : 0;
    phase.t_begin_ns = ext_begin;
    phase.t_end_ns = ext_end;
    const std::uint64_t extent =
        ext_end > ext_begin ? static_cast<std::uint64_t>(ext_end - ext_begin)
                            : 0;

    for (auto& [rank, acc] : ranks) {
      RankSlice slice = acc.slice;
      slice.self_ns =
          slice.total_ns > slice.wait_ns ? slice.total_ns - slice.wait_ns : 0;
      phase.critical_path_ns = std::max(phase.critical_path_ns,
                                        slice.total_ns);
      if (slice.self_ns > phase.straggler_self_ns ||
          phase.straggler_rank < 0) {
        phase.straggler_self_ns = slice.self_ns;
        phase.straggler_rank = slice.rank;
      }
      if (extent > slice.total_ns)
        phase.bubble_ns += extent - slice.total_ns;
      phase.ranks.push_back(slice);
    }
    r.phases_.push_back(std::move(phase));
  }

  std::uint64_t best_self = 0;
  for (auto& [rank, util] : by_rank) {
    util.self_ns =
        util.busy_ns > util.wait_ns ? util.busy_ns - util.wait_ns : 0;
    util.utilization =
        r.wall_ns_ > 0
            ? static_cast<double>(util.self_ns) /
                  static_cast<double>(r.wall_ns_)
            : 0.0;
    if (r.straggler_rank_ < 0 || util.self_ns > best_self) {
      best_self = util.self_ns;
      r.straggler_rank_ = util.rank;
    }
    r.ranks_.push_back(util);
  }
  return r;
}

std::string SpanReport::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("parda.spanreport.v1");
  w.key("wall_ns").value(wall_ns_);
  w.key("straggler_rank").value(straggler_rank_);
  w.key("spans_dropped").value(spans_dropped_);
  w.key("clock_uncertainty_ns").value(clock_uncertainty_ns_);

  w.key("ranks").begin_array();
  for (const RankUtilization& u : ranks_) {
    w.begin_object();
    w.key("rank").value(u.rank);
    w.key("busy_ns").value(u.busy_ns);
    w.key("wait_ns").value(u.wait_ns);
    w.key("self_ns").value(u.self_ns);
    w.key("utilization").value(u.utilization);
    w.end_object();
  }
  w.end_array();

  w.key("phases").begin_array();
  for (const PhaseReport& p : phases_) {
    w.begin_object();
    if (p.phase == kNoPhase) {
      w.key("phase").null();
    } else {
      w.key("phase").value(static_cast<std::uint64_t>(p.phase));
    }
    w.key("t_begin_ns").value(p.t_begin_ns);
    w.key("t_end_ns").value(p.t_end_ns);
    w.key("critical_path_ns").value(p.critical_path_ns);
    w.key("straggler_rank").value(p.straggler_rank);
    w.key("straggler_self_ns").value(p.straggler_self_ns);
    w.key("bubble_ns").value(p.bubble_ns);
    w.key("ranks").begin_array();
    for (const RankSlice& s : p.ranks) {
      w.begin_object();
      w.key("rank").value(s.rank);
      w.key("total_ns").value(s.total_ns);
      w.key("wait_ns").value(s.wait_ns);
      w.key("self_ns").value(s.self_ns);
      w.key("io_ns").value(s.io_ns);
      w.key("compute_ns").value(s.compute_ns);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string SpanReport::to_table() const {
  std::string out;
  out += "span report: wall " + TablePrinter::fmt(ms(wall_ns_)) + " ms";
  if (straggler_rank_ >= 0)
    out += ", straggler rank " + std::to_string(straggler_rank_);
  if (spans_dropped_ > 0)
    out += ", " + std::to_string(spans_dropped_) + " spans dropped";
  if (clock_uncertainty_ns_ > 0)
    out += ", clock uncertainty +/-" +
           TablePrinter::fmt(ms(
               static_cast<std::uint64_t>(clock_uncertainty_ns_))) +
           " ms";
  out += "\n\n";

  TablePrinter ranks({"rank", "busy_ms", "wait_ms", "self_ms", "util_%"});
  for (const RankUtilization& u : ranks_) {
    ranks.add_row({u.rank < 0 ? std::string("driver") : std::to_string(u.rank),
                   TablePrinter::fmt(ms(u.busy_ns)),
                   TablePrinter::fmt(ms(u.wait_ns)),
                   TablePrinter::fmt(ms(u.self_ns)),
                   TablePrinter::fmt(u.utilization * 100.0, 1)});
  }
  out += ranks.str();
  out += '\n';

  TablePrinter phases({"phase", "extent_ms", "crit_ms", "bubble_ms",
                       "straggler", "straggler_self_ms"});
  for (const PhaseReport& p : phases_) {
    const std::uint64_t extent =
        p.t_end_ns > p.t_begin_ns
            ? static_cast<std::uint64_t>(p.t_end_ns - p.t_begin_ns)
            : 0;
    phases.add_row(
        {phase_name(p.phase), TablePrinter::fmt(ms(extent)),
         TablePrinter::fmt(ms(p.critical_path_ns)),
         TablePrinter::fmt(ms(p.bubble_ns)),
         p.straggler_rank < 0 ? std::string("-")
                              : std::to_string(p.straggler_rank),
         TablePrinter::fmt(ms(p.straggler_self_ns))});
  }
  out += phases.str();
  return out;
}

}  // namespace parda::obs
