#include "comm/fault.hpp"

#include <climits>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace parda::comm {

namespace {

// splitmix64: the seed-expansion standard for deterministic test streams.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t parse_number(const std::string& value, const std::string& clause,
                           std::uint64_t max = UINT64_MAX) {
  const std::optional<std::uint64_t> v = parse_u64(value, max);
  PARDA_CHECK_MSG(v.has_value(), "bad number '%s' in fault clause '%s'",
                  value.c_str(), clause.c_str());
  return *v;
}

}  // namespace

const char* fault_op_name(FaultOp op) noexcept {
  switch (op) {
    case FaultOp::kSend:
      return "send";
    case FaultOp::kRecv:
      return "recv";
    case FaultOp::kBarrier:
      return "barrier";
    case FaultOp::kProducer:
      return "producer";
  }
  return "?";
}

std::string FaultPoint::describe() const {
  if (op == FaultOp::kProducer) {
    return "op=producer,after_words=" + std::to_string(after_words);
  }
  std::string s = "rank=" + std::to_string(rank) +
                  ",op=" + fault_op_name(op) + ",n=" + std::to_string(n);
  if (action == Action::kDelay) {
    s += ",action=delay,ms=" + std::to_string(delay_ms);
  }
  return s;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string_view clause_view : split(spec, ';')) {
    if (clause_view.empty()) continue;
    const std::string clause(clause_view);

    FaultPoint pt;
    bool have_rank = false;
    bool have_op = false;
    bool have_ms = false;
    for (const std::string_view kv : split(clause, ',')) {
      if (kv.empty()) continue;
      const std::size_t eq = kv.find('=');
      PARDA_CHECK_MSG(eq != std::string_view::npos,
                      "fault clause '%s' has key without '=value'",
                      clause.c_str());
      const std::string key(kv.substr(0, eq));
      const std::string value(kv.substr(eq + 1));
      if (key == "rank") {
        pt.rank = static_cast<int>(
            parse_number(value, clause, INT_MAX));
        have_rank = true;
      } else if (key == "op") {
        have_op = true;
        if (value == "send") {
          pt.op = FaultOp::kSend;
        } else if (value == "recv") {
          pt.op = FaultOp::kRecv;
        } else if (value == "barrier") {
          pt.op = FaultOp::kBarrier;
        } else if (value == "producer") {
          pt.op = FaultOp::kProducer;
        } else {
          PARDA_CHECK_MSG(false, "unknown op '%s' in fault clause '%s'",
                          value.c_str(), clause.c_str());
        }
      } else if (key == "n") {
        pt.n = parse_number(value, clause);
      } else if (key == "action") {
        if (value == "throw") {
          pt.action = FaultPoint::Action::kThrow;
        } else if (value == "delay") {
          pt.action = FaultPoint::Action::kDelay;
        } else {
          PARDA_CHECK_MSG(false, "unknown action '%s' in fault clause '%s'",
                          value.c_str(), clause.c_str());
        }
      } else if (key == "ms") {
        pt.delay_ms = parse_number(value, clause);
        have_ms = true;
      } else if (key == "after_words") {
        pt.after_words = parse_number(value, clause);
      } else {
        PARDA_CHECK_MSG(false, "unknown key '%s' in fault clause '%s'",
                        key.c_str(), clause.c_str());
      }
    }
    PARDA_CHECK_MSG(have_op, "fault clause '%s' is missing op=",
                    clause.c_str());
    PARDA_CHECK_MSG(pt.op == FaultOp::kProducer || have_rank,
                    "fault clause '%s' is missing rank=", clause.c_str());
    PARDA_CHECK_MSG(pt.action != FaultPoint::Action::kDelay || have_ms,
                    "fault clause '%s' has action=delay without ms=",
                    clause.c_str());
    plan.points_.push_back(pt);
  }
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed, int np, std::uint64_t max_n) {
  PARDA_CHECK_MSG(np >= 1, "np=%d must be positive", np);
  PARDA_CHECK_MSG(max_n >= 1, "max_n must be positive");
  std::uint64_t state = seed;
  FaultPoint pt;
  pt.rank = static_cast<int>(splitmix64(state) %
                             static_cast<std::uint64_t>(np));
  switch (splitmix64(state) % 3) {
    case 0:
      pt.op = FaultOp::kSend;
      break;
    case 1:
      pt.op = FaultOp::kRecv;
      break;
    default:
      pt.op = FaultOp::kBarrier;
      break;
  }
  pt.n = splitmix64(state) % max_n;
  FaultPlan plan;
  plan.points_.push_back(pt);
  return plan;
}

const FaultPoint* FaultPlan::match(int rank, FaultOp op,
                                   std::uint64_t n) const noexcept {
  for (const FaultPoint& pt : points_) {
    if (pt.op == op && pt.rank == rank && pt.n == n) return &pt;
  }
  return nullptr;
}

std::optional<std::uint64_t> FaultPlan::producer_fail_after() const noexcept {
  for (const FaultPoint& pt : points_) {
    if (pt.op == FaultOp::kProducer) return pt.after_words;
  }
  return std::nullopt;
}

std::string FaultPlan::describe() const {
  std::string s;
  for (const FaultPoint& pt : points_) {
    if (!s.empty()) s += ';';
    s += pt.describe();
  }
  return s;
}

}  // namespace parda::comm
