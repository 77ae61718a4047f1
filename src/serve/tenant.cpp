#include "serve/tenant.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace parda::serve {

namespace {

/// FNV-1a over the tenant name: a stable per-tenant sampler seed, so a
/// degraded tenant's histogram is reproducible run to run (the chaos test
/// compares against a solo rerun) without correlating sampling decisions
/// across tenants.
std::uint64_t name_seed(const std::string& name) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h | 1;  // never zero
}

}  // namespace

const char* to_string(TenantMode mode) noexcept {
  switch (mode) {
    case TenantMode::kExact:
      return "exact";
    case TenantMode::kDegraded:
      return "degraded";
    case TenantMode::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

TenantSession::TenantSession(std::string name, core::PardaRuntime& runtime,
                             const TenantConfig& config)
    : name_(std::move(name)), config_(config) {
  PARDA_CHECK(config_.window >= 1);
  PARDA_CHECK(config_.quotas.sampler_tracked >= 1);
  monitor_ = std::make_unique<WindowedMrcMonitor>(
      runtime, config_.bound, config_.window, config_.decay,
      config_.num_procs);
  if (config_.fault_plan != nullptr) {
    monitor_->options().run_options.fault_plan = config_.fault_plan;
  }
}

void TenantSession::feed(std::span<const Addr> refs) {
  PARDA_CHECK(mode_ != TenantMode::kQuarantined);
  if (mode_ == TenantMode::kExact) {
    try {
      monitor_->feed(refs);
    } catch (...) {
      ++aborts_;
      // The monitor dropped the aborted window and stays usable; seen_
      // counts the whole batch because admission accepted it.
      seen_ += refs.size();
      throw;
    }
    seen_ += refs.size();
    return;
  }
  // Degraded: sample inline, rolling windows at the same reference counts
  // the exact pipeline would.
  while (!refs.empty()) {
    const std::uint64_t room = config_.window - window_fill_;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(room, refs.size()));
    sampler_->process_block(refs.first(take));
    window_fill_ += take;
    seen_ += take;
    refs = refs.subspan(take);
    if (window_fill_ == config_.window) roll_degraded_window();
  }
}

bool TenantSession::try_consume(std::size_t n,
                                std::chrono::steady_clock::time_point now) {
  const std::uint64_t limit = config_.quotas.max_refs_per_sec;
  if (limit == 0) return true;
  const auto cap = static_cast<double>(limit);
  if (!bucket_primed_) {
    bucket_primed_ = true;
    tokens_ = cap;
    last_refill_ = now;
  }
  const double elapsed =
      std::chrono::duration<double>(now - last_refill_).count();
  if (elapsed > 0.0) {
    tokens_ = std::min(cap, tokens_ + elapsed * cap);
    last_refill_ = now;
  }
  const auto need = static_cast<double>(n);
  if (need > tokens_) return false;
  tokens_ -= need;
  return true;
}

void TenantSession::degrade() {
  if (mode_ != TenantMode::kExact) return;
  // The exact pipeline gets one last exact look at its partial window; if
  // that job aborts, fall back to the completed-windows aggregate (the
  // partial window is dropped, same as any aborted window).
  try {
    aggregate_ = monitor_->snapshot();
  } catch (...) {
    ++aborts_;
    aggregate_ = monitor_->aggregate();
  }
  windows_base_ = monitor_->windows_completed();
  monitor_.reset();
  sampler_ = std::make_unique<FixedSizeSampler>(
      config_.quotas.sampler_tracked, /*distance_cap=*/config_.bound,
      /*rate=*/1.0, name_seed(name_));
  window_fill_ = 0;
  mode_ = TenantMode::kDegraded;
}

void TenantSession::quarantine() {
  if (mode_ == TenantMode::kQuarantined) return;
  if (mode_ == TenantMode::kExact) {
    // Never analyze the pending window here: the fault that caused the
    // quarantine would fire again on the drain path.
    aggregate_ = monitor_->aggregate();
    windows_base_ = monitor_->windows_completed();
    monitor_.reset();
  } else {
    // The sampler cannot abort; its partial window is safe to keep.
    decayed_fold(aggregate_, sampler_->take_window_histogram(),
                 config_.decay);
    sampler_.reset();
  }
  mode_ = TenantMode::kQuarantined;
}

Histogram TenantSession::snapshot() const {
  switch (mode_) {
    case TenantMode::kExact:
      return monitor_->snapshot();
    case TenantMode::kDegraded: {
      // The sampler's in-progress window, without consuming it. The
      // SHARDS_adj correction is only applied at window boundaries, so the
      // partial tail is a slight undercount of near-zero distances.
      Histogram combined = aggregate_;
      combined.merge(sampler_->histogram());
      return combined;
    }
    case TenantMode::kQuarantined:
      return aggregate_;
  }
  return aggregate_;
}

Histogram TenantSession::flush() {
  switch (mode_) {
    case TenantMode::kExact: {
      Histogram final_hist = monitor_->snapshot();
      aggregate_ = final_hist;
      return final_hist;
    }
    case TenantMode::kDegraded:
      if (window_fill_ > 0 || sampler_->sampled_references() > 0) {
        decayed_fold(aggregate_, sampler_->take_window_histogram(),
                     config_.decay);
        window_fill_ = 0;
      }
      return aggregate_;
    case TenantMode::kQuarantined:
      return aggregate_;
  }
  return aggregate_;
}

std::uint64_t TenantSession::windows_completed() const noexcept {
  if (mode_ == TenantMode::kExact) return monitor_->windows_completed();
  return windows_base_;
}

std::uint64_t TenantSession::pending_refs() const noexcept {
  switch (mode_) {
    case TenantMode::kExact:
      return monitor_->pending_refs();
    case TenantMode::kDegraded:
      return window_fill_;
    case TenantMode::kQuarantined:
      return 0;
  }
  return 0;
}

double TenantSession::sample_rate() const noexcept {
  return mode_ == TenantMode::kDegraded ? sampler_->rate() : 1.0;
}

std::uint64_t TenantSession::footprint_bytes() const noexcept {
  switch (mode_) {
    case TenantMode::kExact:
      return monitor_->footprint_bytes();
    case TenantMode::kDegraded:
      return sampler_->footprint_bytes() +
             static_cast<std::uint64_t>(aggregate_.counts().capacity()) * 8;
    case TenantMode::kQuarantined:
      return static_cast<std::uint64_t>(aggregate_.counts().capacity()) * 8;
  }
  return 0;
}

void TenantSession::roll_degraded_window() {
  decayed_fold(aggregate_, sampler_->take_window_histogram(), config_.decay);
  window_fill_ = 0;
  ++windows_base_;
}

}  // namespace parda::serve
