#include "comm/worker_pool.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "obs/log.hpp"
#include "obs/runtime.hpp"
#include "util/timer.hpp"

namespace parda::comm {

namespace {

/// Pre-resolved handles for the pool's own lifecycle metrics (cold paths:
/// admission, spawn, park/unpark — never inside a rank body).
struct PoolCounters {
  obs::Counter& jobs;
  obs::Counter& worlds_created;
  obs::Counter& world_reuses;
  obs::Counter& workers_spawned;
  obs::TimerHistogram& admission_wait;
  obs::TimerHistogram& park_wait;
  // Job-scoped gauges, re-published at every admission (see DESIGN.md
  // "Live telemetry & attribution"): `last` describes the current/most
  // recent job, `max` the pool's lifetime high-water mark.
  obs::Gauge& job_np;
  obs::Gauge& pool_capacity;
  obs::Gauge& world_generation;
};

PoolCounters& pool_counters() {
  static PoolCounters counters{
      obs::registry().counter("runtime.jobs"),
      obs::registry().counter("runtime.worlds_created"),
      obs::registry().counter("runtime.world_reuses"),
      obs::registry().counter("runtime.workers_spawned"),
      obs::registry().timer("runtime.admission_wait"),
      obs::registry().timer("runtime.park_wait"),
      obs::registry().gauge("runtime.job_np"),
      obs::registry().gauge("runtime.pool_capacity"),
      obs::registry().gauge("runtime.world_generation"),
  };
  return counters;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Two-sample stall detection (moved here from the per-run watchdog thread
/// that comm::run used to spawn): a stall is every rank either exited or
/// parked in the same blocking wait across two consecutive samples — the
/// epoch, bumped on every block entry, pins "same wait" down — with at
/// least one rank actually blocked. A rank that made any progress between
/// samples has a new epoch, so a busy-but-slow job never trips this.
class StallDetector {
 public:
  explicit StallDetector(int np)
      : prev_epoch_(static_cast<std::size_t>(np), 0) {}

  bool sample(detail::World& world) {
    const int np = world.size();
    bool all_stuck = true;
    bool any_blocked = false;
    std::vector<std::uint64_t> epoch(static_cast<std::size_t>(np), 0);
    for (int r = 0; r < np; ++r) {
      const auto& b = world.board(r);
      epoch[static_cast<std::size_t>(r)] =
          b.epoch.load(std::memory_order_relaxed);
      if (b.done.load(std::memory_order_acquire)) continue;
      if (b.op.load(std::memory_order_acquire) == 0 ||
          (have_prev_ && epoch[static_cast<std::size_t>(r)] !=
                             prev_epoch_[static_cast<std::size_t>(r)])) {
        all_stuck = false;
      } else {
        any_blocked = true;
      }
    }
    const bool stalled = have_prev_ && all_stuck && any_blocked;
    prev_epoch_ = std::move(epoch);
    have_prev_ = true;
    return stalled;
  }

 private:
  std::vector<std::uint64_t> prev_epoch_;
  bool have_prev_ = false;
};

/// Runs fn on destruction — keeps the admission ticket moving even when
/// the job (or the pool plumbing) throws.
template <typename Fn>
class Finally {
 public:
  explicit Finally(Fn fn) : fn_(std::move(fn)) {}
  ~Finally() { fn_(); }
  Finally(const Finally&) = delete;
  Finally& operator=(const Finally&) = delete;

 private:
  Fn fn_;
};

/// Rethrow policy shared with the historical comm::run contract: prefer
/// the root cause. Secondary failures are the RankAbortedErrors thrown by
/// ranks the origin's poisoning woke up.
void rethrow_root_cause(const std::vector<std::exception_ptr>& errors) {
  std::exception_ptr first;
  std::exception_ptr first_root;
  for (const std::exception_ptr& e : errors) {
    if (!e) continue;
    if (!first) first = e;
    if (!first_root) {
      try {
        std::rethrow_exception(e);
      } catch (const RankAbortedError&) {
        // secondary: keep looking for the originating exception
      } catch (...) {
        first_root = e;
      }
    }
  }
  if (first_root) std::rethrow_exception(first_root);
  if (first) std::rethrow_exception(first);
}

}  // namespace

WorkerPool::WorkerPool(int initial_workers) {
  PARDA_CHECK(initial_workers >= 0);
  if (initial_workers > 0) {
    // Constructor runs before any run_job can race; no admission needed.
    ensure_workers(initial_workers);
  }
}

WorkerPool::~WorkerPool() {
  {
    // Drain the admission queue: take a ticket and never release it, so
    // any job admitted before destruction finishes first.
    std::unique_lock lock(admit_mu_);
    const std::uint64_t ticket = next_ticket_++;
    admit_cv_.wait(lock, [&] { return serving_ == ticket; });
  }
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    w->seq.fetch_add(1, std::memory_order_release);
    w->seq.notify_one();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  {
    std::lock_guard lock(svc_mu_);
    svc_stop_ = true;
  }
  svc_cv_.notify_all();
  if (service_.joinable()) service_.join();
}

RunStats WorkerPool::run_job(int np, const std::function<void(Comm&)>& fn,
                             const RunOptions& options) {
  PARDA_CHECK_MSG(np >= 1, "run_job needs np >= 1, got %d", np);
  if (options.transport.distributed()) {
    // One rank per process: the body runs inline on the calling thread
    // against a per-call World; there is nothing for the pool to schedule.
    return detail::run_distributed(np, fn, options);
  }

  // --- FIFO admission: one job owns the pool at a time. -------------------
  const bool timed = obs::enabled();
  const auto admit_t0 = std::chrono::steady_clock::now();
  {
    std::unique_lock lock(admit_mu_);
    const std::uint64_t ticket = next_ticket_++;
    admit_cv_.wait(lock, [&] { return serving_ == ticket; });
  }
  // Released on every exit, including a World that fails to build.
  const Finally release_slot([&] {
    {
      std::lock_guard lock(admit_mu_);
      ++serving_;
    }
    admit_cv_.notify_all();
  });
  // Workers and the world cache are touched only by the serving ticket, so
  // they need no lock.
  ensure_workers(np);
  detail::World* const world = &acquire_world(np, options.transport);
  if (timed) {
    auto& c = pool_counters();
    c.admission_wait.record_ns(elapsed_ns(admit_t0));
    c.job_np.set(static_cast<std::uint64_t>(np));
    c.pool_capacity.set(
        static_cast<std::uint64_t>(capacity_.load(std::memory_order_acquire)));
    c.world_generation.set(world->generation());
  }

  // --- Publish the job and wake its rank slots. ---------------------------
  RunStats stats;
  stats.ranks.resize(static_cast<std::size_t>(np));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(np));
  job_.np = np;
  job_.fn = &fn;
  job_.options = &options;
  job_.world = world;
  job_.stats = &stats;
  job_.errors = &errors;
  job_.remaining.store(np, std::memory_order_relaxed);

  const bool watchdog = options.watchdog_interval.count() > 0;
  if (watchdog) watchdog_arm(*world, options.watchdog_interval);
  const Finally disarm([&] {
    if (watchdog) watchdog_disarm();
  });

  WallTimer wall;
  for (int r = 0; r < np; ++r) {
    // The release store publishes every job_ field written above to the
    // worker's matching acquire; each worker has its own slot, so the
    // wakeup is targeted.
    workers_[static_cast<std::size_t>(r)]->seq.fetch_add(
        1, std::memory_order_release);
    workers_[static_cast<std::size_t>(r)]->seq.notify_one();
  }

  // --- Wait for the last participant (futex-style, no mutex). ------------
  for (int left = job_.remaining.load(std::memory_order_acquire); left != 0;
       left = job_.remaining.load(std::memory_order_acquire)) {
    job_.remaining.wait(left, std::memory_order_acquire);
  }
  stats.wall_seconds = wall.seconds();

  jobs_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) pool_counters().jobs.add(1);

  rethrow_root_cause(errors);
  return stats;
}

void WorkerPool::worker_main(Worker& self, int index) {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t cur = self.seq.load(std::memory_order_acquire);
    if (cur == seen) {
      // Park until this slot is handed a job (or shutdown). The value
      // check makes a missed notify impossible; spurious wakeups re-park.
      const bool timed = obs::enabled();
      const auto park_t0 = std::chrono::steady_clock::now();
      do {
        self.seq.wait(seen, std::memory_order_acquire);
        cur = self.seq.load(std::memory_order_acquire);
      } while (cur == seen);
      if (timed) pool_counters().park_wait.record_ns(elapsed_ns(park_t0));
    }
    seen = cur;
    if (stop_.load(std::memory_order_acquire)) return;

    Job& job = job_;
    {
      // Re-tag this worker's metrics/span shard with its rank for the
      // duration of the job.
      obs::ScopedThreadRank obs_rank(index);
      RankStats& rank_stats =
          job.stats->ranks[static_cast<std::size_t>(index)];
      Comm comm(*job.world, index, rank_stats, job.options->fault_plan,
                job.options->op_timeout);
      ThreadCpuTimer cpu;
      try {
        (*job.fn)(comm);
      } catch (...) {
        (*job.errors)[static_cast<std::size_t>(index)] =
            std::current_exception();
        job.world->abort(index,
                         detail::describe_exception(
                             (*job.errors)[static_cast<std::size_t>(index)]));
      }
      job.world->board(index).done.store(true, std::memory_order_release);
      rank_stats.busy_seconds = cpu.seconds();
    }
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      job.remaining.notify_all();  // the submitter is the only waiter
    }
  }
}

void WorkerPool::ensure_workers(int np) {
  while (static_cast<int>(workers_.size()) < np) {
    const int index = static_cast<int>(workers_.size());
    workers_.push_back(std::make_unique<Worker>());
    Worker& ref = *workers_.back();
    ref.thread = std::thread([this, &ref, index] { worker_main(ref, index); });
    capacity_.fetch_add(1, std::memory_order_release);
    if (obs::enabled()) pool_counters().workers_spawned.add(1);
  }
}

detail::World& WorkerPool::acquire_world(int np, const TransportSpec& spec) {
  const std::pair<int, std::string> key(np, spec.signature());
  auto it = worlds_.find(key);
  if (it != worlds_.end()) {
    // Generation bump instead of reallocation: mailbox buckets, rank
    // boards, and the transport's rings/sockets keep their state across
    // jobs.
    it->second->reset();
    world_reuses_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) pool_counters().world_reuses.add(1);
    return *it->second;
  }
  auto inserted =
      worlds_.emplace(key, std::make_unique<detail::World>(np, spec));
  worlds_created_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) pool_counters().worlds_created.add(1);
  return *inserted.first->second;
}

void WorkerPool::watchdog_arm(detail::World& world,
                              std::chrono::milliseconds interval) {
  std::lock_guard lock(svc_mu_);
  svc_world_ = &world;
  svc_interval_ = interval;
  if (!service_.joinable()) {
    service_ = std::thread([this] { service_main(); });
  }
  svc_cv_.notify_all();
}

void WorkerPool::watchdog_disarm() {
  std::unique_lock lock(svc_mu_);
  svc_world_ = nullptr;
  svc_cv_.notify_all();
  // A late sample must never poison the next job's (reused) World: wait
  // until the service thread has left its sampling loop.
  svc_cv_.wait(lock, [&] { return !svc_busy_; });
}

void WorkerPool::service_main() {
  std::unique_lock lock(svc_mu_);
  for (;;) {
    svc_cv_.wait(lock, [&] { return svc_stop_ || svc_world_ != nullptr; });
    if (svc_stop_) return;
    svc_busy_ = true;
    detail::World* world = svc_world_;
    StallDetector detector(world->size());
    while (!svc_stop_ && svc_world_ == world && !world->aborted()) {
      svc_cv_.wait_for(lock, svc_interval_);
      if (svc_stop_ || svc_world_ != world || world->aborted()) break;
      if (detector.sample(*world)) {
        const std::string report = world->stall_report();
        obs::log(obs::LogLevel::kWarn, "watchdog.stall")
            .field("np", world->size())
            .field("report", report);
        world->abort(kWatchdogOrigin, report);
        break;
      }
    }
    // Retire the task so the outer wait does not re-enter a finished (e.g.
    // aborted) episode before the job's disarm lands.
    if (svc_world_ == world) svc_world_ = nullptr;
    svc_busy_ = false;
    svc_cv_.notify_all();
  }
}

int WorkerPool::capacity() const noexcept {
  return capacity_.load(std::memory_order_acquire);
}

std::uint64_t WorkerPool::jobs_run() const noexcept {
  return jobs_.load(std::memory_order_relaxed);
}

std::uint64_t WorkerPool::worlds_created() const noexcept {
  return worlds_created_.load(std::memory_order_relaxed);
}

std::uint64_t WorkerPool::world_reuses() const noexcept {
  return world_reuses_.load(std::memory_order_relaxed);
}

bool WorkerPool::watchdog_armed() const noexcept {
  std::lock_guard lock(svc_mu_);
  return svc_world_ != nullptr;
}

}  // namespace parda::comm
