// Persistent executor runtime for the comm layer.
//
// Historically every comm::run(np, fn) spawned np OS threads, built a fresh
// World (mailboxes, rank boards), joined everything at the end, and threw
// it all away — so repeated analyses (bench loops, online
// monitoring windows, many small traces) paid thread-creation and
// allocation churn on every call. WorkerPool extracts the thread lifecycle
// into a reusable runtime:
//
//  - Worker threads are spawned once (growing on demand up to the largest
//    np ever requested) and PARK between jobs on a futex-style
//    std::atomic::wait of their own per-slot sequence counter — no mutex,
//    no spin. Posting a job is one release increment + targeted notify per
//    participating slot, so workers outside the job's np never wake.
//  - Worlds are cached per (np, transport signature) and RESET between
//    jobs (generation bump: mailboxes drained, rank boards and abort state
//    cleared, transport quiesced and restarted) instead of reallocated, so
//    mailbox buckets, shm rings, and socket meshes keep their state across
//    jobs. Distributed transport specs bypass the pool entirely: run_job
//    delegates them to the inline one-rank-per-process runner.
//  - Jobs are admitted through a FIFO ticket queue: any number of threads
//    may call run_job concurrently and the pool time-multiplexes them,
//    one job at a time, in arrival order. Each job re-tags the worker
//    threads with its rank slots via obs::ScopedThreadRank.
//  - The stall watchdog is folded into ONE pool service thread (spawned
//    lazily on the first job that asks for it) instead of one watchdog
//    thread per run.
//
// Failure isolation: an abort (a rank body throwing, a watchdog firing, a
// deadline expiring) fails the JOB — run_job rethrows the root cause
// exactly like comm::run always did — and the pool stays healthy: the
// poisoned World is reset on the next admission and the workers are
// already parked waiting for it.
//
// comm::run(np, fn) is a thin wrapper that builds a transient pool, so
// one-shot call sites keep spawn/join semantics.
//
// Observability (enabled like all obs instrumentation): runtime.jobs,
// runtime.worlds_created / runtime.world_reuses, runtime.workers_spawned,
// and the runtime.admission_wait / runtime.park_wait timers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/comm.hpp"

namespace parda::comm {

class WorkerPool {
 public:
  /// Spawns `initial_workers` parked worker threads up front (0 = spawn
  /// lazily on first use). The pool grows to the largest np any job asks
  /// for and never shrinks.
  explicit WorkerPool(int initial_workers = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(comm) on np ranks and blocks until the job completes,
  /// returning the same RunStats as comm::run. Thread-safe: concurrent
  /// callers queue FIFO and time-multiplex the pool. If any rank throws,
  /// the job's World is poisoned and run_job rethrows the root cause after
  /// every participating rank has unwound — the pool itself stays usable.
  RunStats run_job(int np, const std::function<void(Comm&)>& fn,
                   const RunOptions& options = {});

  /// Worker threads currently alive (monotone; excludes the service
  /// thread).
  int capacity() const noexcept;
  /// Jobs completed over the pool's lifetime (successful or aborted).
  std::uint64_t jobs_run() const noexcept;
  /// Worlds constructed / reused from the per-np cache.
  std::uint64_t worlds_created() const noexcept;
  std::uint64_t world_reuses() const noexcept;
  /// Whether the stall watchdog is armed for a job right now (the
  /// /healthz answer; the service thread itself persists once spawned).
  bool watchdog_armed() const noexcept;

 private:
  /// The job descriptor shared with the workers. Written by the admitted
  /// submitter before the job-sequence bump (release) and read by workers
  /// after observing the bump (acquire); results are read back by the
  /// submitter after `remaining` hits zero.
  struct Job {
    int np = 0;
    const std::function<void(Comm&)>* fn = nullptr;
    const RunOptions* options = nullptr;
    detail::World* world = nullptr;
    RunStats* stats = nullptr;
    std::vector<std::exception_ptr>* errors = nullptr;
    std::atomic<int> remaining{0};
  };

  /// One parked worker. The slot sequence counts jobs this worker has been
  /// handed; bumping it (release) publishes the job_ descriptor to the
  /// worker's matching acquire. Heap-allocated so growth never moves a
  /// slot another thread is waiting on; cache-line aligned so two slots
  /// never share a line.
  struct Worker {
    std::thread thread;
    alignas(64) std::atomic<std::uint64_t> seq{0};
  };

  void worker_main(Worker& self, int index);
  void service_main();
  /// Spawns workers so capacity() >= np. Caller must hold the admission
  /// slot (be the serving ticket).
  void ensure_workers(int np);
  /// Fetches the cached World for (np, transport signature) — reset for
  /// reuse, its transport quiesced/cleared/restarted — or creates one.
  detail::World& acquire_world(int np, const TransportSpec& spec);
  /// Hands the active job's World to the service thread for stall
  /// sampling / retires it after the job. Spawns the thread lazily.
  void watchdog_arm(detail::World& world, std::chrono::milliseconds interval);
  void watchdog_disarm();

  // --- admission (FIFO ticket lock) ---------------------------------------
  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t serving_ = 0;

  // --- workers ------------------------------------------------------------
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<int> capacity_{0};
  std::atomic<bool> stop_{false};
  Job job_;  // reused across jobs; valid only for the admitted submitter

  // --- world cache --------------------------------------------------------
  // Keyed by (np, transport signature): jobs with different wires never
  // share a World, but repeated jobs on the same wire reuse one (rings,
  // sockets, and pump threads warm up once).
  std::map<std::pair<int, std::string>, std::unique_ptr<detail::World>>
      worlds_;
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> worlds_created_{0};
  std::atomic<std::uint64_t> world_reuses_{0};

  // --- watchdog service thread --------------------------------------------
  mutable std::mutex svc_mu_;
  std::condition_variable svc_cv_;
  std::thread service_;
  detail::World* svc_world_ = nullptr;  // non-null while a task is armed
  std::chrono::milliseconds svc_interval_{0};
  bool svc_busy_ = false;  // service thread is inside a sampling loop
  bool svc_stop_ = false;
};

}  // namespace parda::comm
