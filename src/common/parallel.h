// Copyright 2026 The netbone Authors.
//
// Shared parallel-execution substrate. Two layers live here:
//
//  * TaskScheduler / TaskGroup — a deterministic work-stealing task
//    runtime: one Chase–Lev-style deque per persistent worker thread,
//    idle workers stealing over a fixed-seed victim permutation, and a
//    lock-free MPMC injection ring for threads outside the pool. Nested
//    TaskGroups
//    spawned from inside a running task push onto the executing worker's
//    own deque, so an outer fan-out (methods, batch keys) and the inner
//    loops it triggers share one pool instead of serializing each other.
//  * ParallelFor / ParallelForDynamic / ParallelSort / ParallelRun —
//    loop-shaped entry points built on the runtime.
//
// Determinism contract: the runtime never promises anything about *which*
// worker executes a task or in what order steals happen — it promises
// that this cannot matter. ParallelFor partitions [0, n) into contiguous
// chunks whose boundaries depend only on (n, num_threads);
// ParallelForDynamic decomposes [0, n) into grain-bounded blocks that
// depend only on (n, grain). Callers write results to per-index (or
// per-chunk, folded-in-fixed-order) slots, or fold commutative integer
// accumulators, so output is bit-identical at every thread count and
// regardless of steal order.
//
// Blocking rules: tasks must never block on work produced by other
// in-flight requests (futures, condition variables). TaskGroup::Wait is
// the one sanctioned wait — it is a *helping* wait that executes pending
// tasks instead of parking, so nested waits always make progress. The
// serving engine's corollary: in-flight score futures are only awaited
// from caller context, never inside a task (service/engine.h).

#ifndef NETBONE_COMMON_PARALLEL_H_
#define NETBONE_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mpmc_queue.h"
#include "obs/metrics.h"

namespace netbone {

/// Resolves a caller-facing thread-count knob: values <= 0 mean "use
/// hardware concurrency" (at least 1); positive values pass through.
int ResolveThreadCount(int requested);

/// Worker-count policy for the process-wide scheduler: the value of the
/// NETBONE_NUM_THREADS environment variable, clamped to
/// [1, kMaxSchedulerThreads]; 0, unset, or unparsable means "hardware
/// concurrency". Containerized deployments use this to size the pool
/// below what hardware_concurrency() reports for the host. Exposed as a
/// pure function of (env value, hardware count) so the parsing/clamping
/// is unit-testable; TaskScheduler::Global() applies it once at creation.
int SchedulerThreadsFromEnv(const char* value, int hardware_threads);

/// Upper clamp for SchedulerThreadsFromEnv (absurd requests cost one OS
/// thread each; the clamp keeps a typo from spawning thousands).
inline constexpr int kMaxSchedulerThreads = 1024;

/// Number of chunks ParallelFor(n, num_threads, ...) will invoke its
/// callback with: min(ResolveThreadCount(num_threads), n), at least 1.
/// Callers that size per-chunk accumulators must use this — it is the
/// single definition of the partition width.
int NumParallelChunks(int64_t n, int num_threads);

class TaskGroup;

/// Work-stealing task runtime. The scheduler owns `num_threads - 1`
/// persistent OS worker threads (a scheduler of size 1 owns none), each
/// with a private Chase–Lev deque; threads outside the pool submit root
/// tasks through a shared lock-free MPMC injection ring
/// (common/mpmc_queue.h) and help execute tasks while
/// waiting, so the calling thread always participates. Idle workers
/// steal from victims in a per-worker permutation drawn from a fixed
/// seed — the steal pattern carries no run-to-run entropy source of its
/// own, and the determinism contract above makes whatever pattern occurs
/// unobservable in results.
///
/// Tasks are submitted through TaskGroup. Tasks must not throw and must
/// not block on other requests' work (see the blocking rules above);
/// spawning further tasks from inside a task is the intended way to
/// express nested parallelism.
class TaskScheduler {
 public:
  /// A runtime that can execute `num_threads` tasks concurrently,
  /// counting threads that help while waiting. num_threads < 1 is
  /// clamped to 1 (no worker threads: tasks run in the waiters).
  explicit TaskScheduler(int num_threads);

  /// Joins the workers. All TaskGroups bound to this scheduler must have
  /// completed their Wait() first.
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Deque-owning worker threads (0 for a size-1 scheduler).
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Registers this scheduler's counters and worker gauge under
  /// `<prefix>.<name>` using `this` as the owner cookie. Global()
  /// self-registers into MetricRegistry::Global() under "scheduler".
  /// Steals, parks and wakes are the load-balance story: high steals
  /// with low parks means busy balanced work; high parks means
  /// starvation. inline_runs counts deque-full fallbacks.
  void RegisterMetrics(obs::MetricRegistry& registry,
                       const std::string& prefix);

  /// Process-wide scheduler sized to hardware concurrency, created on
  /// first use and intentionally never destroyed (avoids shutdown-order
  /// races with static destructors).
  static TaskScheduler& Global();

 private:
  friend class TaskGroup;

  struct Task;
  struct Worker;

  void WorkerLoop(int worker_id);
  /// Pops / steals one runnable task, or nullptr. `self` is the calling
  /// thread's worker state (nullptr for threads outside the pool).
  Task* FindTask(Worker* self);
  /// Executes one runnable task if any is available. Used by helping
  /// waits; returns false when nothing was runnable.
  bool HelpOnce();
  /// Runs the task, deletes it, and retires it from its group.
  void ExecuteTask(Task* task);
  /// Routes a task to the current worker's deque (falling back to inline
  /// execution when the deque is full) or to the injection ring (same
  /// inline fallback when the ring is full).
  void Submit(Task* task);
  /// Enqueues onto the lock-free injection ring; false when full (the
  /// caller keeps ownership and runs the task inline).
  bool Inject(Task* task);
  /// Publishes "the set of runnable tasks changed": bumps the epoch and
  /// wakes sleepers.
  void Signal();
  /// Parks until the epoch moves past `observed_epoch` (bounded by a
  /// timeout, so a missed wakeup costs a millisecond, never liveness).
  void SleepUntilSignal(uint64_t observed_epoch);
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  static bool DequePush(Worker& worker, Task* task);
  static Task* DequePop(Worker& worker);
  static Task* DequeSteal(Worker& worker);

  static thread_local TaskScheduler* tls_scheduler_;
  static thread_local Worker* tls_worker_;

  std::vector<std::unique_ptr<Worker>> workers_;

  /// Root-task submissions from threads outside the pool. Lock-free so N
  /// concurrent injectors (the sharded engine's dispatchers) never
  /// serialize on a queue mutex; bounded, with inline execution as the
  /// overflow policy (mirroring the full-deque fallback).
  static constexpr size_t kInjectCapacity = 4096;
  MpmcQueue<Task*> injected_{kInjectCapacity};

  std::atomic<uint64_t> epoch_{0};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<int> sleepers_{0};  // incremented only under sleep_mu_
  std::atomic<bool> shutdown_{false};

  // Observability (obs/metrics.h): relaxed sharded counters — one
  // fetch_add per event on the owner's cache line, negligible next to
  // the work being scheduled.
  obs::ShardedCounter tasks_executed_;
  obs::ShardedCounter steals_;
  obs::ShardedCounter parks_;
  obs::ShardedCounter wakes_;
  obs::ShardedCounter injected_count_;
  obs::ShardedCounter inline_runs_;
  obs::MetricRegistry* metrics_registry_ = nullptr;  // set by RegisterMetrics
};

/// A join point for a set of spawned tasks. Spawn() hands tasks to the
/// scheduler; Wait() blocks until every spawned task has finished,
/// executing pending tasks itself while it waits (helping), so calling
/// Wait from inside a task — nested parallelism — cannot deadlock the
/// pool. A group may be reused for further Spawn/Wait rounds after a
/// Wait returns.
///
/// Spawn is thread-safe, and a task may Spawn siblings into its own
/// group (the recursive loop splitter does): a child is counted before
/// its parent retires, so the pending count never transiently reads
/// zero while work remains. Wait is owned by one thread — the one that
/// started the fan-out.
class TaskGroup {
 public:
  /// Binds to the process-wide scheduler.
  TaskGroup();
  /// Binds to a specific scheduler (tests, isolated pools).
  explicit TaskGroup(TaskScheduler* scheduler);
  /// Waits for any still-pending tasks.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Queues fn for execution. From inside a task, the spawn goes to the
  /// executing worker's own deque (cheap, steal-able); from outside the
  /// pool it goes to the injection queue.
  void Spawn(std::function<void()> fn);

  /// Returns once every task spawned on this group has completed. The
  /// calling thread executes pending tasks while waiting; when nothing is
  /// runnable (the group's last tasks are mid-flight on other workers) it
  /// parks on the scheduler's epoch.
  void Wait();

 private:
  friend class TaskScheduler;

  TaskScheduler* scheduler_;
  std::atomic<int64_t> pending_{0};
};

/// Deterministic chunked parallel loop over [0, n).
///
/// The range is split into W = min(max(num_threads_resolved, 1), n)
/// contiguous chunks — chunk c covers [c*n/W, (c+1)*n/W) — and
/// fn(begin, end, chunk) runs once per chunk as work-stealing tasks on
/// TaskScheduler::Global() (the caller executes chunk 0 and then helps).
/// Chunk boundaries depend only on (n, num_threads), so per-chunk
/// accumulators indexed by `chunk` are reproducible. `num_threads` <= 0
/// resolves to hardware concurrency. n <= 0 is a no-op; W == 1 runs inline
/// on the calling thread with no synchronization. Called from inside a
/// task, the chunks join the shared pool (two-level parallelism) instead
/// of running serially; the chunk partition — and therefore the output —
/// is the same either way.
void ParallelFor(int64_t n, int num_threads,
                 const std::function<void(int64_t begin, int64_t end,
                                          int chunk)>& fn);

/// Dynamic parallel loop over [0, n) for workloads with skewed per-index
/// cost, where ParallelFor's W static slabs would leave every other core
/// idle behind the heaviest slab.
///
/// The range is decomposed into ceil(n / max(grain, 1)) fixed blocks of
/// at most grain indices — a decomposition that depends only on
/// (n, grain) — and fn(begin, end) runs once per block. Blocks are
/// claimed dynamically: W = min(ResolveThreadCount(num_threads), blocks)
/// self-scheduling runner tasks (distributed — and stolen — as ordinary
/// scheduler tasks) race a shared cursor for the next unclaimed block,
/// so num_threads genuinely caps the loop's concurrency while a heavy
/// block stalls only the one runner that claimed it. Blocks execute in
/// no particular order on no particular thread: callers must write
/// per-index results (or fold commutative accumulators such as integer
/// counts); under that discipline the output is bit-identical at every
/// thread count and claim order.
///
/// Grain guidance: pick the smallest grain whose block body still costs
/// >> the one atomic fetch_add of per-block bookkeeping (any real work
/// qualifies). For heavy per-index work (an HSS source Dijkstra) a grain
/// of a few indices suffices; for cheap uniform per-index work prefer
/// ParallelFor's static chunks outright.
///
/// num_threads <= 0 resolves to hardware concurrency; a width of 1 runs
/// fn(0, n) inline — the serial path sees one whole-range block, which
/// is only observable to callers that violate the slot discipline above.
void ParallelForDynamic(int64_t n, int64_t grain, int num_threads,
                        const std::function<void(int64_t begin,
                                                 int64_t end)>& fn);

/// Runs fn(i) for every i in [0, count) as work-stealing tasks, the
/// caller executing i == 0 and then helping; blocks until all complete.
/// The task-shaped sibling of ParallelFor for small heterogeneous
/// fan-outs (sort chunks, merge pairs).
void ParallelRun(int count, const std::function<void(int i)>& fn);

/// Comparison-based parallel sort on the shared scheduler: chunked
/// std::sort followed by log(W) rounds of pairwise std::merge into a
/// scratch buffer.
///
/// When `cmp` induces a strict *total* order over the elements (no two
/// distinct elements compare equivalent), the sorted sequence is unique,
/// so the output is bit-identical to std::sort and independent of
/// `num_threads` — the determinism contract the MST Kruskal sort relies
/// on. With genuinely tied elements the tie order may differ from
/// std::sort and across thread counts; callers needing determinism add a
/// final tie-break key instead.
///
/// Small inputs (or num_threads resolving to 1) fall back to a plain
/// std::sort with no scheduler handoff or scratch allocation.
template <typename T, typename Compare>
void ParallelSort(std::vector<T>* v, int num_threads, Compare cmp) {
  const int64_t n = static_cast<int64_t>(v->size());
  // Below this size the chunk sorts are cheaper than the task handoff and
  // the scratch allocation; one std::sort is observably identical.
  constexpr int64_t kMinParallelSize = 1 << 13;
  const int chunks = NumParallelChunks(n, num_threads);
  if (chunks <= 1 || n < kMinParallelSize) {
    std::sort(v->begin(), v->end(), cmp);
    return;
  }

  // Chunk boundaries follow the ParallelFor partition (c*n/W), but the
  // result is boundary-independent for total-order comparators, so the
  // only requirement here is covering [0, n) exactly.
  std::vector<int64_t> bounds(static_cast<size_t>(chunks) + 1);
  for (int c = 0; c <= chunks; ++c) {
    bounds[static_cast<size_t>(c)] = n * c / chunks;
  }
  ParallelRun(chunks, [&](int c) {
    std::sort(v->begin() + bounds[static_cast<size_t>(c)],
              v->begin() + bounds[static_cast<size_t>(c) + 1], cmp);
  });

  // Merge runs pairwise until one remains, ping-ponging between the input
  // and a scratch buffer. Each round's merges touch disjoint ranges.
  std::vector<T> scratch(v->size());
  std::vector<T>* src = v;
  std::vector<T>* dst = &scratch;
  while (bounds.size() > 2) {
    const int runs = static_cast<int>(bounds.size()) - 1;
    const int pairs = runs / 2;
    ParallelRun(pairs, [&](int p) {
      const int64_t lo = bounds[static_cast<size_t>(2 * p)];
      const int64_t mid = bounds[static_cast<size_t>(2 * p) + 1];
      const int64_t hi = bounds[static_cast<size_t>(2 * p) + 2];
      std::merge(src->begin() + lo, src->begin() + mid, src->begin() + mid,
                 src->begin() + hi, dst->begin() + lo, cmp);
    });
    if (runs % 2 != 0) {  // odd tail run: carry over unchanged
      std::copy(src->begin() + bounds[bounds.size() - 2], src->end(),
                dst->begin() + bounds[bounds.size() - 2]);
    }
    std::vector<int64_t> next;
    next.reserve(static_cast<size_t>(pairs) + 2);
    for (size_t b = 0; b < bounds.size(); b += 2) next.push_back(bounds[b]);
    if (bounds.size() % 2 == 0) next.push_back(bounds.back());
    bounds = std::move(next);
    std::swap(src, dst);
  }
  if (src != v) *v = std::move(*src);
}

}  // namespace netbone

#endif  // NETBONE_COMMON_PARALLEL_H_
