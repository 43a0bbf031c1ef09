#include "common/parallel.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>

#include "common/random.h"

namespace netbone {
namespace {

// Consecutive empty scans a worker tolerates (yielding between them)
// before parking on the scheduler's epoch.
constexpr int kIdleScansBeforeSleep = 16;

// Park timeout: an (unlikely) missed wakeup costs at most this much
// latency, never liveness.
constexpr std::chrono::milliseconds kParkTimeout{1};

}  // namespace

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int SchedulerThreadsFromEnv(const char* value, int hardware_threads) {
  hardware_threads = std::max(hardware_threads, 1);
  if (value == nullptr || *value == '\0') return hardware_threads;
  // Strict decimal parse: any trailing junk ("4x", "2.5") rejects the
  // override rather than half-applying it.
  long parsed = 0;
  char* end = nullptr;
  errno = 0;
  parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < 0) {
    return hardware_threads;
  }
  if (parsed == 0) return hardware_threads;  // 0 = hardware, the knob's doc
  return static_cast<int>(
      std::min<long>(parsed, static_cast<long>(kMaxSchedulerThreads)));
}

int NumParallelChunks(int64_t n, int num_threads) {
  if (n <= 0) return 1;
  return static_cast<int>(
      std::min<int64_t>(ResolveThreadCount(num_threads), n));
}

// ---------------------------------------------------------------------------
// TaskScheduler.
// ---------------------------------------------------------------------------

struct TaskScheduler::Task {
  std::function<void()> fn;
  TaskGroup* group;
};

// Per-worker state: a fixed-capacity Chase–Lev deque (the owner pushes
// and pops at the bottom, thieves race a CAS at the top) plus the
// worker's fixed-seed victim permutation. The capacity bound is safe, not
// just a size limit: the owner never wraps onto a slot a thief could
// still read, because Push refuses once bottom - top reaches capacity
// (the spawner then runs the task inline — less parallel, still correct).
struct TaskScheduler::Worker {
  static constexpr int64_t kDequeCapacity = 8192;  // power of two
  static constexpr int64_t kDequeMask = kDequeCapacity - 1;

  Worker() : buffer(kDequeCapacity) {}

  std::atomic<int64_t> top{0};     // next slot thieves take
  std::atomic<int64_t> bottom{0};  // next slot the owner fills
  std::vector<std::atomic<Task*>> buffer;
  std::vector<int> victims;  // steal order: fixed-seed permutation
  std::thread thread;
};

thread_local TaskScheduler* TaskScheduler::tls_scheduler_ = nullptr;
thread_local TaskScheduler::Worker* TaskScheduler::tls_worker_ = nullptr;

// The deque operations follow Chase & Lev (SPAA'05) with the memory
// orders of Lê et al. (PPoPP'13), conservatively strengthened to seq_cst
// on the index variables — the loops scheduled here are far too coarse
// for fence micro-costs to show.

bool TaskScheduler::DequePush(Worker& worker, Task* task) {
  const int64_t b = worker.bottom.load(std::memory_order_relaxed);
  const int64_t t = worker.top.load(std::memory_order_acquire);
  if (b - t >= Worker::kDequeCapacity) return false;
  worker.buffer[static_cast<size_t>(b & Worker::kDequeMask)].store(
      task, std::memory_order_relaxed);
  worker.bottom.store(b + 1, std::memory_order_seq_cst);
  return true;
}

TaskScheduler::Task* TaskScheduler::DequePop(Worker& worker) {
  const int64_t b = worker.bottom.load(std::memory_order_relaxed) - 1;
  worker.bottom.store(b, std::memory_order_seq_cst);
  int64_t t = worker.top.load(std::memory_order_seq_cst);
  if (t > b) {  // deque was empty
    worker.bottom.store(b + 1, std::memory_order_relaxed);
    return nullptr;
  }
  Task* task = worker.buffer[static_cast<size_t>(b & Worker::kDequeMask)]
                   .load(std::memory_order_relaxed);
  if (t == b) {  // last element: race the thieves for it
    if (!worker.top.compare_exchange_strong(t, t + 1,
                                            std::memory_order_seq_cst)) {
      task = nullptr;  // a thief won
    }
    worker.bottom.store(b + 1, std::memory_order_relaxed);
  }
  return task;
}

TaskScheduler::Task* TaskScheduler::DequeSteal(Worker& worker) {
  int64_t t = worker.top.load(std::memory_order_seq_cst);
  const int64_t b = worker.bottom.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Task* task = worker.buffer[static_cast<size_t>(t & Worker::kDequeMask)]
                   .load(std::memory_order_relaxed);
  if (!worker.top.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst)) {
    return nullptr;  // lost the race; the caller moves to the next victim
  }
  return task;
}

TaskScheduler::TaskScheduler(int num_threads) {
  const int spawn = std::max(num_threads, 1) - 1;
  workers_.reserve(static_cast<size_t>(spawn));
  for (int w = 0; w < spawn; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int w = 0; w < spawn; ++w) {
    Worker& worker = *workers_[static_cast<size_t>(w)];
    worker.victims.reserve(static_cast<size_t>(spawn > 0 ? spawn - 1 : 0));
    for (int v = 0; v < spawn; ++v) {
      if (v != w) worker.victims.push_back(v);
    }
    // Shuffled under the library Rng seeded by the worker id alone
    // (through the shared Mix64 diffusion): the same permutation every
    // run, every process — the steal pattern carries no entropy source.
    Rng rng(Mix64(static_cast<uint64_t>(w) + 1));
    rng.Shuffle(&worker.victims);
  }
  // Threads start only after every Worker (and victim table) is built.
  for (int w = 0; w < spawn; ++w) {
    workers_[static_cast<size_t>(w)]->thread =
        std::thread([this, w] { WorkerLoop(w); });
  }
}

TaskScheduler::~TaskScheduler() {
  if (metrics_registry_ != nullptr) metrics_registry_->Unregister(this);
  shutdown_.store(true, std::memory_order_release);
  Signal();
  {
    // Serialize with parked workers' predicate checks so none can sleep
    // through the shutdown notify.
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

TaskScheduler& TaskScheduler::Global() {
  // Leaked on purpose: joining workers from a static destructor can
  // deadlock with other atexit teardown. NETBONE_NUM_THREADS overrides
  // the hardware-concurrency default for containerized deployments whose
  // cgroup quota is narrower than the host's core count.
  static TaskScheduler* scheduler = [] {
    auto* s = new TaskScheduler(SchedulerThreadsFromEnv(
        std::getenv("NETBONE_NUM_THREADS"), ResolveThreadCount(0)));
    // Both the scheduler and the global registry are leaked, so the
    // non-owning registration can never dangle.
    s->RegisterMetrics(obs::MetricRegistry::Global(), "scheduler");
    return s;
  }();
  return *scheduler;
}

void TaskScheduler::RegisterMetrics(obs::MetricRegistry& registry,
                                    const std::string& prefix) {
  metrics_registry_ = &registry;
  registry.RegisterCounter(prefix + ".tasks_executed", &tasks_executed_,
                           this);
  registry.RegisterCounter(prefix + ".steals", &steals_, this);
  registry.RegisterCounter(prefix + ".parks", &parks_, this);
  registry.RegisterCounter(prefix + ".wakes", &wakes_, this);
  registry.RegisterCounter(prefix + ".injected", &injected_count_, this);
  registry.RegisterCounter(prefix + ".inline_runs", &inline_runs_, this);
  registry.RegisterGauge(
      prefix + ".workers", [this] { return int64_t{num_workers()}; }, this);
  registry.RegisterHistogram(prefix + ".task_ns", &task_ns_, this);
}

void TaskScheduler::WorkerLoop(int worker_id) {
  Worker* self = workers_[static_cast<size_t>(worker_id)].get();
  tls_scheduler_ = this;
  tls_worker_ = self;
  int idle_scans = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    const uint64_t observed = epoch();
    if (Task* task = FindTask(self)) {
      ExecuteTask(task);
      idle_scans = 0;
      continue;
    }
    if (++idle_scans < kIdleScansBeforeSleep) {
      std::this_thread::yield();
      continue;
    }
    SleepUntilSignal(observed);
    idle_scans = 0;
  }
}

TaskScheduler::Task* TaskScheduler::FindTask(Worker* self) {
  if (self != nullptr) {
    if (Task* task = DequePop(*self)) return task;
  }
  {
    Task* task = nullptr;
    if (injected_.TryPop(&task)) return task;
  }
  if (self != nullptr) {
    for (const int victim : self->victims) {
      if (Task* task = DequeSteal(*workers_[static_cast<size_t>(victim)])) {
        steals_.Increment();
        return task;
      }
    }
  } else {
    for (const auto& worker : workers_) {
      if (Task* task = DequeSteal(*worker)) {
        steals_.Increment();
        return task;
      }
    }
  }
  return nullptr;
}

bool TaskScheduler::HelpOnce() {
  Worker* self = tls_scheduler_ == this ? tls_worker_ : nullptr;
  Task* task = FindTask(self);
  if (task == nullptr) return false;
  ExecuteTask(task);
  return true;
}

void TaskScheduler::ExecuteTask(Task* task) {
  TaskGroup* group = task->group;
  if (task_timing_.load(std::memory_order_relaxed)) {
    const auto start = std::chrono::steady_clock::now();
    task->fn();
    task_ns_.Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  } else {
    task->fn();
  }
  tasks_executed_.Increment();
  delete task;
  // The group may be destroyed the instant a waiter observes pending == 0,
  // so this decrement is the last touch of group memory; the wakeup below
  // goes through the scheduler, which outlives every group.
  if (group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Signal();
  }
}

void TaskScheduler::Submit(Task* task) {
  if (tls_scheduler_ == this && tls_worker_ != nullptr) {
    if (DequePush(*tls_worker_, task)) {
      Signal();
      return;
    }
    // Own deque full: run inline. Correct (the task just executes now,
    // on this worker) and self-limiting — draining the task frees work.
    inline_runs_.Increment();
    ExecuteTask(task);
    return;
  }
  if (!Inject(task)) {
    // Injection ring full: run inline on the submitting thread. Correct
    // (the task just executes now) and self-limiting — draining the task
    // frees queue pressure — exactly like the full-deque path above.
    inline_runs_.Increment();
    ExecuteTask(task);
    return;
  }
  Signal();
}

bool TaskScheduler::Inject(Task* task) {
  if (!injected_.TryPush(task)) return false;
  injected_count_.Increment();
  return true;
}

void TaskScheduler::Signal() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  if (sleepers_.load(std::memory_order_acquire) > 0) {
    // The empty critical section serializes with a parking thread that
    // has incremented sleepers_ but not yet re-checked the epoch: either
    // it sees the new epoch under the lock, or it is already in wait()
    // and the notify reaches it.
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    sleep_cv_.notify_all();
    wakes_.Increment();
  }
}

void TaskScheduler::SleepUntilSignal(uint64_t observed_epoch) {
  std::unique_lock<std::mutex> lock(sleep_mu_);
  if (shutdown_.load(std::memory_order_acquire) ||
      epoch() != observed_epoch) {
    return;
  }
  parks_.Increment();
  sleepers_.fetch_add(1, std::memory_order_acq_rel);
  sleep_cv_.wait_for(lock, kParkTimeout, [&] {
    return shutdown_.load(std::memory_order_acquire) ||
           epoch() != observed_epoch;
  });
  sleepers_.fetch_sub(1, std::memory_order_acq_rel);
}

// ---------------------------------------------------------------------------
// TaskGroup.
// ---------------------------------------------------------------------------

TaskGroup::TaskGroup() : scheduler_(&TaskScheduler::Global()) {}

TaskGroup::TaskGroup(TaskScheduler* scheduler) : scheduler_(scheduler) {}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::Spawn(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  scheduler_->Submit(new TaskScheduler::Task{std::move(fn), this});
}

void TaskGroup::Wait() {
  while (pending_.load(std::memory_order_acquire) > 0) {
    const uint64_t observed = scheduler_->epoch();
    if (scheduler_->HelpOnce()) continue;
    if (pending_.load(std::memory_order_acquire) == 0) break;
    // Nothing runnable anywhere: the group's last tasks are mid-flight on
    // other threads. Park until the task set (or this group) changes.
    scheduler_->SleepUntilSignal(observed);
  }
}

// ---------------------------------------------------------------------------
// Loop-shaped entry points.
// ---------------------------------------------------------------------------

void ParallelFor(int64_t n, int num_threads,
                 const std::function<void(int64_t, int64_t, int)>& fn) {
  if (n <= 0) return;
  const int chunks = NumParallelChunks(n, num_threads);
  if (chunks <= 1) {
    fn(0, n, 0);
    return;
  }
  TaskGroup group;
  for (int c = 1; c < chunks; ++c) {
    group.Spawn([&fn, n, chunks, c] {
      const int64_t begin = n * c / chunks;
      const int64_t end = n * (c + 1) / chunks;
      if (begin < end) fn(begin, end, c);
    });
  }
  fn(0, n / chunks, 0);  // chunk 0 runs on the caller before it helps
  group.Wait();
}

void ParallelForDynamic(int64_t n, int64_t grain, int num_threads,
                        const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  const int64_t g = std::max<int64_t>(grain, 1);
  const int64_t num_blocks = (n + g - 1) / g;
  const int width = static_cast<int>(
      std::min<int64_t>(ResolveThreadCount(num_threads), num_blocks));
  if (width <= 1) {
    fn(0, n);
    return;
  }
  // Self-scheduling runners: `width` tasks race a shared cursor for the
  // next unclaimed block, so a heavy block occupies one runner while the
  // rest drain the remainder — dynamic balancing with exactly one
  // fetch_add of bookkeeping per block. The runner *tasks* are what the
  // deques distribute (and thieves steal); num_threads caps concurrency
  // because only `width` runners exist. Block boundaries depend only on
  // (n, grain).
  std::atomic<int64_t> next_block{0};
  const auto runner = [&next_block, num_blocks, g, n, &fn] {
    for (;;) {
      const int64_t block =
          next_block.fetch_add(1, std::memory_order_relaxed);
      if (block >= num_blocks) return;
      const int64_t begin = block * g;
      fn(begin, std::min<int64_t>(begin + g, n));
    }
  };
  TaskGroup group;
  for (int r = 1; r < width; ++r) group.Spawn(runner);
  runner();  // the caller is runner 0
  group.Wait();
}

void ParallelRun(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  if (count == 1) {
    fn(0);
    return;
  }
  TaskGroup group;
  for (int i = 1; i < count; ++i) {
    group.Spawn([&fn, i] { fn(i); });
  }
  fn(0);
  group.Wait();
}

}  // namespace netbone
