// Work-stealing thread pool: the execution substrate of the batch planner
// (core/PlanMany) and the population simulator's shard workers.
//
// Each worker owns a deque. The owner pushes and pops at the back (LIFO, so a
// worker descends depth-first into the subtree it just split, keeping its
// working set cache-hot); idle workers steal from the *front* of a victim's
// deque (FIFO, so thieves take the oldest — and for branch-and-bound the
// largest — subtasks, which amortizes the steal over the most work). External
// (non-worker) submitters round-robin across the deques.
//
// The pool knows nothing about search: tasks are plain std::function<void()>.
// Determinism therefore cannot come from the executor — callers that need
// order-independent results must make every task outcome commutative. Destruction drains: queued tasks (including tasks submitted by
// running tasks) all execute before the workers join.
//
// Failure model: a TaskGroup task that throws does not terminate the process —
// the group wrapper catches the exception, converts it to a Status, and
// TaskGroup::Wait() returns the first such error (the remaining tasks still
// run). Raw Submit() tasks have no waiter to report to, so a throwing one is
// swallowed by a last-resort catch in the worker loop and counted in
// `pool.task_exceptions`. An optional per-pool TaskHook (fault injection,
// tracing) runs before every group task under the same exception contract.

#ifndef BCAST_EXEC_THREAD_POOL_H_
#define BCAST_EXEC_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "exec/cancel.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace bcast {

class ThreadPool {
 public:
  /// Called with the task's pool-wide index before each TaskGroup task runs
  /// (on the worker thread). May throw: the exception is handled exactly like
  /// one thrown by the task itself. Not invoked for raw Submit() tasks.
  using TaskHook = std::function<void(uint64_t task_index)>;

  /// Spawns `num_threads` workers (checked >= 1). Use HardwareConcurrency()
  /// to size the pool to the machine. `task_hook` (optional) intercepts every
  /// TaskGroup task — the chaos-testing seam (fault/task_fault.h).
  explicit ThreadPool(int num_threads, TaskHook task_hook = nullptr);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Callable from any thread, including from inside a
  /// running task (the task lands on the submitting worker's own deque).
  void Submit(std::function<void()> task);

  /// std::thread::hardware_concurrency(), clamped to >= 1 (the standard
  /// allows 0 for "unknown").
  static int HardwareConcurrency();

  /// Index of the calling worker within this pool, or -1 for foreign threads.
  /// Exposed for tests and for callers that shard per-worker state.
  int CurrentWorkerIndex() const;

  /// Total tasks stolen from another worker's deque (telemetry; approximate
  /// ordering only, exact count).
  uint64_t steal_count() const { return steals_.load(std::memory_order_relaxed); }

  /// Steal scans that came up empty across every victim (a measure of how
  /// often workers spin hungry; telemetry, exact count).
  uint64_t failed_steal_count() const {
    return failed_steals_.load(std::memory_order_relaxed);
  }

  /// Raw Submit() tasks whose exception was swallowed by the worker-loop
  /// safety net (TaskGroup tasks report through Wait() instead).
  uint64_t task_exception_count() const {
    return task_exceptions_.load(std::memory_order_relaxed);
  }

  /// The per-task hook installed at construction (may be null).
  const TaskHook& task_hook() const { return task_hook_; }

  /// Next pool-wide task index (monotone from 0). TaskGroup draws one per
  /// task so the hook sees a deterministic index sequence per pool.
  uint64_t NextTaskIndex() {
    return next_task_index_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct Worker {
    Mutex mutex;
    std::deque<std::function<void()>> tasks BCAST_GUARDED_BY(mutex);
    // Owner-thread tallies: written only by the worker thread that owns this
    // slot, read by the destructor after join (the join is the sync point),
    // so they stay plain fields — no atomic traffic on the task hot path.
    // Join-synchronized, not lock-guarded: deliberately unannotated.
    uint64_t tasks_run = 0;
    uint64_t busy_ns = 0;
  };

  void WorkerLoop(int index);

  // Runs `task`, swallowing (and counting) any exception that escapes it.
  // The last line of defense for raw Submit() tasks; group tasks never throw
  // out of their wrapper.
  void RunGuarded(const std::function<void()>& task);

  // Pops one task for worker `self` (own back first, then steal a front).
  // Returns an empty function if nothing is runnable.
  std::function<void()> TakeTask(int self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Queued-but-not-started task count; guards the idle wait.
  std::atomic<uint64_t> pending_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_external_{0};  // round-robin cursor
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> failed_steals_{0};
  std::atomic<uint64_t> task_exceptions_{0};
  std::atomic<uint64_t> next_task_index_{0};
  TaskHook task_hook_;          // fixed at construction; called concurrently
  bool record_timing_ = false;  // fixed at construction (metrics installed?)
  // idle_mutex_ guards no fields — it exists to serialize the sleepers'
  // predicate checks (over the atomics above) with Submit()'s notify and the
  // destructor's stop flip, closing the check-then-sleep race.
  Mutex idle_mutex_;
  CondVar idle_cv_;
};

/// Completion tracking for a batch of pool tasks. Run() wraps the task with
/// an outstanding-count decrement; Wait() blocks until every task that was
/// Run() — including tasks Run() from inside other tasks — has finished.
/// Wait() must be called from a non-worker thread (a waiting worker would
/// deadlock a single-threaded pool).
///
/// Exceptions thrown by a group task (or by the pool's TaskHook) are caught
/// in the wrapper and surfaced as the Status returned by Wait() — the first
/// error wins, later ones only bump `pool.group_task_errors`. With a
/// CancelToken, tasks that dequeue after Cancel() skip their body entirely
/// (they still count as finished), so a cancelled batch drains quickly.
class TaskGroup {
 public:
  /// `cancel` (optional, not owned) must outlive the group.
  explicit TaskGroup(ThreadPool* pool, const CancelToken* cancel = nullptr);

  /// Schedules `task` on the pool as part of this group.
  void Run(std::function<void()> task);

  /// Blocks until the group is empty. Returns OkStatus() if every task ran to
  /// completion, otherwise the first task/hook exception converted to a
  /// kInternal Status. Deliberately not [[nodiscard]]: callers whose tasks
  /// report failure out-of-band (the search engine's abort latch) may ignore
  /// it.
  Status Wait();

 private:
  // Records the first task failure (later ones are counted only).
  void RecordError(Status status);

  ThreadPool* pool_;
  const CancelToken* cancel_;
  std::atomic<uint64_t> outstanding_{0};
  // Pairs the last task's decrement-and-notify with Wait()'s predicate
  // check; the count itself is the atomic above. first_error_ is the one
  // genuinely guarded field.
  Mutex mutex_;
  CondVar cv_;
  Status first_error_ BCAST_GUARDED_BY(mutex_);
};

}  // namespace bcast

#endif  // BCAST_EXEC_THREAD_POOL_H_
