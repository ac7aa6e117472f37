// Fork-join batch runner: the execution substrate of the batch planner
// (core/PlanMany) and the population simulator's shards.
//
// ParallelFor(threads, n, hook, fn) runs fn(0) ... fn(n-1) on the calling
// thread plus min(threads, n) - 1 spawned std::threads, which claim indices
// from one shared atomic counter and are all joined before the call returns:
// no queue, no idle wait, nothing outlives the batch. Which thread runs an
// index is unspecified, so for deterministic results task i writes only
// its own slot i.
//
// Failure model: a task that throws any exception (std or not) fails only
// its own index, with a kInternal Status; the other tasks still run. The
// optional TaskHook (fault injection) runs right before fn(i) under the same
// contract: a throwing hook fails index i and skips its body.

#ifndef BCAST_EXEC_PARALLEL_FOR_H_
#define BCAST_EXEC_PARALLEL_FOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/status.h"

namespace bcast {

/// Called with the task index before each task body runs. May throw.
using TaskHook = std::function<void(uint64_t task_index)>;

/// std::thread::hardware_concurrency(), clamped to >= 1 (0 means unknown).
int HardwareConcurrency();

/// Runs fn(i) for every i in [0, n) on up to `threads` threads (checked
/// >= 1), the caller included. Returns one Status per index: OK, or
/// kInternal if the hook or the task threw. With a metrics registry
/// installed, flushes pool.tasks_run, pool.busy_ns, pool.worker_tasks,
/// pool.worker_busy_ns and pool.group_task_errors (docs/FORMATS.md).
std::vector<Status> ParallelFor(int threads, size_t n, const TaskHook& hook,
                                const std::function<void(size_t)>& fn);

}  // namespace bcast

#endif  // BCAST_EXEC_PARALLEL_FOR_H_
