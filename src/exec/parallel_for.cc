#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <thread>

#include "obs/clock.h"
#include "obs/obs.h"
#include "util/check.h"

namespace bcast {

namespace {

Status RunTask(const TaskHook& hook, const std::function<void(size_t)>& fn,
               size_t index) {
  try {
    if (hook) hook(index);
    fn(index);
    return Status::Ok();
  } catch (const std::exception& e) {
    return InternalError(std::string("pool task threw: ") + e.what());
  } catch (...) {
    return InternalError("pool task threw a non-std exception");
  }
}

}  // namespace

int HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::vector<Status> ParallelFor(int threads, size_t n, const TaskHook& hook,
                                const std::function<void(size_t)>& fn) {
  BCAST_CHECK_GE(threads, 1) << "ParallelFor needs at least one thread";
  const size_t workers = std::clamp<size_t>(n, 1, static_cast<size_t>(threads));
  // Per-task clock reads only when a registry will consume them.
  const bool record_timing = obs::MetricsEnabled();
  struct Tally {
    uint64_t tasks = 0;
    uint64_t busy_ns = 0;
  };
  // Join-synchronized, deliberately unannotated: task i writes only
  // statuses[i], worker w only tallies[w] (once, at its end), and the joins
  // below order every write before the reads after them.
  std::vector<Status> statuses(n);
  std::vector<Tally> tallies(workers);
  std::atomic<size_t> next{0};
  auto work = [&](size_t worker) {
    Tally tally;
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      const uint64_t begin_ns = record_timing ? obs::MonotonicNanos() : 0;
      statuses[i] = RunTask(hook, fn, i);
      if (record_timing) tally.busy_ns += obs::MonotonicNanos() - begin_ns;
      ++tally.tasks;
      if (!statuses[i].ok()) {
        obs::GetCounter("pool.group_task_errors").Increment();
      }
    }
    tallies[worker] = tally;
  };
  std::vector<std::thread> spawned;
  spawned.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) spawned.emplace_back(work, w);
  work(0);
  for (std::thread& thread : spawned) thread.join();

  obs::Registry* registry = obs::GlobalMetrics();
  if (registry == nullptr) return statuses;
  uint64_t tasks_run = 0;
  uint64_t busy_ns = 0;
  obs::Histogram worker_tasks = registry->GetHistogram("pool.worker_tasks");
  obs::Histogram worker_busy = registry->GetHistogram("pool.worker_busy_ns");
  for (const Tally& tally : tallies) {
    tasks_run += tally.tasks;
    busy_ns += tally.busy_ns;
    worker_tasks.Record(tally.tasks);
    if (record_timing) worker_busy.Record(tally.busy_ns);
  }
  registry->GetCounter("pool.tasks_run").Add(tasks_run);
  registry->GetCounter("pool.busy_ns").Add(busy_ns);
  return statuses;
}

}  // namespace bcast
