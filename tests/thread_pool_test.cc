// The fork-join runner (exec/parallel_for.h): each batch's threads form a
// short-lived thread pool, reported under the pool.* metrics.

#include "exec/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace bcast {
namespace {

bool AllOk(const std::vector<Status>& statuses) {
  return std::all_of(statuses.begin(), statuses.end(),
                     [](const Status& s) { return s.ok(); });
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(HardwareConcurrency(), 1);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  // Every index runs exactly once; all threads are joined on return, so the
  // plain vector needs no synchronization to be read here.
  std::vector<int> runs(1000, 0);
  std::vector<Status> statuses =
      ParallelFor(4, runs.size(), nullptr, [&runs](size_t i) { ++runs[i]; });
  ASSERT_EQ(statuses.size(), runs.size());
  EXPECT_TRUE(AllOk(statuses));
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1),
            static_cast<std::ptrdiff_t>(runs.size()));
}

TEST(ThreadPoolTest, SingleThreadedPoolMakesProgress) {
  // One thread spawns nothing: the caller runs every task itself, in order.
  std::vector<size_t> order;
  EXPECT_TRUE(AllOk(
      ParallelFor(1, 100, nullptr, [&order](size_t i) { order.push_back(i); })));
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, FlushesStatsIntoInstalledRegistry) {
  // A batch run under a live registry flushes its per-thread tallies into
  // pool.* after the join.
  obs::Registry registry;
  {
    obs::ScopedObservability scope(&registry, nullptr);
    std::atomic<int> counter{0};
    EXPECT_TRUE(AllOk(ParallelFor(3, 500, nullptr,
                                  [&counter](size_t) { counter.fetch_add(1); })));
    EXPECT_EQ(counter.load(), 500);
  }
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("pool.tasks_run", 0), 500u);
  EXPECT_EQ(snapshot.counters.count("pool.busy_ns"), 1u);
  auto find_histogram =
      [&snapshot](const std::string& name) -> const obs::HistogramSnapshot* {
    for (const obs::HistogramSnapshot& h : snapshot.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };
  // One histogram sample per thread, the caller included.
  const obs::HistogramSnapshot* worker_tasks = find_histogram("pool.worker_tasks");
  ASSERT_NE(worker_tasks, nullptr);
  EXPECT_EQ(worker_tasks->count, 3u);
  EXPECT_EQ(worker_tasks->sum, 500u);
  // Busy-time instrumentation was live (sampled at the start of the batch
  // under the installed registry).
  const obs::HistogramSnapshot* worker_busy = find_histogram("pool.worker_busy_ns");
  ASSERT_NE(worker_busy, nullptr);
  EXPECT_EQ(worker_busy->count, 3u);
}

TEST(ThreadPoolTest, NoRegistryMeansNoFlushAndNoCrash) {
  ASSERT_EQ(obs::GlobalMetrics(), nullptr);
  std::atomic<int> counter{0};
  EXPECT_TRUE(AllOk(
      ParallelFor(2, 100, nullptr, [&counter](size_t) { counter.fetch_add(1); })));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, TaskExceptionBecomesStatusFromWait) {
  // A throwing task must surface as its index's Status, not std::terminate,
  // and must not poison the batch's other tasks.
  std::atomic<int> ran{0};
  std::vector<Status> statuses = ParallelFor(2, 17, nullptr, [&ran](size_t i) {
    if (i == 5) throw std::runtime_error("boom");
    ran.fetch_add(1);
  });
  EXPECT_EQ(statuses[5].code(), StatusCode::kInternal);
  EXPECT_NE(statuses[5].ToString().find("boom"), std::string::npos);
  statuses.erase(statuses.begin() + 5);
  EXPECT_TRUE(AllOk(statuses));
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, NonStdExceptionAlsoBecomesStatus) {
  std::atomic<int> ran{0};
  std::vector<Status> statuses = ParallelFor(2, 8, nullptr, [&ran](size_t i) {
    if (i == 0) throw 42;
    ran.fetch_add(1);
  });
  EXPECT_EQ(statuses[0].code(), StatusCode::kInternal);
  EXPECT_EQ(ran.load(), 7);
}

TEST(ThreadPoolTest, TaskHookSeesEveryGroupTask) {
  std::atomic<int> hooked{0};
  std::atomic<int> ran{0};
  EXPECT_TRUE(AllOk(ParallelFor(
      2, 32, [&hooked](uint64_t) { hooked.fetch_add(1); },
      [&ran](size_t) { ran.fetch_add(1); })));
  EXPECT_EQ(hooked.load(), 32);
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, ThrowingHookFailsTheGroupNotTheProcess) {
  // The fault-injection contract: a hook that throws skips the task body and
  // fails that index, exactly like the task itself throwing.
  std::atomic<int> ran{0};
  std::vector<Status> statuses = ParallelFor(
      2, 4,
      [](uint64_t index) {
        if (index == 2) throw std::runtime_error("hook fault");
      },
      [&ran](size_t i) {
        EXPECT_NE(i, 2u);
        ran.fetch_add(1);
      });
  EXPECT_EQ(statuses[2].code(), StatusCode::kInternal);
  EXPECT_TRUE(statuses[0].ok() && statuses[1].ok() && statuses[3].ok());
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, GroupTaskIndicesAreSubmissionOrdered) {
  // The hook sees each index 0..n-1 exactly once, and the index it sees is
  // the one the task body gets — the property deterministic fault injection
  // relies on.
  std::vector<uint64_t> seen;
  std::mutex mu;
  std::atomic<bool> matched{true};
  EXPECT_TRUE(AllOk(ParallelFor(
      4, 100,
      [&](uint64_t index) {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(index);
      },
      [&](size_t i) {
        std::lock_guard<std::mutex> lock(mu);
        if (std::find(seen.begin(), seen.end(), i) == seen.end()) {
          matched = false;
        }
      })));
  EXPECT_TRUE(matched.load());
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace bcast
