// Anytime planning under a SearchBudget (alloc/search_budget.h): the
// deterministic expansion budget must yield byte-identical plans on every
// run, the reported [lower, upper] gap must bracket the true optimum, and
// every degraded product must still be verifier-clean.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "alloc/optimal.h"
#include "alloc/topo_search.h"
#include "exec/cancel.h"
#include "obs/clock.h"
#include "obs/obs.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "verify/verifier.h"

namespace bcast {
namespace {

// Test clock that advances itself by a fixed step on every read, so a
// wall-clock deadline fires after a deterministic number of polls.
class SteppingClock : public obs::Clock {
 public:
  explicit SteppingClock(uint64_t step_ns) : step_ns_(step_ns) {}
  uint64_t NowNanos() const override { return now_ns_.fetch_add(step_ns_); }

 private:
  const uint64_t step_ns_;
  mutable std::atomic<uint64_t> now_ns_{0};
};

IndexTree MakeInstance(uint64_t seed, int num_nodes) {
  Rng rng(seed);
  return MakeRandomTree(&rng, num_nodes, 3);
}

Status VerifyClean(const IndexTree& tree, int num_channels,
                   const AllocationResult& result) {
  return AllocationVerifier(tree)
      .VerifySlots(num_channels, result.slots, result.average_data_wait)
      .ToStatus();
}

TEST(AnytimeSearchTest, ExpansionBudgetIsByteIdenticalAcrossThreadCounts) {
  // The determinism contract: the DFS visits states in one canonical order
  // and checks the budget before the memo and before counting, so a
  // max_expansions budget stops at the same state on every run — slots, ADW,
  // provenance, the cost bracket and the expansion count are bit-stable.
  // num_threads is accepted and ignored (the exact search is sequential), so
  // the repeated runs also vary it.
  for (uint64_t seed : {3u, 17u, 41u}) {
    IndexTree tree = MakeInstance(seed, 18);
    for (uint64_t budget : {5u, 50u, 500u}) {
      OptimalOptions base;
      base.budget.max_expansions = budget;
      base.num_threads = 1;
      auto reference = FindOptimalAllocation(tree, 2, base);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      EXPECT_TRUE(VerifyClean(tree, 2, *reference).ok());
      if (reference->provenance == PlanProvenance::kAnytime) {
        EXPECT_EQ(reference->stats.nodes_expanded, budget);
      }
      for (int threads : {1, 2, 8}) {
        OptimalOptions options = base;
        options.num_threads = threads;
        auto result = FindOptimalAllocation(tree, 2, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->slots, reference->slots)
            << "seed " << seed << " budget " << budget << " threads "
            << threads;
        EXPECT_EQ(result->average_data_wait, reference->average_data_wait);
        EXPECT_EQ(result->provenance, reference->provenance);
        EXPECT_EQ(result->cost_lower_bound, reference->cost_lower_bound);
        EXPECT_EQ(result->cost_upper_bound, reference->cost_upper_bound);
        EXPECT_EQ(result->stats.nodes_expanded,
                  reference->stats.nodes_expanded);
      }
    }
  }
}

TEST(AnytimeSearchTest, GapBracketsTheExactOptimum) {
  // Whatever the budget, [cost_lower_bound, cost_upper_bound] must contain
  // the true exact optimum, and the bracket itself must be ordered.
  for (uint64_t seed : {1u, 2u, 5u, 9u, 13u}) {
    IndexTree tree = MakeInstance(seed, 15);
    auto exact = FindOptimalAllocation(tree, 2);
    ASSERT_TRUE(exact.ok());
    ASSERT_EQ(exact->provenance, PlanProvenance::kExact);
    EXPECT_NEAR(exact->cost_lower_bound, exact->average_data_wait, 1e-12);
    EXPECT_NEAR(exact->cost_upper_bound, exact->average_data_wait, 1e-12);
    for (uint64_t budget : {1u, 10u, 100u, 1000u, 100000u}) {
      OptimalOptions options;
      options.budget.max_expansions = budget;
      auto result = FindOptimalAllocation(tree, 2, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_LE(result->cost_lower_bound,
                exact->average_data_wait * (1.0 + 1e-9))
          << "seed " << seed << " budget " << budget;
      EXPECT_GE(result->cost_upper_bound,
                exact->average_data_wait * (1.0 - 1e-9))
          << "seed " << seed << " budget " << budget;
      EXPECT_LE(result->cost_lower_bound,
                result->cost_upper_bound * (1.0 + 1e-9));
      EXPECT_TRUE(VerifyClean(tree, 2, *result).ok());
      // The served plan's own cost is the upper end of the bracket.
      EXPECT_NEAR(result->cost_upper_bound, result->average_data_wait, 1e-12);
    }
  }
}

TEST(AnytimeSearchTest, LargeBudgetDegeneratesToExact) {
  IndexTree tree = MakeInstance(7, 14);
  auto exact = FindOptimalAllocation(tree, 2);
  ASSERT_TRUE(exact.ok());
  OptimalOptions options;
  options.budget.max_expansions = 50'000'000;
  auto result = FindOptimalAllocation(tree, 2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->provenance, PlanProvenance::kExact);
  EXPECT_EQ(result->slots, exact->slots);
  EXPECT_EQ(result->average_data_wait, exact->average_data_wait);
}

TEST(AnytimeSearchTest, TinyBudgetFallsBackToHeuristic) {
  // One expansion cannot complete any path on a non-trivial tree: stage 3 of
  // the ladder serves the sorting heuristic, tagged as such.
  obs::Registry registry;
  obs::ScopedObservability scope(&registry, nullptr);
  IndexTree tree = MakeInstance(11, 18);
  OptimalOptions options;
  options.budget.max_expansions = 1;
  auto result = FindOptimalAllocation(tree, 2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->provenance, PlanProvenance::kHeuristic);
  EXPECT_TRUE(VerifyClean(tree, 2, *result).ok());
  EXPECT_GE(registry.Snapshot().CounterOr("search.budget.heuristic_fallback", 0),
            1u);
}

TEST(AnytimeSearchTest, MidBudgetYieldsAnytimeIncumbent) {
  // Find a budget that stops the search after an incumbent exists but before
  // the search completes, and check it is tagged kAnytime with a real gap.
  bool saw_anytime = false;
  for (uint64_t seed : {3u, 17u, 41u, 55u}) {
    IndexTree tree = MakeInstance(seed, 18);
    auto exact = FindOptimalAllocation(tree, 2);
    ASSERT_TRUE(exact.ok());
    for (uint64_t budget : {20u, 60u, 200u, 600u}) {
      OptimalOptions options;
      options.budget.max_expansions = budget;
      auto result = FindOptimalAllocation(tree, 2, options);
      ASSERT_TRUE(result.ok());
      if (result->provenance != PlanProvenance::kAnytime) continue;
      saw_anytime = true;
      // An anytime incumbent is feasible, so its cost is >= the optimum.
      EXPECT_GE(result->average_data_wait,
                exact->average_data_wait * (1.0 - 1e-9));
      EXPECT_LE(result->cost_lower_bound,
                exact->average_data_wait * (1.0 + 1e-9));
      EXPECT_TRUE(VerifyClean(tree, 2, *result).ok());
    }
  }
  EXPECT_TRUE(saw_anytime)
      << "no (seed, budget) pair stopped with an incumbent — widen the sweep";
}

TEST(AnytimeSearchTest, PreCancelledTokenStopsImmediately) {
  IndexTree tree = MakeInstance(19, 18);
  CancelToken cancel;
  cancel.Cancel();
  // Through the ladder: cancellation before any incumbent -> heuristic.
  OptimalOptions options;
  options.budget.cancel = &cancel;
  auto result = FindOptimalAllocation(tree, 2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->provenance, PlanProvenance::kHeuristic);
  // Direct DFS call: the raw search reports RESOURCE_EXHAUSTED instead.
  TopoTreeSearch::Options topo_options;
  topo_options.num_channels = 2;
  auto search = TopoTreeSearch::Create(tree, topo_options);
  ASSERT_TRUE(search.ok());
  SearchBudget budget;
  budget.cancel = &cancel;
  auto raw = search->FindOptimalDfs(
      std::numeric_limits<double>::infinity(), &budget);
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kResourceExhausted);
}

TEST(AnytimeSearchTest, ExpiredDeadlineStopsTheSequentialSearch) {
  // A stepping clock makes the wall-clock deadline fire on the first poll:
  // the search stops before expanding anything and the ladder serves the
  // heuristic. Deterministic because the clock is injected.
  IndexTree tree = MakeInstance(23, 18);
  SteppingClock clock(1'000'000);  // 1ms per read
  OptimalOptions options;
  options.budget.deadline_ns = 1;  // expires by the first poll
  options.budget.clock = &clock;
  auto result = FindOptimalAllocation(tree, 2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->provenance, PlanProvenance::kHeuristic);
  EXPECT_TRUE(VerifyClean(tree, 2, *result).ok());
}

TEST(AnytimeSearchTest, ManualClockWithoutAdvanceNeverExpires) {
  // A frozen ManualClock means the deadline can never fire: the budgeted
  // search must complete exactly as the unbudgeted one.
  IndexTree tree = MakeInstance(29, 14);
  auto exact = FindOptimalAllocation(tree, 2);
  ASSERT_TRUE(exact.ok());
  obs::ManualClock clock(1'000);
  OptimalOptions options;
  options.budget.deadline_ns = 1;
  options.budget.clock = &clock;
  auto result = FindOptimalAllocation(tree, 2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->provenance, PlanProvenance::kExact);
  EXPECT_EQ(result->slots, exact->slots);
}

}  // namespace
}  // namespace bcast
