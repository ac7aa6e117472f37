// Unit tests for the parallel execution subsystem: the generic engine on a
// toy problem (where the exact expansion schedule is predictable), the
// topological-tree adapter, option plumbing through FindOptimalAllocation,
// and the PlanMany batch facade.

#include "exec/parallel_search.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "alloc/optimal.h"
#include "alloc/topo_parallel.h"
#include "alloc/topo_search.h"
#include "core/planner.h"
#include "tree/tree_io.h"
#include "util/status.h"

namespace bcast {
namespace {

constexpr char kPaperTree[] = "(1 (2 A:20 B:10) (3 (4 C:15 D:7) E:18))";

// ---------------------------------------------------------------------------
// Toy problem: place the elements {1,2,4,8} (weights 3, 2, 1, 0.5) one per
// slot, cost w(element) * slot with slots starting at 2 (the root occupies
// slot 1). The optimum is heaviest-first: path [1,2,4,8], cost 18.5. Several
// orders reach the same (mask, last_set) with different costs, which is what
// the transposition cache memoizes.
// ---------------------------------------------------------------------------

class ToyProblem : public BnbProblem {
 public:
  BnbState Root() const override { return BnbState{0, 0, 1, 0.0}; }

  bool IsGoal(const BnbState& state) const override {
    return state.mask == 0xF;
  }

  void Expand(const BnbState& state,
              std::vector<uint64_t>* subsets) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++expand_counts_[{state.mask, state.last_set}];
    }
    subsets->clear();
    for (uint64_t bit : {1ull, 2ull, 4ull, 8ull}) {  // weight-descending
      if ((state.mask & bit) == 0) subsets->push_back(bit);
    }
  }

  BnbState Child(const BnbState& state, uint64_t subset) const override {
    return BnbState{state.mask | subset, subset, state.depth + 1,
                    state.v + Weight(subset) *
                                  static_cast<double>(state.depth + 1)};
  }

  double Estimate(const BnbState& state) const override { return state.v; }

  bool SubsetLess(uint64_t a, uint64_t b) const override {
    if (Weight(a) != Weight(b)) return Weight(a) > Weight(b);
    return a < b;
  }

  int ExpandCount(uint64_t mask, uint64_t last_set) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = expand_counts_.find({mask, last_set});
    return it == expand_counts_.end() ? 0 : it->second;
  }

  int TotalExpandCalls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    int total = 0;
    for (const auto& [state, count] : expand_counts_) total += count;
    return total;
  }

 private:
  static double Weight(uint64_t bit) {
    switch (bit) {
      case 1: return 3.0;
      case 2: return 2.0;
      case 4: return 1.0;
      default: return 0.5;
    }
  }

  mutable std::mutex mutex_;
  mutable std::map<std::pair<uint64_t, uint64_t>, int> expand_counts_;
};

ParallelSearchOptions SequentialOptions() {
  // One thread and no task spawning: the engine degenerates to a plain
  // canonical-order DFS, so expansion counts are exact, not just bounds.
  ParallelSearchOptions options;
  options.num_threads = 1;
  options.spawn_depth = 0;
  return options;
}

TEST(ParallelSearchTest, ToyProblemFindsHeaviestFirstOptimum) {
  ToyProblem problem;
  auto result = RunParallelSearch(problem, SequentialOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->best_path, (std::vector<uint64_t>{1, 2, 4, 8}));
  EXPECT_DOUBLE_EQ(result->best_v, 18.5);
  EXPECT_GE(result->stats.paths_completed, 1u);
}

TEST(ParallelSearchTest, CacheSkipsDominatedStateExactlyOnce) {
  // The state (mask={1,2,4}, last_set={4}) is reached twice: first via the
  // canonical prefix [1,2,4] (v = 16), later via [2,1,4] (v = 17). With the
  // cache the second visit is dominated and must NOT be re-expanded; without
  // the cache it is.
  ToyProblem cached_problem;
  ParallelSearchOptions cached_options = SequentialOptions();
  auto cached = RunParallelSearch(cached_problem, cached_options);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(cached_problem.ExpandCount(0x7, 0x4), 1);
  EXPECT_GE(cached->stats.cache_hits, 1u);
  EXPECT_GT(cached->stats.cache_entries, 0u);

  ToyProblem uncached_problem;
  ParallelSearchOptions uncached_options = SequentialOptions();
  // An arena smaller than any entry records nothing: no memoization.
  uncached_options.store_arena_bytes = 8;
  auto uncached = RunParallelSearch(uncached_problem, uncached_options);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  EXPECT_EQ(uncached_problem.ExpandCount(0x7, 0x4), 2);
  EXPECT_EQ(uncached->stats.cache_hits, 0u);
  EXPECT_EQ(uncached->stats.cache_entries, 0u);

  // Memoization saves work but never changes the answer. (nodes_expanded
  // counts dominated states too — the skip happens before their children are
  // generated — so the saving shows up in Expand calls, not visits.)
  EXPECT_EQ(cached->best_path, uncached->best_path);
  EXPECT_EQ(cached->best_v, uncached->best_v);
  EXPECT_LT(cached_problem.TotalExpandCalls(),
            uncached_problem.TotalExpandCalls());
}

TEST(ParallelSearchTest, ResultInvariantAcrossThreadCounts) {
  ToyProblem reference_problem;
  auto reference = RunParallelSearch(reference_problem, SequentialOptions());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ToyProblem problem;
    ParallelSearchOptions options;
    options.num_threads = threads;
    auto result = RunParallelSearch(problem, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->best_path, reference->best_path);
    EXPECT_EQ(result->best_v, reference->best_v);  // exact, not approximate
    EXPECT_EQ(result->stats.threads_used, threads);
  }
}

TEST(ParallelSearchTest, ResultInvariantAcrossBatchFactors) {
  // batch_factor only changes task granularity at the spawn frontier; the
  // determinism argument (parallel_search.h) promises the same answer for
  // every value, including 1 (the pre-batching one-task-per-child shape).
  ToyProblem reference_problem;
  auto reference = RunParallelSearch(reference_problem, SequentialOptions());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int batch : {1, 2, 3, 8}) {
    for (int threads : {2, 8}) {
      SCOPED_TRACE("batch " + std::to_string(batch) + " threads " +
                   std::to_string(threads));
      ToyProblem problem;
      ParallelSearchOptions options;
      options.num_threads = threads;
      options.batch_factor = batch;
      auto result = RunParallelSearch(problem, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->best_path, reference->best_path);
      EXPECT_EQ(result->best_v, reference->best_v);
    }
  }
}

TEST(ParallelSearchTest, RejectsNegativeOptions) {
  ToyProblem problem;
  ParallelSearchOptions options;
  options.num_threads = -1;
  auto result = RunParallelSearch(problem, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  options = ParallelSearchOptions{};
  options.batch_factor = 0;
  result = RunParallelSearch(problem, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  options = ParallelSearchOptions{};
  options.store_max_cas_retries = 0;
  result = RunParallelSearch(problem, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelSearchTest, ExpansionBudgetIsEnforced) {
  ToyProblem problem;
  ParallelSearchOptions options = SequentialOptions();
  options.max_expansions = 3;
  auto result = RunParallelSearch(problem, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

class DeadEndProblem : public ToyProblem {
 public:
  void Expand(const BnbState&, std::vector<uint64_t>* subsets) const override {
    subsets->clear();  // no successors, goal unreachable
  }
};

TEST(ParallelSearchTest, UnreachableGoalReportsInternalError) {
  DeadEndProblem problem;
  auto result = RunParallelSearch(problem, SequentialOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Topological-tree adapter
// ---------------------------------------------------------------------------

TEST(TopoParallelTest, MatchesSingleThreadedSearchByteForByte) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  TopoTreeSearch::Options options;
  options.num_channels = 2;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  auto search = TopoTreeSearch::Create(*tree, options);
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  auto sequential = search->FindOptimalDfs();
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto parallel = FindOptimalTopoParallel(*search, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->slots, sequential->slots);
    EXPECT_EQ(parallel->average_data_wait, sequential->average_data_wait);
    EXPECT_GE(parallel->stats.nodes_expanded, 1u);
    EXPECT_GE(parallel->stats.paths_completed, 1u);
  }
}

TEST(TopoParallelTest, SequentialCutoffForcesSingleThreadOnSmallSearches) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  TopoTreeSearch::Options options;
  options.num_channels = 2;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  auto search = TopoTreeSearch::Create(*tree, options);
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  TopoBnbProblem problem(*search);
  // Paper tree: 9 nodes, 8 unplaced below the root — under the default
  // cutoff, so an 8-thread request must fall back to a single thread.
  EXPECT_EQ(problem.SubtreeSizeHint(problem.Root()), 8u);
  ParallelSearchOptions gated_options;
  gated_options.num_threads = 8;
  ASSERT_LT(problem.SubtreeSizeHint(problem.Root()),
            gated_options.min_parallel_subtree);
  auto gated = RunParallelSearch(problem, gated_options);
  ASSERT_TRUE(gated.ok()) << gated.status().ToString();
  EXPECT_EQ(gated->stats.threads_used, 1);

  // Disabling the cutoff restores the requested pool — and the answer is
  // byte-identical either way (the engine is schedule-invariant).
  ParallelSearchOptions ungated_options;
  ungated_options.num_threads = 8;
  ungated_options.min_parallel_subtree = 0;
  auto ungated = RunParallelSearch(problem, ungated_options);
  ASSERT_TRUE(ungated.ok()) << ungated.status().ToString();
  EXPECT_EQ(ungated->stats.threads_used, 8);
  EXPECT_EQ(gated->best_path, ungated->best_path);
  EXPECT_EQ(gated->best_v, ungated->best_v);
}

TEST(OptimalOptionsTest, NumThreadsDispatchesToTheSameAnswer) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  OptimalOptions sequential_options;
  auto sequential = FindOptimalAllocation(*tree, 2, sequential_options);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  for (int threads : {0, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    OptimalOptions options;
    options.num_threads = threads;
    auto parallel = FindOptimalAllocation(*tree, 2, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->slots, sequential->slots);
    EXPECT_EQ(parallel->average_data_wait, sequential->average_data_wait);
  }

  OptimalOptions bad;
  bad.num_threads = -2;
  auto rejected = FindOptimalAllocation(*tree, 2, bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(OptimalOptionsTest, BoundKindIsForwardedToTheTopoSearch) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  SearchStats direct_stats[2];
  AllocationResult via_options[2];
  const TopoTreeSearch::BoundKind kinds[2] = {
      TopoTreeSearch::BoundKind::kPaperNextSlot,
      TopoTreeSearch::BoundKind::kPacked};
  for (int i = 0; i < 2; ++i) {
    TopoTreeSearch::Options topo_options;
    topo_options.num_channels = 2;
    topo_options.prune_candidates = true;
    topo_options.prune_local_swap = true;
    topo_options.bound = kinds[i];
    auto search = TopoTreeSearch::Create(*tree, topo_options);
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    auto direct = search->FindOptimalDfs();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    direct_stats[i] = direct->stats;

    OptimalOptions options;
    options.bound = kinds[i];
    // Unseeded, so the facade's expansion count can be compared against the
    // directly-driven (also unseeded) search.
    options.seed_incumbent = OptimalOptions::SeedIncumbent::kNone;
    auto result = FindOptimalAllocation(*tree, 2, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    via_options[i] = *result;
    // The facade must reproduce the directly-configured search exactly —
    // expansion counts included, which pin the bound actually used.
    EXPECT_EQ(result->stats.nodes_expanded, direct_stats[i].nodes_expanded);
    EXPECT_EQ(result->average_data_wait, direct->average_data_wait);
  }
  // Both bounds are admissible, so the answer agrees; the looser paper bound
  // prunes less on this instance, which proves the knob reaches the search.
  EXPECT_EQ(via_options[0].slots, via_options[1].slots);
  EXPECT_GT(direct_stats[0].nodes_expanded, direct_stats[1].nodes_expanded);
}

// ---------------------------------------------------------------------------
// PlanMany
// ---------------------------------------------------------------------------

TEST(PlanManyTest, MatchesPlanBroadcastPerRequest) {
  auto tree_a = ParseTree(kPaperTree);
  auto tree_b = ParseTree("(1 A:5 (2 B:9 C:3) D:1)");
  auto tree_c = ParseTree("(1 (2 A:4 B:4) (3 C:4 D:4))");
  ASSERT_TRUE(tree_a.ok() && tree_b.ok() && tree_c.ok());

  std::vector<PlanRequest> requests;
  PlannerOptions options;
  options.num_channels = 2;
  options.strategy = PlanStrategy::kOptimal;
  requests.push_back({&*tree_a, options});
  options.num_channels = 1;
  requests.push_back({&*tree_b, options});
  options.strategy = PlanStrategy::kSorting;
  requests.push_back({&*tree_c, options});

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<Result<BroadcastPlan>> plans = PlanMany(requests, threads);
    ASSERT_EQ(plans.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      auto expected =
          PlanBroadcast(*requests[i].tree, requests[i].options);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(plans[i].ok()) << plans[i].status().ToString();
      EXPECT_EQ(plans[i]->strategy_used, expected->strategy_used);
      EXPECT_EQ(plans[i]->allocation.slots, expected->allocation.slots);
      EXPECT_EQ(plans[i]->costs.average_data_wait,
                expected->costs.average_data_wait);
    }
  }
}

TEST(PlanManyTest, PerRequestErrorsStayInTheirSlot) {
  auto tree = ParseTree(kPaperTree);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  PlannerOptions good;
  good.num_channels = 2;
  PlannerOptions bad;
  bad.num_channels = 0;  // rejected by PlanBroadcast

  std::vector<PlanRequest> requests;
  requests.push_back({&*tree, good});
  requests.push_back({nullptr, good});
  requests.push_back({&*tree, bad});

  std::vector<Result<BroadcastPlan>> plans = PlanMany(requests, 2);
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_TRUE(plans[0].ok()) << plans[0].status().ToString();
  ASSERT_FALSE(plans[1].ok());
  EXPECT_EQ(plans[1].status().code(), StatusCode::kInvalidArgument);
  ASSERT_FALSE(plans[2].ok());
  EXPECT_EQ(plans[2].status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanManyTest, EmptyBatchIsANoOp) {
  EXPECT_TRUE(PlanMany({}, 4).empty());
}

}  // namespace
}  // namespace bcast
