#include "alloc/topo_search.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>

#include "alloc/allocation.h"
#include "alloc/baselines.h"
#include "alloc/optimal.h"
#include "best_first_oracle.h"
#include "random_tree_within.h"
#include "tree/builders.h"
#include "tree/tree_io.h"
#include "util/rng.h"
#include "workload/weights.h"

namespace bcast {
namespace {

TopoTreeSearch::Options MakeOptions(int channels, bool pruned) {
  TopoTreeSearch::Options options;
  options.num_channels = channels;
  options.prune_candidates = pruned;
  options.prune_local_swap = pruned;
  return options;
}

// --- exact counts on the paper's example tree -------------------------------

TEST(TopoSearchTest, PaperExampleUnprunedPathCountsAreLinearExtensions) {
  IndexTree tree = MakePaperExampleTree();
  // One channel: paths = topological sorts of the index tree = 9! times the
  // product of hook-length style constraints. Computed independently: the
  // number of linear extensions of this forest-shaped poset.
  auto search1 = TopoTreeSearch::Create(tree, MakeOptions(1, false));
  ASSERT_TRUE(search1.ok());
  auto count1 = search1->CountPaths(1'000'000);
  ASSERT_TRUE(count1.ok());
  // The unpruned 1-channel paths are exactly the linear extensions of the
  // index-tree poset; by the tree hook-length formula that is
  //   9! / (9·3·1·1·5·3·1·1·1) = 362880 / 405 = 896   (the Fig. 6 tree).
  EXPECT_EQ(*count1, 896u);
}

TEST(TopoSearchTest, PaperExamplePrunedTreeIsMuchSmaller) {
  IndexTree tree = MakePaperExampleTree();
  auto unpruned = TopoTreeSearch::Create(tree, MakeOptions(1, false));
  auto pruned = TopoTreeSearch::Create(tree, MakeOptions(1, true));
  ASSERT_TRUE(unpruned.ok());
  ASSERT_TRUE(pruned.ok());
  auto unpruned_nodes = unpruned->CountTreeNodes(10'000'000);
  auto pruned_nodes = pruned->CountTreeNodes(10'000'000);
  ASSERT_TRUE(unpruned_nodes.ok());
  ASSERT_TRUE(pruned_nodes.ok());
  EXPECT_LT(*pruned_nodes, *unpruned_nodes / 4)
      << "pruning should shrink the Fig. 6 tree toward the Fig. 9 tree";
}

TEST(TopoSearchTest, PaperExampleTwoChannelPrunedPaths) {
  // Fig. 10: after pruning, the 2-channel topological tree keeps only a
  // couple of paths (the paper draws 2).
  IndexTree tree = MakePaperExampleTree();
  auto pruned = TopoTreeSearch::Create(tree, MakeOptions(2, true));
  ASSERT_TRUE(pruned.ok());
  auto paths = pruned->CountPaths(1'000'000);
  ASSERT_TRUE(paths.ok());
  auto unpruned = TopoTreeSearch::Create(tree, MakeOptions(2, false));
  auto unpruned_paths = unpruned->CountPaths(1'000'000);
  ASSERT_TRUE(unpruned_paths.ok());
  EXPECT_LE(*paths, 8u);
  EXPECT_GT(*unpruned_paths, *paths * 4);
}

// --- optimality against exhaustive enumeration ------------------------------

struct RandomCase {
  uint64_t seed;
  int num_data;
  int max_fanout;
  int channels;
};

// ctest names each case after its printed parameter. gtest's fallback
// printer dumps an object's raw bytes, padding included, and the four
// padding bytes after `channels` hold arbitrary memory. This prints the same
// "24-byte object <E8-03 ...>" dump with the padding zeroed, so the case
// names stay as they are tracked and depend on the four fields alone.
void PrintTo(const RandomCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(RandomCase)] = {};
  std::memcpy(bytes + offsetof(RandomCase, seed), &c.seed, sizeof c.seed);
  std::memcpy(bytes + offsetof(RandomCase, num_data), &c.num_data,
              sizeof c.num_data);
  std::memcpy(bytes + offsetof(RandomCase, max_fanout), &c.max_fanout,
              sizeof c.max_fanout);
  std::memcpy(bytes + offsetof(RandomCase, channels), &c.channels,
              sizeof c.channels);
  *os << sizeof bytes << "-byte object <";
  for (size_t i = 0; i < sizeof bytes; ++i) {
    if (i > 0) *os << (i % 2 == 0 ? ' ' : '-');
    static constexpr char kHex[] = "0123456789ABCDEF";
    *os << kHex[bytes[i] >> 4] << kHex[bytes[i] & 0xF];
  }
  *os << '>';
}

class PrunedVsExhaustiveTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(PrunedVsExhaustiveTest, PrunedSearchKeepsAnOptimalPath) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree =
      RandomTreeWithin(&rng, param.num_data, param.max_fanout, /*max_nodes=*/13);

  auto exhaustive =
      TopoTreeSearch::Create(tree, MakeOptions(param.channels, false));
  ASSERT_TRUE(exhaustive.ok());
  auto truth = exhaustive->FindOptimalDfs();
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  auto pruned = TopoTreeSearch::Create(tree, MakeOptions(param.channels, true));
  ASSERT_TRUE(pruned.ok());
  auto fast = pruned->FindOptimalDfs();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  EXPECT_NEAR(fast->average_data_wait, truth->average_data_wait, 1e-9)
      << "pruning must preserve at least one optimal path\n"
      << tree.ToString();
  EXPECT_TRUE(
      ValidateSlotSequence(tree, param.channels, fast->slots).ok());
}

TEST_P(PrunedVsExhaustiveTest, BestFirstMatchesDfs) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree =
      RandomTreeWithin(&rng, param.num_data, param.max_fanout, /*max_nodes=*/13);

  auto search = TopoTreeSearch::Create(tree, MakeOptions(param.channels, false));
  ASSERT_TRUE(search.ok());
  auto dfs = search->FindOptimalDfs();
  auto best_first = BestFirstSearch(tree, *search);
  ASSERT_TRUE(dfs.ok());
  ASSERT_TRUE(best_first.ok()) << best_first.status().ToString();
  EXPECT_NEAR(dfs->average_data_wait, best_first->average_data_wait, 1e-9);
  EXPECT_TRUE(
      ValidateSlotSequence(tree, param.channels, best_first->slots).ok());

  // The same agreement on the reduced tree, where the DFS runs its memo.
  auto pruned = TopoTreeSearch::Create(tree, MakeOptions(param.channels, true));
  ASSERT_TRUE(pruned.ok());
  auto memo_dfs = pruned->FindOptimalDfs();
  auto pruned_best_first = BestFirstSearch(tree, *pruned);
  ASSERT_TRUE(memo_dfs.ok());
  ASSERT_TRUE(pruned_best_first.ok()) << pruned_best_first.status().ToString();
  EXPECT_NEAR(memo_dfs->average_data_wait,
              pruned_best_first->average_data_wait, 1e-9);
}

TEST_P(PrunedVsExhaustiveTest, PaperBoundMatchesPackedBound) {
  const RandomCase& param = GetParam();
  Rng rng(param.seed);
  IndexTree tree =
      RandomTreeWithin(&rng, param.num_data, param.max_fanout, /*max_nodes=*/12);

  TopoTreeSearch::Options paper_bound = MakeOptions(param.channels, true);
  paper_bound.bound = TopoTreeSearch::BoundKind::kPaperNextSlot;
  auto a = TopoTreeSearch::Create(tree, paper_bound);
  auto b = TopoTreeSearch::Create(tree, MakeOptions(param.channels, true));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = a->FindOptimalDfs();
  auto rb = b->FindOptimalDfs();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NEAR(ra->average_data_wait, rb->average_data_wait, 1e-9)
      << "the bound choice must not change the optimum, only the speed";
  EXPECT_GE(ra->stats.nodes_expanded, rb->stats.nodes_expanded)
      << "the packed bound should never expand more nodes";
}

std::vector<RandomCase> MakeRandomCases() {
  std::vector<RandomCase> cases;
  uint64_t seed = 1000;
  for (int channels = 1; channels <= 3; ++channels) {
    for (int num_data = 2; num_data <= 7; ++num_data) {
      for (int fanout = 2; fanout <= 4; ++fanout) {
        for (int rep = 0; rep < 3; ++rep) {
          cases.push_back({seed++, num_data, fanout, channels});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, PrunedVsExhaustiveTest,
                         ::testing::ValuesIn(MakeRandomCases()));

// --- Corollary 1 -------------------------------------------------------------

TEST(TopoSearchTest, WideChannelsMakeLevelAllocationOptimal) {
  Rng rng(77);
  for (int rep = 0; rep < 10; ++rep) {
    IndexTree tree = MakeRandomTree(&rng, 5, 3);
    if (tree.num_nodes() > 13) continue;
    int k = tree.max_level_width();
    auto level = LevelAllocation(tree, k);
    ASSERT_TRUE(level.ok());
    auto search = TopoTreeSearch::Create(tree, MakeOptions(k, false));
    ASSERT_TRUE(search.ok());
    auto optimal = search->FindOptimalDfs();
    ASSERT_TRUE(optimal.ok());
    EXPECT_NEAR(level->average_data_wait, optimal->average_data_wait, 1e-9)
        << "Corollary 1 violated for\n"
        << tree.ToString();
  }
}

// --- dominance memo ----------------------------------------------------------

// TranspositionTree()'s optimum at k = 2, recorded before the memo existed.
const SlotSequence kTranspositionSlots = {
    {0}, {1, 6}, {2, 7}, {4, 9}, {5, 10}, {11, 16}, {12, 18}, {13, 14},
    {3, 15}, {8, 17}};

// A fanout-2 random tree (a smaller member of the bench's deep18 family) on
// which different orders of the same nodes reach the same (mask, last set,
// depth) state — the transpositions the memo collapses.
IndexTree TranspositionTree() {
  Rng rng(2);
  return MakeRandomTree(&rng, /*num_data=*/10, /*max_fanout=*/2);
}

TEST(TopoSearchTest, MemoSkipsATranspositionWithoutChangingTheResult) {
  IndexTree tree = TranspositionTree();
  auto search = TopoTreeSearch::Create(tree, MakeOptions(2, true));
  ASSERT_TRUE(search.ok());
  auto memoized = search->FindOptimalDfs();
  ASSERT_TRUE(memoized.ok()) << memoized.status().ToString();
  EXPECT_GT(memoized->stats.dominance_skips, 0u);
  // Every skip replaces one expansion of a duplicate state.
  EXPECT_EQ(memoized->stats.nodes_expanded,
            1 + memoized->stats.nodes_generated -
                memoized->stats.nodes_pruned -
                memoized->stats.bound_cutoffs -
                memoized->stats.dominance_skips);
  // The exhaustive unpruned walk (never memoized) agrees on the optimum,
  // and the pruned search returns the slots it returned before the memo.
  auto exhaustive = TopoTreeSearch::Create(tree, MakeOptions(2, false));
  ASSERT_TRUE(exhaustive.ok());
  auto truth = exhaustive->FindOptimalDfs();
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_EQ(truth->stats.dominance_skips, 0u);
  EXPECT_NEAR(memoized->average_data_wait, truth->average_data_wait, 1e-12);
  EXPECT_EQ(memoized->slots, kTranspositionSlots);
}

TEST(TopoSearchTest, ReusedSearchMatchesAFreshOneByteForByte) {
  // The memo table is recycled by epoch, never cleared: a second call on the
  // same object must see none of the earlier calls' cells, whether those
  // calls were stopped by a budget or ran to completion.
  for (uint64_t seed : {0xA110Cu, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    IndexTree tree = MakeRandomTree(&rng, 12, 3);
    auto reused = TopoTreeSearch::Create(tree, MakeOptions(2, true));
    ASSERT_TRUE(reused.ok());
    SearchBudget budget;
    budget.max_expansions = 40;
    ASSERT_TRUE(reused->FindOptimalDfs(
                   std::numeric_limits<double>::infinity(), &budget).ok());
    auto first = reused->FindOptimalDfs();
    ASSERT_TRUE(first.ok());
    auto second = reused->FindOptimalDfs();
    ASSERT_TRUE(second.ok());

    auto fresh_search = TopoTreeSearch::Create(tree, MakeOptions(2, true));
    ASSERT_TRUE(fresh_search.ok());
    auto fresh = fresh_search->FindOptimalDfs();
    ASSERT_TRUE(fresh.ok());
    for (const AllocationResult* run : {&*first, &*second}) {
      EXPECT_EQ(run->slots, fresh->slots);
      EXPECT_EQ(std::bit_cast<uint64_t>(run->average_data_wait),
                std::bit_cast<uint64_t>(fresh->average_data_wait));
      EXPECT_EQ(run->stats.nodes_expanded, fresh->stats.nodes_expanded);
      EXPECT_EQ(run->stats.dominance_skips, fresh->stats.dominance_skips);
      EXPECT_EQ(run->stats.bound_cutoffs, fresh->stats.bound_cutoffs);
    }
  }
}

// --- the FindOptimalAllocation facade ----------------------------------------

TEST(OptimalOptionsTest, BoundKindIsForwardedToTheTopoSearch) {
  auto tree = ParseTree("(1 (2 A:20 B:10) (3 (4 C:15 D:7) E:18))");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  SearchStats direct_stats[2];
  AllocationResult via_options[2];
  const TopoTreeSearch::BoundKind kinds[2] = {
      TopoTreeSearch::BoundKind::kPaperNextSlot,
      TopoTreeSearch::BoundKind::kPacked};
  for (int i = 0; i < 2; ++i) {
    TopoTreeSearch::Options topo_options = MakeOptions(2, true);
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

TEST(OptimalOptionsTest, NumThreadsDispatchesToTheSameAnswer) {
  // num_threads is accepted and ignored — every exact search runs the
  // sequential DFS — so any thread count returns the same allocation, and a
  // negative value is still a caller bug and stays an error.
  IndexTree tree = MakePaperExampleTree();
  auto sequential = FindOptimalAllocation(tree, 2);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  for (int threads : {0, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    OptimalOptions options;
    options.num_threads = threads;
    auto result = FindOptimalAllocation(tree, 2, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->slots, sequential->slots);
    EXPECT_EQ(result->average_data_wait, sequential->average_data_wait);
    EXPECT_EQ(result->stats.nodes_expanded, sequential->stats.nodes_expanded);
  }

  OptimalOptions bad;
  bad.num_threads = -2;
  auto rejected = FindOptimalAllocation(tree, 2, bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// --- error paths -------------------------------------------------------------

TEST(TopoSearchTest, RejectsOversizedTrees) {
  Rng rng(5);
  IndexTree tree = MakeRandomTree(&rng, 60, 4);  // > 64 nodes with index nodes
  if (tree.num_nodes() <= 64) GTEST_SKIP() << "tree happened to be small";
  auto search = TopoTreeSearch::Create(tree, MakeOptions(1, true));
  EXPECT_FALSE(search.ok());
  EXPECT_EQ(search.status().code(), StatusCode::kInvalidArgument);
}

TEST(TopoSearchTest, RejectsZeroChannels) {
  IndexTree tree = MakePaperExampleTree();
  auto search = TopoTreeSearch::Create(tree, MakeOptions(0, false));
  EXPECT_FALSE(search.ok());
}

TEST(TopoSearchTest, CountPathsHonorsLimit) {
  IndexTree tree = MakePaperExampleTree();
  auto search = TopoTreeSearch::Create(tree, MakeOptions(1, false));
  ASSERT_TRUE(search.ok());
  auto count = search->CountPaths(10);
  EXPECT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace bcast
