#include "alloc/heuristics.h"

#include <gtest/gtest.h>

#include "alloc/optimal.h"
#include "tree/builders.h"
#include "tree/tree_io.h"
#include "util/rng.h"
#include "workload/weights.h"

namespace bcast {
namespace {

// --- SortIndexTree (paper Fig. 13) --------------------------------------------

TEST(SortIndexTreeTest, ReproducesPaperFig13) {
  IndexTree tree = MakePaperExampleTree();
  IndexTree sorted = SortIndexTree(tree);
  // Fig. 13: children of 3 reorder to (E, 4); 2 before 3; A before B; C
  // before D. Serialized:
  EXPECT_EQ(FormatTree(sorted), "(1 (2 A:20 B:10) (3 E:18 (4 C:15 D:7)))");
}

TEST(SortIndexTreeTest, PreservesNodeCountAndWeights) {
  Rng rng(11);
  for (int rep = 0; rep < 10; ++rep) {
    IndexTree tree = MakeRandomTree(&rng, 12, 4);
    IndexTree sorted = SortIndexTree(tree);
    EXPECT_EQ(sorted.num_nodes(), tree.num_nodes());
    EXPECT_EQ(sorted.num_data_nodes(), tree.num_data_nodes());
    EXPECT_DOUBLE_EQ(sorted.total_data_weight(), tree.total_data_weight());
  }
}

// --- PackLinearOrder ----------------------------------------------------------

TEST(PackLinearOrderTest, SingleChannelKeepsTheOrder) {
  IndexTree tree = MakePaperExampleTree();
  std::vector<NodeId> order = tree.PreorderSequence();
  SlotSequence slots = PackLinearOrder(tree, 1, order);
  ASSERT_EQ(slots.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(slots[i], std::vector<NodeId>{order[i]});
  }
}

TEST(PackLinearOrderTest, MultiChannelPacksAndStaysFeasible) {
  Rng rng(12);
  for (int rep = 0; rep < 20; ++rep) {
    IndexTree tree = MakeRandomTree(&rng, 15, 4);
    std::vector<NodeId> order = tree.PreorderSequence();
    for (int k = 1; k <= 4; ++k) {
      SlotSequence slots = PackLinearOrder(tree, k, order);
      EXPECT_TRUE(ValidateSlotSequence(tree, k, slots).ok())
          << "k = " << k << "\n" << tree.ToString();
      // Packing with more channels never lengthens the cycle.
      if (k > 1) {
        EXPECT_LE(slots.size(), PackLinearOrder(tree, k - 1, order).size());
      }
    }
  }
}

TEST(PackLinearOrderTest, DefersChildSharingSlotWithParent) {
  // Chain tree: every node is the parent of the next, so each slot can hold
  // only one node regardless of the channel count.
  IndexTree chain = MakeChainTree(4, 10.0);
  SlotSequence slots = PackLinearOrder(chain, 3, chain.PreorderSequence());
  EXPECT_EQ(slots.size(), static_cast<size_t>(chain.num_nodes()));
  for (const auto& slot : slots) EXPECT_EQ(slot.size(), 1u);
}

// --- SortingHeuristic ----------------------------------------------------------

TEST(SortingHeuristicTest, SingleChannelIsSortedPreorder) {
  IndexTree tree = MakePaperExampleTree();
  auto result = SortingHeuristic(tree, 1);
  ASSERT_TRUE(result.ok());
  // Sorted preorder: 1 2 A B 3 E 4 C D.
  std::vector<std::string> labels;
  for (const auto& slot : result->slots) labels.push_back(tree.label(slot[0]));
  EXPECT_EQ(labels, (std::vector<std::string>{"1", "2", "A", "B", "3", "E", "4",
                                              "C", "D"}));
  // On this example the sorting heuristic happens to hit the optimum 391/70.
  EXPECT_NEAR(result->average_data_wait, 391.0 / 70.0, 1e-9);
}

class SortingHeuristicSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(SortingHeuristicSweep, FeasibleAndNeverBeatsOptimal) {
  auto [seed, channels] = GetParam();
  Rng rng(seed);
  IndexTree tree = MakeRandomTree(&rng, static_cast<int>(rng.UniformInt(3, 9)),
                                  3);
  auto heuristic = SortingHeuristic(tree, channels);
  ASSERT_TRUE(heuristic.ok());
  EXPECT_TRUE(ValidateSlotSequence(tree, channels, heuristic->slots).ok());

  if (tree.num_nodes() <= 14) {
    auto optimal = FindOptimalAllocation(tree, channels);
    ASSERT_TRUE(optimal.ok());
    EXPECT_GE(heuristic->average_data_wait,
              optimal->average_data_wait - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortingHeuristicSweep,
    ::testing::Combine(::testing::Range(uint64_t{100}, uint64_t{115}),
                       ::testing::Values(1, 2, 3)));

TEST(SortingHeuristicTest, NearOptimalForLowVariance) {
  // The Fig. 14 effect: with m = 4 and nearly equal weights the sorted
  // preorder is close to optimal.
  Rng rng(13);
  std::vector<double> weights = NormalWeights(&rng, 16, 100.0, 5.0);
  auto tree = MakeFullBalancedTree(4, 3, weights);
  ASSERT_TRUE(tree.ok());
  auto heuristic = SortingHeuristic(*tree, 1);
  auto optimal = FindOptimalAllocation(*tree, 1);
  ASSERT_TRUE(heuristic.ok());
  ASSERT_TRUE(optimal.ok());
  EXPECT_LE(heuristic->average_data_wait, optimal->average_data_wait * 1.02);
}

// --- ShrinkingHeuristic ---------------------------------------------------------

TEST(ShrinkingHeuristicTest, ExactWhenTreeFitsTheBudget) {
  IndexTree tree = MakePaperExampleTree();
  auto shrunk = ShrinkingHeuristic(tree, 1);
  auto optimal = FindOptimalAllocation(tree, 1);
  ASSERT_TRUE(shrunk.ok());
  ASSERT_TRUE(optimal.ok());
  EXPECT_NEAR(shrunk->average_data_wait, optimal->average_data_wait, 1e-9);
}

class ShrinkingSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(ShrinkingSweep, FeasibleOnLargeTreesForBothStrategies) {
  auto [seed, channels, strategy] = GetParam();
  Rng rng(seed);
  IndexTree tree = MakeRandomTree(&rng, 60, 4);  // well over the exact budget
  ShrinkOptions options;
  options.exact_size_limit = 12;
  options.strategy = strategy == 0 ? ShrinkOptions::Strategy::kNodeCombination
                                   : ShrinkOptions::Strategy::kTreePartitioning;
  auto result = ShrinkingHeuristic(tree, channels, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ValidateSlotSequence(tree, channels, result->slots).ok());
  // The heuristic is at least as good as the naive preorder floor? Not
  // guaranteed in theory, but it must stay within the trivial upper bound of
  // broadcasting every node before any data: cycle length.
  EXPECT_LE(result->average_data_wait,
            static_cast<double>(result->slots.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShrinkingSweep,
    ::testing::Combine(::testing::Range(uint64_t{200}, uint64_t{208}),
                       ::testing::Values(1, 3), ::testing::Values(0, 1)));

TEST(ShrinkingHeuristicTest, CombinationReordersHeavyGroupsFirst) {
  // Deterministic skew: 10 sibling groups whose weights *ascend* in key
  // order, so plain preorder is pessimal. After node combination the tree is
  // a star of pseudo data nodes and the exact search orders groups by
  // descending weight — shrinking must beat preorder decisively.
  IndexTree tree;
  NodeId root = tree.AddIndexNode(kInvalidNode, "r");
  for (int g = 0; g < 10; ++g) {
    NodeId group = tree.AddIndexNode(root, "g" + std::to_string(g));
    for (int i = 0; i < 3; ++i) {
      tree.AddDataNode(group, 1.0 + 10.0 * g,
                       "d" + std::to_string(g) + "_" + std::to_string(i));
    }
  }
  ASSERT_TRUE(tree.Finalize().ok());  // 41 nodes > exact budget

  ShrinkOptions options;
  options.exact_size_limit = 14;
  auto shrunk = ShrinkingHeuristic(tree, 1, options);
  ASSERT_TRUE(shrunk.ok());
  double naive_cost =
      SlotSequenceDataWait(tree, PackLinearOrder(tree, 1, tree.PreorderSequence()));
  EXPECT_LT(shrunk->average_data_wait, naive_cost * 0.8);
}

TEST(ShrinkingHeuristicTest, RejectsBadLimits) {
  IndexTree tree = MakePaperExampleTree();
  ShrinkOptions options;
  options.exact_size_limit = 0;
  EXPECT_FALSE(ShrinkingHeuristic(tree, 1, options).ok());
  options.exact_size_limit = 65;
  EXPECT_FALSE(ShrinkingHeuristic(tree, 1, options).ok());
}

TEST(ShrinkingTest, PartitioningAcceptsAnAllZeroWeightSubtree) {
  // A root subtree nobody asks for still has to be placed: solving it on its
  // own must not trip over its zero total weight.
  std::string text = "(r (cold";
  for (int i = 1; i <= 20; ++i) text += " z" + std::to_string(i) + ":0";
  text += ") (hot";
  for (int i = 1; i <= 20; ++i) {
    text += " p" + std::to_string(i) + ":" + std::to_string(i);
  }
  text += "))";
  auto tree = ParseTree(text);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ShrinkOptions options;
  options.exact_size_limit = 12;
  options.strategy = ShrinkOptions::Strategy::kTreePartitioning;
  auto result = ShrinkingHeuristic(*tree, 2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ValidateSlotSequence(*tree, 2, result->slots).ok());
}

}  // namespace
}  // namespace bcast
