#include "tree/tree_io.h"

#include <gtest/gtest.h>

#include <string>

#include "tree/builders.h"
#include "util/rng.h"

namespace bcast {
namespace {

TEST(TreeIoTest, FormatsPaperExample) {
  IndexTree tree = MakePaperExampleTree();
  EXPECT_EQ(FormatTree(tree), "(1 (2 A:20 B:10) (3 (4 C:15 D:7) E:18))");
}

TEST(TreeIoTest, ParsesPaperExample) {
  auto tree = ParseTree("(1 (2 A:20 B:10) (3 (4 C:15 D:7) E:18))");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->num_nodes(), 9);
  EXPECT_EQ(tree->num_data_nodes(), 5);
  EXPECT_DOUBLE_EQ(tree->total_data_weight(), 70.0);
  EXPECT_EQ(tree->label(tree->root()), "1");
}

TEST(TreeIoTest, RoundTripsRandomTrees) {
  Rng rng(321);
  for (int rep = 0; rep < 20; ++rep) {
    IndexTree tree = MakeRandomTree(&rng, static_cast<int>(rng.UniformInt(1, 20)),
                                    static_cast<int>(rng.UniformInt(2, 5)));
    std::string text = FormatTree(tree);
    auto parsed = ParseTree(text);
    ASSERT_TRUE(parsed.ok()) << text << "\n" << parsed.status().ToString();
    EXPECT_EQ(FormatTree(*parsed), text);
    EXPECT_EQ(parsed->num_nodes(), tree.num_nodes());
    EXPECT_DOUBLE_EQ(parsed->total_data_weight(), tree.total_data_weight());
  }
}

TEST(TreeIoTest, ParsesSingleDataNode) {
  auto tree = ParseTree("only:3.5");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_nodes(), 1);
  EXPECT_DOUBLE_EQ(tree->weight(tree->root()), 3.5);
}

TEST(TreeIoTest, AcceptsScientificNotationWeights) {
  auto tree = ParseTree("(r a:1e2 b:2.5e-1)");
  ASSERT_TRUE(tree.ok());
  EXPECT_DOUBLE_EQ(tree->total_data_weight(), 100.25);
}

TEST(TreeIoTest, RejectsMissingParen) {
  auto tree = ParseTree("(r a:1 b:2");
  EXPECT_FALSE(tree.ok());
  EXPECT_NE(tree.status().message().find("missing ')'"), std::string::npos);
}

TEST(TreeIoTest, RejectsEmptyIndexNode) {
  auto tree = ParseTree("(r)");
  EXPECT_FALSE(tree.ok());
  EXPECT_NE(tree.status().message().find("no children"), std::string::npos);
}

TEST(TreeIoTest, RejectsMissingWeight) {
  EXPECT_FALSE(ParseTree("(r a)").ok());
  EXPECT_FALSE(ParseTree("(r a:)").ok());
}

TEST(TreeIoTest, RejectsNegativeWeight) {
  auto tree = ParseTree("(r a:-5)");
  EXPECT_FALSE(tree.ok());
  EXPECT_NE(tree.status().message().find("negative"), std::string::npos);
}

TEST(TreeIoTest, RejectsTrailingGarbage) {
  auto tree = ParseTree("(r a:1 b:2) extra");
  EXPECT_FALSE(tree.ok());
  EXPECT_NE(tree.status().message().find("trailing"), std::string::npos);
}

TEST(TreeIoTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseTree("").ok());
  EXPECT_FALSE(ParseTree("   ").ok());
}

TEST(TreeIoTest, ErrorsIncludeOffset) {
  auto tree = ParseTree("(r a:1 b:x)");
  ASSERT_FALSE(tree.ok());
  EXPECT_NE(tree.status().message().find("offset"), std::string::npos);
}

std::string NestedChain(int levels) {
  std::string text;
  for (int i = 0; i < levels; ++i) text += "(i" + std::to_string(i) + " ";
  text += "A:1";
  text += std::string(static_cast<size_t>(levels), ')');
  return text;
}

TEST(TreeIoTest, ParsesTheDeepestAcceptedNesting) {
  auto tree = ParseTree(NestedChain(kMaxTreeNesting));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->depth(), kMaxTreeNesting + 1);
}

TEST(TreeIoTest, RejectsNestingPastTheCapWithAStatus) {
  // 50,000 levels used to overflow the stack of a recursive parser.
  for (int levels : {kMaxTreeNesting + 1, 50000}) {
    auto tree = ParseTree(NestedChain(levels));
    ASSERT_FALSE(tree.ok()) << levels;
    EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(tree.status().message().find("nesting"), std::string::npos);
  }
}

TEST(TreeIoTest, RejectsZeroAndOverflowingTotalWeights) {
  auto zero = ParseTree("(1 A:0 B:0)");
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zero.status().message().find("zero"), std::string::npos);

  auto overflow = ParseTree("(1 A:1e308 B:1e308)");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.status().message().find("overflow"), std::string::npos);

  auto infinite = ParseTree("(1 A:1 B:1e400)");
  ASSERT_FALSE(infinite.ok());
  EXPECT_EQ(infinite.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(infinite.status().message().find("non-finite"),
            std::string::npos);

  EXPECT_TRUE(ParseTree("(1 A:0 B:1)").ok());
}

}  // namespace
}  // namespace bcast
