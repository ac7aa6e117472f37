#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "tree/builders.h"
#include "util/rng.h"
#include "workload/query_sampler.h"
#include "workload/weights.h"

namespace bcast {
namespace {

TEST(WeightsTest, UniformWeightsRespectRange) {
  Rng rng(1);
  std::vector<double> w = UniformWeights(&rng, 1000, 5.0, 10.0);
  ASSERT_EQ(w.size(), 1000u);
  for (double x : w) {
    EXPECT_GE(x, 5.0);
    EXPECT_LT(x, 10.0);
  }
  double mean = std::accumulate(w.begin(), w.end(), 0.0) / 1000.0;
  EXPECT_NEAR(mean, 7.5, 0.2);
}

TEST(WeightsTest, NormalWeightsMatchMoments) {
  Rng rng(2);
  std::vector<double> w = NormalWeights(&rng, 20000, 100.0, 20.0);
  double mean = std::accumulate(w.begin(), w.end(), 0.0) / w.size();
  double var = 0.0;
  for (double x : w) var += (x - mean) * (x - mean);
  var /= static_cast<double>(w.size());
  EXPECT_NEAR(mean, 100.0, 1.0);
  EXPECT_NEAR(std::sqrt(var), 20.0, 1.0);
}

TEST(WeightsTest, NormalWeightsClampAtMinimum) {
  Rng rng(3);
  std::vector<double> w = NormalWeights(&rng, 5000, 1.0, 50.0, 0.5);
  for (double x : w) EXPECT_GE(x, 0.5);
}

TEST(WeightsTest, ZipfWeightsDescendAndNormalize) {
  std::vector<double> w = ZipfWeights(100, 0.8, 1000.0);
  ASSERT_EQ(w.size(), 100u);
  for (size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1000.0, 1e-6);
}

TEST(WeightsTest, ZipfThetaZeroIsUniform) {
  std::vector<double> w = ZipfWeights(10, 0.0, 100.0);
  for (double x : w) EXPECT_NEAR(x, 10.0, 1e-9);
}

TEST(WeightsTest, EqualWeights) {
  std::vector<double> w = EqualWeights(7, 3.5);
  ASSERT_EQ(w.size(), 7u);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 3.5);
}

TEST(QuerySamplerTest, SamplesProportionallyToWeights) {
  IndexTree tree = MakePaperExampleTree();  // A:20 B:10 C:15 D:7 E:18
  QuerySampler sampler(tree);
  Rng rng(4);
  std::vector<int> hits(static_cast<size_t>(tree.num_nodes()), 0);
  const int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) {
    NodeId d = sampler.Sample(&rng);
    ASSERT_TRUE(tree.is_data(d));
    ++hits[static_cast<size_t>(d)];
  }
  for (NodeId d : tree.DataNodes()) {
    double expected = tree.weight(d) / 70.0 * kDraws;
    EXPECT_NEAR(hits[static_cast<size_t>(d)], expected, expected * 0.1)
        << tree.label(d);
  }
}

// --- RNG ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, UniformDoubleInHalfOpenRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(7);
  std::vector<double> weights = {0.0, 3.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[1], 7500, 300);
  EXPECT_NEAR(counts[2], 2500, 300);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(8);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

// --- Status / Result -----------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad fanout");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad fanout");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);

  Result<int> err_result(NotFoundError("missing"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
}

TEST(ResultDeathTest, ValueOnErrorChecks) {
  Result<int> err_result(NotFoundError("missing"));
  EXPECT_DEATH(err_result.value(), "missing");
}

}  // namespace
}  // namespace bcast
