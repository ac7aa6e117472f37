// Population-simulator tests. The load-bearing ones are differential: the
// batched slot-major engine must reproduce, client for client and bit for
// bit, what a loop over the reference ClientSimulator produces when each
// client's Rng is derived the same way (the keyed kClient substream of the
// run seed) — on lossless and faulty media, plain and replicated programs.
// The second pillar is scheduling invariance: thread and shard counts must
// never change the report, only the wall clock.

#include "popsim/popsim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc/replication.h"
#include "core/planner.h"
#include "fault/fault_model.h"
#include "sim/client_sim.h"
#include "tree/builders.h"
#include "tree/tree_io.h"
#include "util/rng.h"

namespace bcast {
namespace {

BroadcastPlan MustPlan(const IndexTree& tree, int channels,
                       int root_copies = 1) {
  PlannerOptions options;
  options.num_channels = channels;
  options.strategy = PlanStrategy::kSorting;
  options.replication.root_copies = root_copies;
  auto plan = PlanBroadcast(tree, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

FaultModel MustUniform(int channels, const ChannelLossSpec& spec) {
  auto model = FaultModel::CreateUniform(channels, spec);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

ChannelLossSpec BernoulliSpec(double p, double corrupt_fraction = 0.0) {
  ChannelLossSpec spec;
  spec.kind = LossModelKind::kBernoulli;
  spec.loss_prob = p;
  spec.corrupt_fraction = corrupt_fraction;
  return spec;
}

ChannelLossSpec BurstSpec(double loss_bad = 0.9) {
  ChannelLossSpec spec;
  spec.kind = LossModelKind::kGilbertElliott;
  spec.p_good_to_bad = 0.1;
  spec.p_bad_to_good = 0.3;
  spec.loss_good = 0.02;
  spec.loss_bad = loss_bad;
  spec.corrupt_fraction = 0.25;
  return spec;
}

// Runs the reference simulator once per client — each client's Rng derived
// exactly as popsim derives it — and checks per-client outcomes and summed
// telemetry against the population report.
void ExpectMatchesClientSimulatorLoop(const PopulationSimulator& popsim,
                                      const ClientSimulator& reference,
                                      const PopSimOptions& options) {
  std::vector<ClientOutcome> outcomes;
  auto report = popsim.Run(options, &outcomes);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(outcomes.size(), options.population.num_clients);

  SimOptions ref_options;
  ref_options.num_queries = 1;
  ref_options.faults = options.faults;
  ref_options.recovery = options.recovery;

  const Rng base(options.seed);
  uint64_t succeeded = 0, lost = 0, corrupted = 0, retries = 0, restarts = 0,
           scans = 0, query_draws = 0, fault_draws = 0;
  for (uint64_t id = 0; id < options.population.num_clients; ++id) {
    Rng client_rng = base.Substream(RngStream::kClient, id);
    SimReport ref = reference.Run(&client_rng, ref_options);
    const ClientOutcome& got = outcomes[id];
    ASSERT_EQ(got.success, ref.num_succeeded == 1) << "client " << id;
    if (got.success) {
      // Bit-exact on purpose: both engines anchor waits at integral slot
      // boundaries, so the doubles must agree exactly, not approximately.
      ASSERT_EQ(got.probe_wait, ref.mean_probe_wait) << "client " << id;
      ASSERT_EQ(got.data_wait, ref.mean_data_wait) << "client " << id;
      ASSERT_EQ(static_cast<double>(got.tuning), ref.mean_tuning_time)
          << "client " << id;
      ASSERT_EQ(static_cast<double>(got.switches), ref.mean_switches)
          << "client " << id;
    }
    succeeded += ref.num_succeeded;
    lost += ref.buckets_lost;
    corrupted += ref.buckets_corrupted;
    retries += ref.retries;
    restarts += ref.cycle_restarts;
    scans += ref.sequential_scans;
    query_draws += ref.rng_query_draws;
    fault_draws += ref.rng_fault_draws;
  }
  EXPECT_EQ(report->num_succeeded, succeeded);
  EXPECT_EQ(report->buckets_lost, lost);
  EXPECT_EQ(report->buckets_corrupted, corrupted);
  EXPECT_EQ(report->retries, retries);
  EXPECT_EQ(report->cycle_restarts, restarts);
  EXPECT_EQ(report->sequential_scans, scans);
  EXPECT_EQ(report->rng_query_draws, query_draws);
  EXPECT_EQ(report->rng_fault_draws, fault_draws);
}

TEST(PopSimDifferentialTest, LosslessMatchesClientSimulatorLoop) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  auto reference = ClientSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok()) << popsim.status().ToString();
  ASSERT_TRUE(reference.ok());

  PopSimOptions options;
  options.population.num_clients = 1000;
  options.seed = 0x9d5ab1;
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);
}

TEST(PopSimDifferentialTest, BernoulliFaultsMatchClientSimulatorLoop) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  auto reference = ClientSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());
  ASSERT_TRUE(reference.ok());

  // Loss heavy enough to exercise every recovery rung, including terminal
  // failures under a tightened ladder.
  PopSimOptions options;
  options.population.num_clients = 1000;
  options.seed = 77;
  options.faults = MustUniform(2, BernoulliSpec(0.35, /*corrupt=*/0.4));
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);

  options.recovery.max_retries_per_hop = 1;
  options.recovery.max_cycle_restarts = 0;
  options.recovery.max_scan_passes = 1;
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);

  // Sanity that the fault path was actually walked.
  auto report = popsim->Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->retries, 0u);
  EXPECT_GT(report->sequential_scans, 0u);
  EXPECT_LT(report->num_succeeded, report->num_clients);
}

TEST(PopSimDifferentialTest, GilbertElliottFaultsMatchClientSimulatorLoop) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 3);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  auto reference = ClientSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());
  ASSERT_TRUE(reference.ok());

  // Bursty medium: the per-slot chain advance makes the replayed fault
  // streams draw far past ReplayRng's cache block, so this also covers the
  // engine-reconstruction path.
  PopSimOptions options;
  options.population.num_clients = 500;
  options.seed = 0xbadcab1e;
  options.faults = MustUniform(3, BurstSpec());
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);
}

TEST(PopSimDifferentialTest, ReplicatedProgramMatchesClientSimulatorLoop) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2, /*root_copies=*/2);
  ASSERT_TRUE(plan.replicated.has_value());
  auto popsim = PopulationSimulator::Create(tree, *plan.replicated);
  auto reference = ClientSimulator::Create(tree, *plan.replicated);
  ASSERT_TRUE(popsim.ok()) << popsim.status().ToString();
  ASSERT_TRUE(reference.ok());

  PopSimOptions options;
  options.population.num_clients = 800;
  options.seed = 4242;
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);

  options.faults = MustUniform(2, BernoulliSpec(0.3, 0.5));
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);
}

// Recovery budgets past 255: the per-client failure, restart and hop counters
// must hold any value RecoveryOptions accepts, not wrap at a byte.
TEST(PopSimDifferentialTest, CycleRestartBudgetPast255MatchesClientSimulator) {
  auto tree = ParseTree(
      "(r (a A:9 B:8 C:7) (b D:6 E:5 F:4) G:3 H:2 I:1)");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  BroadcastPlan plan = MustPlan(*tree, 2);
  auto popsim = PopulationSimulator::Create(*tree, plan.schedule);
  auto reference = ClientSimulator::Create(*tree, plan.schedule);
  ASSERT_TRUE(popsim.ok()) << popsim.status().ToString();
  ASSERT_TRUE(reference.ok());

  PopSimOptions options;
  options.population.num_clients = 2000;
  options.seed = 256;
  options.faults = MustUniform(2, BernoulliSpec(0.5));
  options.recovery.max_retries_per_hop = 0;
  options.recovery.max_cycle_restarts = 256;
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);

  auto report = popsim->Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->cycle_restarts, 0u);
  EXPECT_EQ(report->num_succeeded, report->num_clients);
}

TEST(PopSimDifferentialTest, RetryBudgetPast255MatchesClientSimulator) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  auto reference = ClientSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok()) << popsim.status().ToString();
  ASSERT_TRUE(reference.ok());

  // Channel 0 (the probe channel) is lossless; every walk read on channel 1
  // is lost, so a hop there burns its whole retry budget.
  auto faults = FaultModel::Create({ChannelLossSpec{}, BernoulliSpec(1.0)});
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  PopSimOptions options;
  options.population.num_clients = 200;
  options.seed = 257;
  options.faults = *faults;
  options.recovery.max_retries_per_hop = 256;
  ExpectMatchesClientSimulatorLoop(*popsim, *reference, options);

  auto report = popsim->Run(options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->retries, 256u);
  EXPECT_GT(report->cycle_restarts, 0u);
}

// Every field of the report that is not an execution-shape echo
// (threads_used / shards_used) must be identical.
void ExpectReportsIdentical(const PopReport& a, const PopReport& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.num_succeeded, b.num_succeeded);
  EXPECT_EQ(a.mean_probe_wait, b.mean_probe_wait);
  EXPECT_EQ(a.mean_data_wait, b.mean_data_wait);
  EXPECT_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_EQ(a.mean_tuning_time, b.mean_tuning_time);
  EXPECT_EQ(a.mean_switches, b.mean_switches);
  EXPECT_EQ(a.p50_access_time, b.p50_access_time);
  EXPECT_EQ(a.p95_access_time, b.p95_access_time);
  EXPECT_EQ(a.p99_access_time, b.p99_access_time);
  EXPECT_EQ(a.p50_data_wait, b.p50_data_wait);
  EXPECT_EQ(a.p95_data_wait, b.p95_data_wait);
  EXPECT_EQ(a.p99_data_wait, b.p99_data_wait);
  EXPECT_EQ(a.p50_tuning_time, b.p50_tuning_time);
  EXPECT_EQ(a.p95_tuning_time, b.p95_tuning_time);
  EXPECT_EQ(a.p99_tuning_time, b.p99_tuning_time);
  EXPECT_EQ(a.buckets_lost, b.buckets_lost);
  EXPECT_EQ(a.buckets_corrupted, b.buckets_corrupted);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.cycle_restarts, b.cycle_restarts);
  EXPECT_EQ(a.sequential_scans, b.sequential_scans);
  EXPECT_EQ(a.last_slot, b.last_slot);
  EXPECT_EQ(a.rng_query_draws, b.rng_query_draws);
  EXPECT_EQ(a.rng_fault_draws, b.rng_fault_draws);
}

TEST(PopSimTest, ReportIsInvariantAcrossThreadAndShardCounts) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  // A population using every knob at once, on a faulty medium: the hardest
  // configuration to keep scheduling-independent.
  PopSimOptions options;
  options.population.num_clients = 20'000;
  options.population.interest = PopulationSpec::Interest::kZipf;
  options.population.zipf_theta = 1.2;
  options.population.arrival_horizon_cycles = 3;
  options.population.doze_fraction = 0.2;
  options.population.max_doze_cycles = 4;
  options.population.degraded_fraction = 0.1;
  options.seed = 0x5eed;
  options.faults = MustUniform(2, BernoulliSpec(0.05, 0.3));
  options.degraded_faults = MustUniform(2, BurstSpec());

  options.num_threads = 1;
  std::vector<ClientOutcome> baseline_outcomes;
  auto baseline = popsim->Run(options, &baseline_outcomes);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->threads_used, 1);
  EXPECT_GT(baseline->digest, 0u);

  struct Shape {
    int threads;
    int shards;
  };
  for (Shape shape : {Shape{2, 0}, Shape{8, 0}, Shape{8, 13}, Shape{4, 1}}) {
    options.num_threads = shape.threads;
    options.num_shards = shape.shards;
    std::vector<ClientOutcome> outcomes;
    auto report = popsim->Run(options, &outcomes);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectReportsIdentical(*baseline, *report);
    for (uint64_t i = 0; i < outcomes.size(); ++i) {
      ASSERT_EQ(outcomes[i].success, baseline_outcomes[i].success) << i;
      ASSERT_EQ(outcomes[i].probe_wait, baseline_outcomes[i].probe_wait) << i;
      ASSERT_EQ(outcomes[i].data_wait, baseline_outcomes[i].data_wait) << i;
      ASSERT_EQ(outcomes[i].tuning, baseline_outcomes[i].tuning) << i;
      ASSERT_EQ(outcomes[i].switches, baseline_outcomes[i].switches) << i;
    }
  }
}

TEST(PopSimTest, RepeatedRunsAreBitStable) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  PopSimOptions options;
  options.population.num_clients = 5000;
  options.faults = MustUniform(2, BernoulliSpec(0.1));
  options.num_threads = 4;
  auto first = popsim->Run(options);
  auto second = popsim->Run(options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectReportsIdentical(*first, *second);

  // A different seed is a different population.
  options.seed ^= 1;
  auto reseeded = popsim->Run(options);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_NE(reseeded->digest, first->digest);
}

TEST(PopSimTest, DegradedFractionListensThroughWorseMedium) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  PopSimOptions options;
  options.population.num_clients = 4000;
  options.degraded_faults = MustUniform(2, BernoulliSpec(0.4, 0.5));
  auto clean = popsim->Run(options);
  ASSERT_TRUE(clean.ok());
  // Base medium is lossless and nobody is degraded: no faults at all.
  EXPECT_EQ(clean->buckets_lost + clean->buckets_corrupted, 0u);
  EXPECT_EQ(clean->rng_fault_draws, 0u);
  EXPECT_EQ(clean->num_succeeded, clean->num_clients);

  options.population.degraded_fraction = 0.25;
  auto degraded = popsim->Run(options);
  ASSERT_TRUE(degraded.ok());
  EXPECT_GT(degraded->buckets_lost + degraded->buckets_corrupted, 0u);
  EXPECT_GT(degraded->retries, 0u);
  // Only the degraded subset draws fault values.
  EXPECT_GT(degraded->rng_fault_draws, 0u);
  // The clean subset's outcomes are untouched by the degraded clients'
  // existence (per-client streams are keyed, not sequential).
  EXPECT_LT(degraded->num_succeeded, degraded->num_clients + 1);
}

TEST(PopSimTest, UniformAndZipfInterestsAreValidPopulations) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  for (auto interest : {PopulationSpec::Interest::kUniform,
                        PopulationSpec::Interest::kZipf}) {
    PopSimOptions options;
    options.population.num_clients = 2000;
    options.population.interest = interest;
    auto report = popsim->Run(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->num_succeeded, report->num_clients);
    EXPECT_GT(report->mean_data_wait, 0.0);
    EXPECT_GT(report->mean_tuning_time, 0.0);
    EXPECT_GE(report->p99_access_time, report->p50_access_time);
  }
}

TEST(PopSimTest, InvalidOptionsAreRejected) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plan = MustPlan(tree, 2);
  auto popsim = PopulationSimulator::Create(tree, plan.schedule);
  ASSERT_TRUE(popsim.ok());

  PopSimOptions options;
  options.population.num_clients = 0;
  EXPECT_FALSE(popsim->Run(options).ok());

  options = PopSimOptions();
  options.num_threads = -1;
  EXPECT_FALSE(popsim->Run(options).ok());

  options = PopSimOptions();
  options.population.doze_fraction = 0.5;  // needs max_doze_cycles >= 1
  EXPECT_FALSE(popsim->Run(options).ok());
}

}  // namespace
}  // namespace bcast
