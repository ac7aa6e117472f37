// Golden pins for the client access protocol (Section 2.1 plus the recovery
// ladder). The popsim differential test only proves that ClientSimulator and
// PopulationSimulator agree with each other; these pins prove that both still
// produce the exact outputs recorded before the two simulators were folded
// onto one protocol core. Every SimReport field is pinned, doubles by their
// bit patterns, for a matrix of programs, media and recovery ladders, plus the
// outcome digest and tallies of a population run with dozing and degraded
// clients.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/planner.h"
#include "fault/fault_model.h"
#include "popsim/popsim.h"
#include "sim/client_sim.h"
#include "tree/builders.h"
#include "util/rng.h"

namespace bcast {
namespace {

BroadcastPlan MustPlan(const IndexTree& tree, int channels, int root_copies) {
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

ChannelLossSpec BernoulliSpec(double p, double corrupt_fraction) {
  ChannelLossSpec spec;
  spec.kind = LossModelKind::kBernoulli;
  spec.loss_prob = p;
  spec.corrupt_fraction = corrupt_fraction;
  return spec;
}

ChannelLossSpec BurstSpec() {
  ChannelLossSpec spec;
  spec.kind = LossModelKind::kGilbertElliott;
  spec.p_good_to_bad = 0.1;
  spec.p_bad_to_good = 0.3;
  spec.loss_good = 0.02;
  spec.loss_bad = 0.9;
  spec.corrupt_fraction = 0.25;
  return spec;
}

std::string Hex(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, std::bit_cast<uint64_t>(v));
  return buf;
}

// Every SimReport field on one line; doubles as exact bit patterns.
std::string Describe(const SimReport& r) {
  return "queries=" + std::to_string(r.num_queries) +
         " probe=" + Hex(r.mean_probe_wait) + " data=" + Hex(r.mean_data_wait) +
         " access=" + Hex(r.mean_access_time) +
         " tuning=" + Hex(r.mean_tuning_time) +
         " switches=" + Hex(r.mean_switches) +
         " listen=" + Hex(r.listen_fraction) +
         " ok=" + std::to_string(r.num_succeeded) +
         " rate=" + Hex(r.success_rate) +
         " lost=" + std::to_string(r.buckets_lost) +
         " corrupt=" + std::to_string(r.buckets_corrupted) +
         " retries=" + std::to_string(r.retries) +
         " restarts=" + std::to_string(r.cycle_restarts) +
         " scans=" + std::to_string(r.sequential_scans) +
         " p50=" + Hex(r.p50_access_time) + " p95=" + Hex(r.p95_access_time) +
         " p99=" + Hex(r.p99_access_time) +
         " qdraws=" + std::to_string(r.rng_query_draws) +
         " fdraws=" + std::to_string(r.rng_fault_draws);
}

std::string Describe(const PopReport& r) {
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, r.digest);
  return std::string("digest=") + digest +
         " ok=" + std::to_string(r.num_succeeded) +
         " lost=" + std::to_string(r.buckets_lost) +
         " corrupt=" + std::to_string(r.buckets_corrupted) +
         " retries=" + std::to_string(r.retries) +
         " restarts=" + std::to_string(r.cycle_restarts) +
         " scans=" + std::to_string(r.sequential_scans) +
         " slots=" + std::to_string(r.slots_processed) +
         " last=" + std::to_string(r.last_slot) +
         " qdraws=" + std::to_string(r.rng_query_draws) +
         " fdraws=" + std::to_string(r.rng_fault_draws);
}

enum class Medium { kLossless, kBernoulli, kBurst };

FaultModel MakeMedium(Medium medium, int channels) {
  switch (medium) {
    case Medium::kLossless:
      return FaultModel();
    case Medium::kBernoulli:
      return MustUniform(channels, BernoulliSpec(0.3, 0.4));
    case Medium::kBurst:
      return MustUniform(channels, BurstSpec());
  }
  return FaultModel();
}

RecoveryOptions TightLadder() {
  RecoveryOptions recovery;
  recovery.max_retries_per_hop = 0;
  recovery.max_cycle_restarts = 0;
  recovery.max_scan_passes = 1;
  return recovery;
}

// {plain, replicated} x {lossless, Bernoulli+corruption, burst} x
// {default ladder, 0/0/1}, in that nesting order.
const char* const kClientGoldens[12] = {
    "queries=3000 probe=4003fe3922c6b9e1 data=400f490b9af72016 "
    "access=4019a3a25edeecfb tuning=40114e81b4e81b4f "
    "switches=3ff260f04c756b2e listen=3fe599aab4fb1553 ok=3000 "
    "rate=3ff0000000000000 lost=0 corrupt=0 retries=0 restarts=0 scans=0 "
    "p50=40198cffa5e64435 p95=40229e36cbec6374 p99=4023b84d1ad88e42 "
    "qdraws=6000 fdraws=0",
    "queries=3000 probe=40046c094ea0da54 data=400eec33e1f67153 "
    "access=4019ac1e984ba5d3 tuning=40113645a1cac083 "
    "switches=3ff1dc8057619f10 listen=3fe57451cb8145d6 ok=3000 "
    "rate=3ff0000000000000 lost=0 corrupt=0 retries=0 restarts=0 scans=0 "
    "p50=4019ac95bf8e9862 p95=402277ad4bf83e8e p99=40239aedfd294dc6 "
    "qdraws=6000 fdraws=0",
    "queries=3000 probe=400745e249639346 data=402674bc6a7ef9db "
    "access=402c4634fcd7dead tuning=4018ebdc8057619f "
    "switches=3ff294d242e6bdc8 listen=3fdc348c65ae88bb ok=3000 "
    "rate=3ff0000000000000 lost=3389 corrupt=2253 retries=5548 "
    "restarts=94 scans=0 p50=4028a6b4de79c146 p95=403cdad4753c18a3 "
    "p99=40439d6a2769efb4 qdraws=6000 fdraws=24333",
    "queries=3000 probe=40079438ed3d70d4 data=402126a8d4ae2069 "
    "access=40270bb70ffd7c9e tuning=401f64f037ec82ea "
    "switches=3ff363aad7db9093 listen=3fe5cbcfce0988ab ok=2417 "
    "rate=3fe9c8057619f0fb lost=4752 corrupt=3182 retries=1230 restarts=0 "
    "scans=2087 p50=4026ef00c2482d8c p95=4032a2f697a66eba "
    "p99=4033f61979dcd404 qdraws=6000 fdraws=34599",
    "queries=3000 probe=40086c7dc07eec70 data=402047d9c54a6921 "
    "access=402662f9356a243d tuning=401721cac083126f "
    "switches=3ff294d242e6bdc8 listen=3fe0886164a129f3 ok=3000 "
    "rate=3ff0000000000000 lost=3268 corrupt=1081 retries=4304 "
    "restarts=45 scans=0 p50=40230f7b1fe51a68 p95=40372e1d41dea933 "
    "p99=40412b5539466a5c qdraws=6000 fdraws=60391",
    "queries=3000 probe=4008ec1490420e20 data=401bf1afba5dcfd6 "
    "access=402433dd013f6b73 tuning=401c3751ea87978d "
    "switches=3ff2f4af3e92cf8c listen=3fe658b531909914 ok=2647 "
    "rate=3fec3c131d5acb6f lost=4632 corrupt=1493 retries=1765 restarts=0 "
    "scans=1470 p50=40218d9c362feb50 p95=4032769882630198 "
    "p99=403485489ec4ebbc qdraws=6000 fdraws=68871",
    "queries=3000 probe=400530fb76b54d98 data=40150a94d242e6be "
    "access=401fa3128d9d8d89 tuning=40115e8ca11bfd45 "
    "switches=3ff2ed916872b021 listen=3fe191918057398f ok=3000 "
    "rate=3ff0000000000000 lost=0 corrupt=0 retries=0 restarts=0 scans=0 "
    "p50=401f91b40a1e6633 p95=40262718cb5c481b p99=40279d90f4985993 "
    "qdraws=6000 fdraws=0",
    "queries=3000 probe=400564257a2214d0 data=4014e147ae147ae1 "
    "access=401f935a6b258549 tuning=40113d70a3d70a3d "
    "switches=3ff1dc8057619f10 listen=3fe178c29c98d33c ok=3000 "
    "rate=3ff0000000000000 lost=0 corrupt=0 retries=0 restarts=0 scans=0 "
    "p50=401fa312d69efc9c p95=402618c0c88899aa p99=4027a5d88f6f629c "
    "qdraws=6000 fdraws=0",
    "queries=3000 probe=40115429c5bb6751 data=4026733333333333 "
    "access=402f1d481610e6dc tuning=4018b9af72015d86 "
    "switches=3ff27ef9db22d0e5 listen=3fd96dd967859c90 ok=3000 "
    "rate=3ff0000000000000 lost=3303 corrupt=2199 retries=5420 "
    "restarts=82 scans=0 p50=402b9bf154f102fc p95=403edb71d79f3716 "
    "p99=4044d84292d56ae4 qdraws=6000 fdraws=24046",
    "queries=3000 probe=4003cae9f95f3100 data=40253ed3200dad17 "
    "access=402a318d9e657957 tuning=402127bf09d46848 "
    "switches=3ff26ff92974aca9 listen=3fe4f5483e63b423 ok=2396 "
    "rate=3fe98ead65b7a328 lost=5410 corrupt=3606 retries=1283 restarts=0 "
    "scans=2051 p50=4028aadc591c6926 p95=4035bda629f8f2ab "
    "p99=4037bdfa67d01426 qdraws=6000 fdraws=38804",
    "queries=3000 probe=4010bb478d727921 data=402264dd2f1a9fbe "
    "access=402ac280f5d3dc4f tuning=401794d242e6bdc8 "
    "switches=3ff2b4395810624e listen=3fdc32fa8935db11 ok=3000 "
    "rate=3ff0000000000000 lost=3531 corrupt=1155 retries=4630 "
    "restarts=56 scans=0 p50=402795e0a719abf4 p95=403b0dc5152d7396 "
    "p99=4042bd7c874a875e qdraws=6000 fdraws=67293",
    "queries=3000 probe=4007922d734e763d data=40220e41386ee9ef "
    "access=4027f2cc9542877e tuning=401f0f6d2807cf93 "
    "switches=3ff30d1548d6044c listen=3fe4c05d6d06e580 ok=2622 "
    "rate=3febf7ced916872b lost=5209 corrupt=1744 retries=1890 restarts=0 "
    "scans=1499 p50=40251957848434c8 p95=403597d00e3afe3d "
    "p99=4037648a11ca0e1a qdraws=6000 fdraws=79554",
};

TEST(AccessProtocolGoldenTest, ClientSimulatorReportsMatchPins) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plain = MustPlan(tree, 2, /*root_copies=*/1);
  BroadcastPlan replicated = MustPlan(tree, 2, /*root_copies=*/2);
  ASSERT_TRUE(replicated.replicated.has_value());
  auto plain_sim = ClientSimulator::Create(tree, plain.schedule);
  auto replicated_sim = ClientSimulator::Create(tree, *replicated.replicated);
  ASSERT_TRUE(plain_sim.ok()) << plain_sim.status().ToString();
  ASSERT_TRUE(replicated_sim.ok()) << replicated_sim.status().ToString();

  int index = 0;
  for (const ClientSimulator* sim : {&*plain_sim, &*replicated_sim}) {
    for (Medium medium :
         {Medium::kLossless, Medium::kBernoulli, Medium::kBurst}) {
      for (bool tight : {false, true}) {
        SimOptions options;
        options.num_queries = 3000;
        options.faults = MakeMedium(medium, 2);
        if (tight) options.recovery = TightLadder();
        Rng rng(0x601d0000u + static_cast<uint64_t>(index));
        SimReport report = sim->Run(&rng, options);
        EXPECT_EQ(Describe(report), kClientGoldens[index]) << "case " << index;
        ++index;
      }
    }
  }
}

TEST(AccessProtocolGoldenTest, PopulationDigestsMatchPins) {
  IndexTree tree = MakePaperExampleTree();
  BroadcastPlan plain = MustPlan(tree, 2, /*root_copies=*/1);
  BroadcastPlan replicated = MustPlan(tree, 2, /*root_copies=*/2);
  ASSERT_TRUE(replicated.replicated.has_value());
  auto plain_sim = PopulationSimulator::Create(tree, plain.schedule);
  auto replicated_sim =
      PopulationSimulator::Create(tree, *replicated.replicated);
  ASSERT_TRUE(plain_sim.ok()) << plain_sim.status().ToString();
  ASSERT_TRUE(replicated_sim.ok()) << replicated_sim.status().ToString();

  PopSimOptions options;
  options.population.num_clients = 30'000;
  options.population.interest = PopulationSpec::Interest::kZipf;
  options.population.zipf_theta = 1.1;
  options.population.arrival_horizon_cycles = 3;
  options.population.doze_fraction = 0.25;
  options.population.max_doze_cycles = 3;
  options.population.degraded_fraction = 0.15;
  options.seed = 0x601d;
  options.faults = MustUniform(2, BernoulliSpec(0.1, 0.3));
  options.degraded_faults = MustUniform(2, BurstSpec());

  auto plain_report = plain_sim->Run(options);
  ASSERT_TRUE(plain_report.ok()) << plain_report.status().ToString();
  EXPECT_EQ(Describe(*plain_report),
            "digest=ab19fe4337e1b532 ok=30000 lost=13297 corrupt=5254 "
            "retries=18486 restarts=64 scans=1 slots=463 last=60 "
            "qdraws=67519 fdraws=218907");

  options.recovery = TightLadder();
  auto replicated_report = replicated_sim->Run(options);
  ASSERT_TRUE(replicated_report.ok()) << replicated_report.status().ToString();
  EXPECT_EQ(Describe(*replicated_report),
            "digest=c83d705015046556 ok=28730 lost=18602 corrupt=7251 "
            "retries=5602 restarts=0 scans=9569 slots=448 last=60 "
            "qdraws=67519 fdraws=284965");
}

}  // namespace
}  // namespace bcast
