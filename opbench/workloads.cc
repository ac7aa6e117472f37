// The four operator workloads. See README.md for why each exists and which
// layer it is meant to expose.

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <optional>
#include <utility>

#include "alloc/heuristics.h"
#include "alloc/replication.h"
#include "broadcast/cost.h"
#include "broadcast/pointers.h"
#include "broadcast/program_io.h"
#include "core/planner.h"
#include "fault/fault_model.h"
#include "harness.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "popsim/popsim.h"
#include "sim/client_sim.h"
#include "sim/server_sim.h"
#include "tree/builders.h"
#include "tree/tree_io.h"
#include "util/rng.h"
#include "verify/verifier.h"
#include "workload/weights.h"

namespace opbench {
namespace {

using bcast::BroadcastPlan;
using bcast::BroadcastProgram;
using bcast::IndexTree;
using bcast::PlannerOptions;
using bcast::PlanStrategy;
using bcast::Result;
using bcast::Rng;
using bcast::RngStream;
using bcast::Status;
using bcast::obs::MonotonicNanos;
using bcast::obs::ScopedSpan;

uint64_t Mix(uint64_t a, uint64_t b) { return bcast::MixSeed(a ^ bcast::MixSeed(b)); }

// One catalog through the operator path: parse the catalog, plan, verify,
// materialize pointers, format the program and parse it back. Each public
// call gets its own span, named after the layer it belongs to. Stops at the
// first failing step and keeps its status.
struct Operated {
  Status status;
  std::optional<IndexTree> tree;
  std::optional<BroadcastPlan> plan;
  bool verified = false;
  std::string program_text;
  std::optional<BroadcastProgram> program;
};

Operated RunOperatorPath(const std::string& catalog,
                         const PlannerOptions& options,
                         const std::string& inject_fault) {
  Operated out;
  {
    ScopedSpan span("tree.parse");
    auto tree = bcast::ParseTree(catalog);
    if (!tree.ok()) {
      out.status = tree.status();
      return out;
    }
    out.tree = std::move(tree).value();
  }
  {
    ScopedSpan span("core.plan");
    auto plan = bcast::PlanBroadcast(*out.tree, options);
    if (!plan.ok()) {
      out.status = plan.status();
      return out;
    }
    out.plan = std::move(plan).value();
  }
  {
    ScopedSpan span("verify.verify");
    out.verified = bcast::AllocationVerifier(*out.tree)
                       .VerifySchedule(out.plan->schedule)
                       .ok();
  }
  {
    ScopedSpan span("broadcast.pointers");
    auto pointers = bcast::MaterializePointers(*out.tree, out.plan->schedule);
    if (!pointers.ok()) {
      out.status = pointers.status();
      return out;
    }
  }
  {
    ScopedSpan span("broadcast.program_format");
    auto text = bcast::FormatProgram(*out.tree, out.plan->schedule);
    if (!text.ok()) {
      out.status = text.status();
      return out;
    }
    out.program_text = std::move(text).value();
  }
  if (inject_fault == "program-order") {
    out.program_text = CorruptProgramOrder(out.program_text);
  }
  {
    ScopedSpan span("broadcast.program_parse");
    auto program = bcast::ParseProgram(out.program_text);
    if (!program.ok()) {
      out.status = program.status();
      return out;
    }
    out.program = std::move(program).value();
  }
  return out;
}

bool SameGrid(const bcast::BroadcastSchedule& a,
              const bcast::BroadcastSchedule& b) {
  if (a.num_channels() != b.num_channels() || a.num_slots() != b.num_slots()) {
    return false;
  }
  for (int c = 0; c < a.num_channels(); ++c) {
    for (int s = 0; s < a.num_slots(); ++s) {
      if (a.at(c, s) != b.at(c, s)) return false;
    }
  }
  return true;
}

// The checks every planned program must pass: the operator path succeeded,
// the verifier accepted the plan, the program round-trips to the same grid,
// and the plan's average data wait lies between the instance lower bound and
// the sorting heuristic's wait (the exact optimum and the auto planner's
// better-of-two heuristics both must).
void CheckProgram(const Operated& run, int channels, const std::string& what,
                  Checks* checks) {
  if (!run.status.ok()) {
    checks->ExpectOk(run.status, what + ": operator path");
    return;
  }
  checks->Expect(run.verified, what + ": verifier rejects the plan");
  checks->Expect(SameGrid(run.plan->schedule, run.program->schedule),
                 what + ": ParseProgram(FormatProgram) changed the grid");
  const double adw = run.plan->allocation.average_data_wait;
  const double lower = bcast::DataWaitLowerBound(*run.tree, channels);
  auto sorting = bcast::SortingHeuristic(*run.tree, channels);
  checks->ExpectOk(sorting.status(), what + ": sorting heuristic");
  if (!sorting.ok()) return;
  const double eps = 1e-9 * std::max(1.0, adw);
  checks->Expect(lower <= adw + eps && adw <= sorting->average_data_wait + eps,
                 what + ": ADW " + std::to_string(adw) + " outside [" +
                     std::to_string(lower) + ", " +
                     std::to_string(sorting->average_data_wait) + "]");
}

uint64_t HashString(const std::string& text, uint64_t h) {
  for (unsigned char c : text) h = (h ^ c) * 0x100000001B3ull;
  return h;
}

// ---------------------------------------------------------------------------
// catalog_exact: many small catalogs, each planned exactly on one thread.

// Catalog classes of one round: (channels, max fanout, data nodes). Sizes are
// capped so that no single search dominates a pass: 14 data nodes at k=2
// reach 10 ms at the 99th percentile, against a 0.3 ms mean.
struct CatalogClass {
  int channels;
  int max_fanout;
  int num_data;
};

std::vector<CatalogClass> CatalogClasses() {
  std::vector<CatalogClass> classes;
  for (int k = 2; k <= 3; ++k) {
    for (int fanout = 3; fanout <= 4; ++fanout) {
      for (int n = 10; n <= (k == 2 ? 13 : 14); ++n) {
        classes.push_back({k, fanout, n});
      }
    }
  }
  return classes;
}

class CatalogState : public State {
 public:
  std::vector<std::string> catalogs;
  std::vector<int> channels;

  std::string Fingerprint() const override {
    uint64_t h = 0xCBF29CE484222325ull;
    for (size_t i = 0; i < catalogs.size(); ++i) {
      h = HashString(catalogs[i], h) ^ static_cast<uint64_t>(channels[i]);
    }
    return std::to_string(catalogs.size()) + ":" + std::to_string(h);
  }
};

class CatalogExact : public Workload {
 public:
  explicit CatalogExact(const Config& config) : config_(config) {}
  const char* unit() const override { return "catalog"; }
  const char* sample() const override { return "catalog"; }
  double units_per_sample() const override { return 1.0; }
  // Generating the catalog set takes ~80 ms on its own.
  int setups_per_sample() const override { return 1; }

  // The operator's input: a seeded set of catalogs, interleaved by class so
  // every stretch of a pass sees the same mix.
  Result<std::unique_ptr<State>> Setup() override {
    ScopedSpan span("workload.generate");
    auto state = std::make_unique<CatalogState>();
    Rng rng = Rng(config_.seed).Substream(RngStream::kTree);
    const std::vector<CatalogClass> classes = CatalogClasses();
    const int rounds = config_.tiny ? 2 : 400;
    for (int r = 0; r < rounds; ++r) {
      for (const CatalogClass& c : classes) {
        IndexTree tree = bcast::MakeRandomTree(&rng, c.num_data, c.max_fanout);
        state->catalogs.push_back(bcast::FormatTree(tree));
        state->channels.push_back(c.channels);
      }
    }
    return std::unique_ptr<State>(std::move(state));
  }

  void WarmUp(State* base, Checks* checks, Outcome* outcome,
              PassOutput* out) override {
    auto& state = static_cast<CatalogState&>(*base);
    std::vector<double> waits;
    int succeeded = 0;
    for (size_t i = 0; i < state.catalogs.size(); ++i) {
      Operated run = RunOperatorPath(state.catalogs[i],
                                     Options(state.channels[i]),
                                     config_.inject_fault);
      const std::string what = "catalog " + std::to_string(i);
      CheckProgram(run, state.channels[i], what, checks);
      if (!run.status.ok()) {
        out->fingerprint.push_back(0);
        continue;
      }
      checks->Expect(run.plan->provenance == bcast::PlanProvenance::kExact &&
                         run.plan->strategy_used == PlanStrategy::kOptimal,
                     what + ": plan is not an exact optimum");
      const double adw = run.plan->allocation.average_data_wait;
      waits.push_back(adw);
      if (run.verified) ++succeeded;
      out->fingerprint.push_back(Bits(adw) ^ run.verified);
    }
    outcome->wait_slots = Mean(waits);
    outcome->wait_tail_slots = Quantile(waits, 0.95);
    outcome->success_frac =
        static_cast<double>(succeeded) / static_cast<double>(state.catalogs.size());
  }

  void Pass(State* base, PassOutput* out) override {
    auto& state = static_cast<CatalogState&>(*base);
    program_bytes_ = 0;
    for (size_t i = 0; i < state.catalogs.size(); ++i) {
      const uint64_t begin = MonotonicNanos();
      uint64_t outcome = 0;
      {
        Operated run = RunOperatorPath(state.catalogs[i],
                                       Options(state.channels[i]),
                                       config_.inject_fault);
        if (run.status.ok()) {
          outcome = Bits(run.plan->allocation.average_data_wait) ^ run.verified;
        }
        program_bytes_ += run.program_text.size();
      }
      out->AddSample(MonotonicNanos() - begin);
      out->fingerprint.push_back(outcome);
    }
    out->units += state.catalogs.size();
  }

  void Count(const State&, const bcast::obs::MetricsSnapshot&,
             const PassOutput&, LayerCounts* counts) override {
    (*counts)["broadcast.program_bytes"] = static_cast<double>(program_bytes_);
  }

 private:
  // Pinned to the exact search: kAuto would hand catalogs over its exact
  // limit to the heuristics and silently change what is measured.
  static PlannerOptions Options(int channels) {
    PlannerOptions options;
    options.num_channels = channels;
    options.strategy = PlanStrategy::kOptimal;
    options.optimal.num_threads = 1;
    return options;
  }

  static double Mean(const std::vector<double>& values) {
    double sum = 0.0;
    for (double v : values) sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  }

  Config config_;
  uint64_t program_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// fleet_serve and client_probe: one large catalog on the heuristic path,
// served to simulated clients.

constexpr int kFleetChannels = 4;
constexpr int kPoolThreads = 2;

// The ROADMAP's 341-node catalog: a full 4-ary tree of five levels whose 256
// leaves carry Zipf(0.8) weights in leaf order. It is the same for every
// seed; the seed draws the clients and queries. (A seeded leaf order moved the
// heuristic plan's mean access time by over 20% between seeds.)
std::string FleetCatalog() {
  auto tree = bcast::MakeFullBalancedTree(4, 5, bcast::ZipfWeights(256, 0.8));
  return bcast::FormatTree(*tree);
}

bcast::FaultModel Uniform(const bcast::ChannelLossSpec& spec) {
  return bcast::FaultModel::CreateUniform(kFleetChannels, spec).value();
}

// A short recovery ladder, so that at these loss rates every rung fires.
bcast::RecoveryOptions Ladder() {
  bcast::RecoveryOptions recovery;
  recovery.max_retries_per_hop = 1;
  recovery.max_cycle_restarts = 1;
  recovery.max_scan_passes = 2;
  return recovery;
}

// 1% Bernoulli loss, a quarter of it detectable corruption.
bcast::ChannelLossSpec BaseLoss() {
  bcast::ChannelLossSpec spec;
  spec.kind = bcast::LossModelKind::kBernoulli;
  spec.loss_prob = 0.01;
  spec.corrupt_fraction = 0.25;
  return spec;
}

class ProgramState : public State {
 public:
  Operated run;
  std::optional<bcast::ReplicatedProgram> replicated;
  std::optional<bcast::PopulationSimulator> popsim;
  std::optional<bcast::ClientSimulator> client;

  std::string Fingerprint() const override { return run.program_text; }
};

// Parses, plans (kAuto: the catalog is past the exact limit, so both
// heuristics run), verifies, materializes pointers and round-trips the
// program. The simulators are built on the parsed program, as a transmitter
// would load it.
Result<std::unique_ptr<ProgramState>> SetupProgram(const std::string& catalog,
                                                   const Config& config) {
  auto state = std::make_unique<ProgramState>();
  PlannerOptions options;
  options.num_channels = kFleetChannels;
  state->run = RunOperatorPath(catalog, options, config.inject_fault);
  if (!state->run.status.ok()) return state->run.status;
  return state;
}

void CheckServedProgram(const ProgramState& state, Checks* checks) {
  CheckProgram(state.run, kFleetChannels, "program", checks);
  if (state.run.status.ok()) {
    checks->Expect(
        state.run.plan->provenance == bcast::PlanProvenance::kHeuristic,
        "program: the fleet catalog did not take the heuristic path");
  }
}

class FleetServe : public Workload {
 public:
  explicit FleetServe(const Config& config)
      : config_(config), catalog_(FleetCatalog()) {
    // 16,384 clients are four of popsim's 4,096-client shards, an even split
    // over the two workers. A batch takes ~90 ms, so a run of 20 s or more
    // gathers over 200 latency samples.
    const int batches = config.tiny ? 2 : 12;
    for (int b = 0; b < batches; ++b) batch_seeds_.push_back(Mix(config.seed, b));
    options_.population.num_clients = config.tiny ? 2'048 : 16'384;
    options_.population.interest = bcast::PopulationSpec::Interest::kZipf;
    options_.population.zipf_theta = 0.8;
    options_.population.arrival_horizon_cycles = 2;
    options_.population.doze_fraction = 0.2;
    options_.population.max_doze_cycles = 3;
    options_.population.degraded_fraction = 0.1;
    options_.faults = Uniform(BaseLoss());
    bcast::ChannelLossSpec burst;
    burst.kind = bcast::LossModelKind::kGilbertElliott;
    burst.p_good_to_bad = 0.05;
    burst.p_bad_to_good = 0.2;
    burst.loss_good = 0.01;
    burst.loss_bad = 1.0;
    burst.corrupt_fraction = 0.2;
    options_.degraded_faults = Uniform(burst);
    options_.recovery = Ladder();
    options_.num_threads = kPoolThreads;
  }
  const char* unit() const override { return "client"; }
  const char* sample() const override { return "client batch"; }
  double units_per_sample() const override {
    return static_cast<double>(options_.population.num_clients);
  }
  // A set-up takes ~3 ms.
  int setups_per_sample() const override { return config_.tiny ? 1 : 16; }

  Result<std::unique_ptr<State>> Setup() override {
    auto state = SetupProgram(catalog_, config_);
    if (!state.ok()) return state.status();
    ProgramState& s = **state;
    {
      ScopedSpan span("popsim.create");
      auto sim = bcast::PopulationSimulator::Create(s.run.program->tree,
                                                    s.run.program->schedule);
      if (!sim.ok()) return sim.status();
      s.popsim.emplace(std::move(sim).value());
    }
    return std::unique_ptr<State>(std::move(state).value());
  }

  void WarmUp(State* base, Checks* checks, Outcome* outcome,
              PassOutput* out) override {
    auto& state = static_cast<ProgramState&>(*base);
    CheckServedProgram(state, checks);
    if (!state.popsim) return;
    double access = 0.0, tail = 0.0;
    uint64_t succeeded = 0, clients = 0;
    for (uint64_t seed : batch_seeds_) {
      auto report = Run(state, seed);
      checks->ExpectOk(report.status(), "popsim batch");
      if (!report.ok()) {
        out->fingerprint.push_back(0);
        continue;
      }
      access += report->mean_access_time * static_cast<double>(report->num_succeeded);
      tail += report->p99_access_time;
      succeeded += report->num_succeeded;
      clients += report->num_clients;
      out->fingerprint.push_back(report->digest);
    }
    // A rerun of a batch must reproduce its digest.
    auto rerun = Run(state, batch_seeds_.front());
    checks->Expect(rerun.ok() && !out->fingerprint.empty() &&
                       rerun->digest == out->fingerprint.front(),
                   "popsim rerun changed the batch digest");
    outcome->wait_slots = succeeded > 0 ? access / static_cast<double>(succeeded) : 0.0;
    outcome->wait_tail_slots = tail / static_cast<double>(batch_seeds_.size());
    outcome->success_frac =
        clients > 0 ? static_cast<double>(succeeded) / static_cast<double>(clients) : 0.0;
  }

  void Pass(State* base, PassOutput* out) override {
    auto& state = static_cast<ProgramState&>(*base);
    for (uint64_t seed : batch_seeds_) {
      const uint64_t begin = MonotonicNanos();
      auto report = Run(state, seed);
      out->AddSample(MonotonicNanos() - begin);
      out->fingerprint.push_back(report.ok() ? report->digest : 0);
      out->units += options_.population.num_clients;
    }
  }

  void Count(const State& base, const bcast::obs::MetricsSnapshot& snap,
             const PassOutput& pass, LayerCounts* counts) override {
    const auto& state = static_cast<const ProgramState&>(base);
    (*counts)["broadcast.program_bytes"] =
        static_cast<double>(state.run.program_text.size());
    uint64_t run_ns = 0;
    for (uint64_t ns : pass.sample_ns) run_ns += ns;
    if (run_ns > 0) {
      (*counts)["exec.worker_busy_pct"] =
          100.0 * static_cast<double>(snap.CounterOr("pool.busy_ns", 0)) /
          (static_cast<double>(kPoolThreads) * static_cast<double>(run_ns));
    }
  }

 private:
  Result<bcast::PopReport> Run(const ProgramState& state, uint64_t seed) {
    ScopedSpan span("popsim.run");
    bcast::PopSimOptions options = options_;
    options.seed = seed;
    return state.popsim->Run(options);
  }

  Config config_;
  std::string catalog_;
  std::vector<uint64_t> batch_seeds_;
  bcast::PopSimOptions options_;
};

class ClientProbe : public Workload {
 public:
  explicit ClientProbe(const Config& config)
      : config_(config), catalog_(FleetCatalog()) {
    // Twenty batch sizes evenly spaced from 4,000 to 36,000 queries (mean
    // 20,000). With one fixed size every batch cost the same, the latency
    // distribution was two narrow peaks (the host's fast and slow periods),
    // and the median jumped between them from run to run.
    const int batches = config.tiny ? 2 : 20;
    const uint64_t smallest = config.tiny ? 1'000 : 4'000;
    const uint64_t step = config.tiny ? 2'000 : 32'000 / 19;
    for (int b = 0; b < batches; ++b) {
      batches_.push_back({Mix(config.seed, b), smallest + step * b});
      queries_per_pass_ += batches_.back().queries;
    }
    options_.faults = Uniform(BaseLoss());
    options_.recovery = Ladder();
  }
  const char* unit() const override { return "query"; }
  const char* sample() const override { return "query batch"; }
  double units_per_sample() const override {
    return static_cast<double>(queries_per_pass_) / static_cast<double>(batches_.size());
  }
  // A set-up takes ~2 ms.
  int setups_per_sample() const override { return config_.tiny ? 1 : 24; }

  Result<std::unique_ptr<State>> Setup() override {
    auto state = SetupProgram(catalog_, config_);
    if (!state.ok()) return state.status();
    ProgramState& s = **state;
    {
      ScopedSpan span("alloc.replicate");
      bcast::ReplicationOptions replication;
      replication.root_copies = 3;
      replication.replicate_levels = 2;
      auto replicated = bcast::BuildReplicatedProgram(
          s.run.program->tree, s.run.plan->allocation.slots, kFleetChannels,
          replication);
      if (!replicated.ok()) return replicated.status();
      s.replicated.emplace(std::move(replicated).value());
    }
    {
      ScopedSpan span("sim.client_create");
      auto sim = bcast::ClientSimulator::Create(s.run.program->tree, *s.replicated);
      if (!sim.ok()) return sim.status();
      s.client.emplace(std::move(sim).value());
    }
    return std::unique_ptr<State>(std::move(state).value());
  }

  void WarmUp(State* base, Checks* checks, Outcome* outcome,
              PassOutput* out) override {
    auto& state = static_cast<ProgramState&>(*base);
    CheckServedProgram(state, checks);
    if (!state.client) return;
    checks->ExpectOk(
        bcast::ValidateReplicatedProgram(state.run.program->tree, *state.replicated),
        "replicated program");
    double access = 0.0, tail = 0.0;
    uint64_t succeeded = 0, queries = 0;
    for (const Batch& batch : batches_) {
      bcast::SimReport report = Run(state, batch);
      access += report.mean_access_time * static_cast<double>(report.num_succeeded);
      tail += report.p99_access_time;
      succeeded += report.num_succeeded;
      queries += report.num_queries;
      out->fingerprint.push_back(Digest(report));
    }
    checks->Expect(queries == queries_per_pass_, "client simulator skipped queries");
    outcome->wait_slots = succeeded > 0 ? access / static_cast<double>(succeeded) : 0.0;
    outcome->wait_tail_slots = tail / static_cast<double>(batches_.size());
    outcome->success_frac =
        queries > 0 ? static_cast<double>(succeeded) / static_cast<double>(queries) : 0.0;
  }

  void Pass(State* base, PassOutput* out) override {
    auto& state = static_cast<ProgramState&>(*base);
    for (const Batch& batch : batches_) {
      const uint64_t begin = MonotonicNanos();
      bcast::SimReport report = Run(state, batch);
      out->AddSample(MonotonicNanos() - begin);
      out->fingerprint.push_back(Digest(report));
    }
    out->units += queries_per_pass_;
  }

  void Count(const State& base, const bcast::obs::MetricsSnapshot&,
             const PassOutput&, LayerCounts* counts) override {
    const auto& state = static_cast<const ProgramState&>(base);
    (*counts)["broadcast.program_bytes"] =
        static_cast<double>(state.run.program_text.size());
  }

 private:
  struct Batch {
    uint64_t seed;
    uint64_t queries;
  };

  bcast::SimReport Run(const ProgramState& state, const Batch& batch) {
    ScopedSpan span("sim.run");
    Rng rng(batch.seed);
    bcast::SimOptions options = options_;
    options.num_queries = batch.queries;
    return state.client->Run(&rng, options);
  }

  static uint64_t Digest(const bcast::SimReport& r) {
    return Mix(Mix(Bits(r.mean_access_time), Bits(r.p99_access_time)),
               Mix(r.num_succeeded, r.rng_query_draws + r.rng_fault_draws));
  }

  Config config_;
  std::string catalog_;
  std::vector<Batch> batches_;
  uint64_t queries_per_pass_ = 0;
  bcast::SimOptions options_;
};

// ---------------------------------------------------------------------------
// adaptive_replan: a drifting catalog replanned every server cycle.

constexpr int kServerItems = 120;

class TrajectoryState : public State {
 public:
  /// weights[c] is the true popularity during cycle c (cycle 0 = initial).
  std::vector<std::vector<double>> weights;

  std::string Fingerprint() const override {
    uint64_t h = 0;
    for (const auto& w : weights) {
      for (double v : w) h = Mix(h, Bits(v));
    }
    return std::to_string(h);
  }
};

class AdaptiveReplan : public Workload {
 public:
  explicit AdaptiveReplan(const Config& config) : config_(config) {
    options_.num_channels = 3;
    options_.num_cycles = config.tiny ? 6 : 200;
    options_.queries_per_cycle = 3000;
    options_.strategy = PlanStrategy::kAuto;
    options_.replan_every = 1;
    options_.planner_threads = 1;
    bcast::ChannelLossSpec loss;
    loss.kind = bcast::LossModelKind::kBernoulli;
    loss.loss_prob = 0.02;
    options_.faults = bcast::FaultModel::CreateUniform(3, loss).value();
  }
  const char* unit() const override { return "cycle"; }
  const char* sample() const override { return "cycle"; }
  double units_per_sample() const override { return 1.0; }
  // Precomputing the trajectory takes ~0.5 ms.
  int setups_per_sample() const override { return config_.tiny ? 1 : 100; }

  // Precomputes the seeded popularity trajectory: Zipf weights over the items
  // in key order, rotated by a seeded offset that advances by a seeded step
  // of 1-3 items every cycle. The skew oscillates in [0.9, 1.1] on a fixed
  // 40-cycle period; a seeded skew walk moved the mean wait by 8% between
  // seeds.
  Result<std::unique_ptr<State>> Setup() override {
    ScopedSpan span("workload.generate");
    auto state = std::make_unique<TrajectoryState>();
    Rng rng = Rng(config_.seed).Substream(RngStream::kQuery);
    int64_t shift = rng.UniformInt(0, kServerItems - 1);
    for (int c = 0; c <= options_.num_cycles; ++c) {
      const double theta = 1.0 + 0.1 * std::sin(2.0 * std::numbers::pi * c / 40.0);
      const std::vector<double> zipf = bcast::ZipfWeights(kServerItems, theta);
      std::vector<double> weights(kServerItems);
      for (int i = 0; i < kServerItems; ++i) {
        weights[static_cast<size_t>((i + shift) % kServerItems)] = zipf[static_cast<size_t>(i)];
      }
      state->weights.push_back(std::move(weights));
      shift += rng.UniformInt(1, 3);
    }
    return std::unique_ptr<State>(std::move(state));
  }

  void WarmUp(State* base, Checks* checks, Outcome* outcome,
              PassOutput* out) override {
    auto& state = static_cast<TrajectoryState&>(*base);
    PassOutput scratch;
    auto report = Run(state, &scratch);
    checks->ExpectOk(report.status(), "adaptive server");
    if (!report.ok()) return;
    checks->Expect(report->cycles.size() == static_cast<size_t>(options_.num_cycles),
                   "adaptive server skipped cycles");
    checks->Expect(report->stale_serves == 0 && report->backoff_skips == 0,
                   "adaptive server served a stale plan");
    std::vector<double> realized;
    double error = 0.0;
    for (const bcast::CycleStats& cycle : report->cycles) {
      checks->Expect(!std::isnan(cycle.realized_data_wait),
                     "a server cycle delivered nothing");
      if (!std::isnan(cycle.realized_data_wait)) realized.push_back(cycle.realized_data_wait);
      error += cycle.estimation_error;
    }
    estimation_error_ = error / static_cast<double>(report->cycles.size());
    outcome->wait_slots = report->mean_realized;
    outcome->wait_tail_slots = Quantile(realized, 0.95);
    outcome->success_frac = report->mean_delivery_success;
    out->fingerprint = Digest(*report);
  }

  void Pass(State* base, PassOutput* out) override {
    auto& state = static_cast<TrajectoryState&>(*base);
    auto report = Run(state, out);
    out->fingerprint = report.ok() ? Digest(*report) : std::vector<uint64_t>{0};
    out->units += out->sample_ns.size();
  }

  void Count(const State&, const bcast::obs::MetricsSnapshot&,
             const PassOutput&, LayerCounts* counts) override {
    (*counts)["workload.estimation_error"] = estimation_error_;
  }

 private:
  // A cycle's latency sample is the interval between consecutive drift calls.
  Result<bcast::AdaptiveServerReport> Run(const TrajectoryState& state,
                                          PassOutput* out) {
    uint64_t last = 0;
    bcast::DriftFn drift = [&](int cycle, std::vector<double>* weights) {
      if (cycle > 0) out->AddSample(MonotonicNanos() - last);
      last = MonotonicNanos();
      *weights = state.weights[static_cast<size_t>(cycle) + 1];
    };
    ScopedSpan span("sim.server");
    Rng rng(Mix(config_.seed, 0x5E77E5));
    return bcast::RunAdaptiveServer(state.weights.front(), drift, &rng, options_);
  }

  static std::vector<uint64_t> Digest(const bcast::AdaptiveServerReport& r) {
    std::vector<uint64_t> words = {Bits(r.mean_realized), Bits(r.mean_oracle),
                                   Bits(r.mean_delivery_success)};
    for (const bcast::CycleStats& c : r.cycles) words.push_back(Bits(c.realized_data_wait));
    return words;
  }

  Config config_;
  bcast::AdaptiveServerOptions options_;
  double estimation_error_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeCatalogExact(const Config& config) {
  return std::make_unique<CatalogExact>(config);
}
std::unique_ptr<Workload> MakeFleetServe(const Config& config) {
  return std::make_unique<FleetServe>(config);
}
std::unique_ptr<Workload> MakeClientProbe(const Config& config) {
  return std::make_unique<ClientProbe>(config);
}
std::unique_ptr<Workload> MakeAdaptiveReplan(const Config& config) {
  return std::make_unique<AdaptiveReplan>(config);
}

}  // namespace opbench
