#include "sim/client_sim.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace bcast {

Result<ClientSimulator> ClientSimulator::Create(
    const IndexTree& tree, const BroadcastSchedule& schedule) {
  auto index = AccessIndex::Create(tree, schedule);
  if (!index.ok()) return index.status();
  return ClientSimulator(std::move(index).value());
}

Result<ClientSimulator> ClientSimulator::Create(
    const IndexTree& tree, const ReplicatedProgram& program) {
  auto index = AccessIndex::Create(tree, program);
  if (!index.ok()) return index.status();
  return ClientSimulator(std::move(index).value());
}

ClientSimulator::ClientSimulator(AccessIndex index)
    : sampler_(index.tree()), index_(std::move(index)) {}

SimReport ClientSimulator::Run(Rng* rng, const SimOptions& options) const {
  obs::ScopedSpan span("sim.run");
  obs::ScopedTimer timer(obs::GetHistogram("sim.run_ns"));
  SimReport report;
  report.num_queries = options.num_queries;
  const double cycle = static_cast<double>(index_.cycle_length());
  const uint64_t query_draws_before = rng->draw_count();

  // Fault draws live on their own substream: enabling loss never perturbs
  // query sampling, and a zero-loss run makes no fault draws at all — so it
  // is bit-identical to the lossless simulator under the same seed.
  Rng fault_rng = rng->Substream(RngStream::kFault);
  const bool faulty = options.faults.active();

  AccessTallies tallies;
  double probe_sum = 0.0, data_sum = 0.0, tuning_sum = 0.0, switch_sum = 0.0;
  std::vector<double> access_times;
  access_times.reserve(options.num_queries);
  for (uint64_t q = 0; q < options.num_queries; ++q) {
    NodeId target = sampler_.Sample(rng);
    double arrival = rng->UniformDouble(0.0, cycle);

    // Each query is an independent client under an independent realization
    // of the medium (the Gilbert–Elliott chains start from stationarity). A
    // lossless medium is never observed, so it makes no fault draws.
    FaultProcess medium(options.faults, &fault_rng);
    auto observe = [&](int channel, int64_t slot) {
      return faulty ? medium.Observe(channel, slot) : BucketOutcome::kOk;
    };
    ClientState state = ClientState::Start(target, arrival);
    for (int64_t t = state.FirstWake(); t >= 0;) {
      t = Step(index_, &state, t, observe, options.recovery, &tallies);
    }
    ClientOutcome out = OutcomeOf(state);
    if (!out.success) continue;
    ++report.num_succeeded;
    probe_sum += out.probe_wait;
    data_sum += out.data_wait;
    tuning_sum += static_cast<double>(out.tuning);
    switch_sum += static_cast<double>(out.switches);
    access_times.push_back(out.probe_wait + out.data_wait);
  }
  report.buckets_lost = tallies.buckets_lost;
  report.buckets_corrupted = tallies.buckets_corrupted;
  report.retries = tallies.retries;
  report.cycle_restarts = tallies.cycle_restarts;
  report.sequential_scans = tallies.sequential_scans;

  report.success_rate =
      options.num_queries > 0
          ? static_cast<double>(report.num_succeeded) /
                static_cast<double>(options.num_queries)
          : 0.0;
  if (report.num_succeeded > 0) {
    const double n = static_cast<double>(report.num_succeeded);
    report.mean_probe_wait = probe_sum / n;
    report.mean_data_wait = data_sum / n;
    report.mean_access_time = (probe_sum + data_sum) / n;
    report.mean_tuning_time = tuning_sum / n;
    report.mean_switches = switch_sum / n;
    report.listen_fraction =
        report.mean_access_time > 0.0
            ? report.mean_tuning_time / report.mean_access_time
            : 0.0;

    std::sort(access_times.begin(), access_times.end());
    auto nearest_rank = [&access_times](double quantile) {
      size_t rank = static_cast<size_t>(
          std::ceil(quantile * static_cast<double>(access_times.size())));
      if (rank > 0) --rank;
      if (rank >= access_times.size()) rank = access_times.size() - 1;
      return access_times[rank];
    };
    report.p50_access_time = nearest_rank(0.50);
    report.p95_access_time = nearest_rank(0.95);
    report.p99_access_time = nearest_rank(0.99);
  }
  report.rng_query_draws = rng->draw_count() - query_draws_before;
  report.rng_fault_draws = fault_rng.draw_count();

  if (obs::MetricsEnabled()) {
    obs::GetCounter("sim.queries").Add(report.num_queries);
    obs::GetCounter("sim.succeeded").Add(report.num_succeeded);
    obs::GetCounter("sim.retries").Add(report.retries);
    obs::GetCounter("sim.cycle_restarts").Add(report.cycle_restarts);
    obs::GetCounter("sim.sequential_scans").Add(report.sequential_scans);
    obs::GetCounter("sim.buckets_lost").Add(report.buckets_lost);
    obs::GetCounter("sim.buckets_corrupted").Add(report.buckets_corrupted);
    obs::GetCounter("rng.draws.query").Add(report.rng_query_draws);
    obs::GetCounter("rng.draws.fault").Add(report.rng_fault_draws);
  }
  return report;
}

}  // namespace bcast
