#include "popsim/popsim.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "exec/parallel_for.h"
#include "obs/obs.h"
#include "obs/stream.h"
#include "popsim/replay_rng.h"

namespace bcast {

namespace {

// Per-client flag bits (Shard::flags).
constexpr uint8_t kFlagDegraded = 1;      // listens through degraded_faults
constexpr uint8_t kFlagMediumActive = 2;  // its fault model draws at all

// Auto-sharding: ~4k clients per shard keeps a shard's transient working set
// L2-resident while leaving plenty of shards to balance across any pool.
// Deliberately a function of the population alone — never of the thread
// count — so shard boundaries (and thus nothing at all) change between runs
// on different machines.
constexpr uint64_t kClientsPerShard = 4096;
constexpr int kMaxAutoShards = 512;

uint64_t BitsOf(double v) { return std::bit_cast<uint64_t>(v); }

}  // namespace

// Terminal per-client outcomes, indexed by client id. This is the only state
// that outlives a shard's run: everything transient (protocol cursors,
// replayed rng streams, wake calendar) lives in Shard and is freed when the
// shard finishes, so peak memory is outcome arrays + one Shard per worker.
struct PopulationSimulator::Fleet {
  std::vector<uint8_t> success;
  std::vector<double> probe_wait;
  std::vector<double> data_wait;
  std::vector<uint32_t> tuning;
  std::vector<uint32_t> switches;

  explicit Fleet(uint64_t n)
      : success(n, 0),
        probe_wait(n, 0.0),
        data_wait(n, 0.0),
        tuning(n, 0),
        switches(n, 0) {}
};

// Integer tallies a shard accumulates privately and the aggregation pass
// sums in shard order — all order-independent, so the totals cannot depend
// on how shards interleave across threads.
struct PopulationSimulator::ShardStats {
  AccessTallies tallies;
  uint64_t slots_processed = 0;
  int64_t last_slot = 0;
  uint64_t rng_query_draws = 0;
  uint64_t rng_fault_draws = 0;
};

// Transient state for one shard's clients, indexed by local client index
// (global id = begin + idx). Sized ~a few thousand clients so the whole
// working set stays cache-resident while the shard runs.
struct PopulationSimulator::Shard {
  std::vector<ClientState> clients;
  std::vector<uint8_t> flags;

  // Per-client replayed fault streams (seed + cursor, not live engines) and
  // Gilbert–Elliott channel states; both empty unless some client's medium
  // is active / has a GE channel.
  std::vector<ReplayRng> client_stream;
  std::vector<FaultChannelState> ge_states;
  FaultChannelState dummy_state;  // Bernoulli never reads its state
  int ge_channels = 0;

  const FaultModel* base_faults = nullptr;
  const FaultModel* degraded_faults = nullptr;

  // Wake calendar: ring of slot buckets (power-of-two size strictly greater
  // than the maximum wake distance, which is < 2 cycles).
  std::vector<std::vector<uint32_t>> ring;
  uint64_t ring_mask = 0;

  // Observes (channel, slot) through client `idx`'s own medium. A client
  // whose model is inactive makes no draws at all — exactly ClientSimulator's
  // lossless path, so the fault streams stay untouched and draw counts match
  // the one-client driver bit for bit.
  BucketOutcome Observe(uint32_t idx, int channel, int64_t slot) {
    if ((flags[idx] & kFlagMediumActive) == 0) return BucketOutcome::kOk;
    const FaultModel& model =
        (flags[idx] & kFlagDegraded) ? *degraded_faults : *base_faults;
    const ChannelLossSpec& spec = model.channel(channel);
    if (!spec.active()) return BucketOutcome::kOk;
    FaultChannelState* state =
        ge_channels > 0
            ? &ge_states[idx * static_cast<uint32_t>(ge_channels) +
                         static_cast<uint32_t>(channel)]
            : &dummy_state;
    return ObserveChannelSlot(spec, state, slot, &client_stream[idx]);
  }
};

Result<PopulationSimulator> PopulationSimulator::Create(
    const IndexTree& tree, const BroadcastSchedule& schedule) {
  auto index = AccessIndex::Create(tree, schedule);
  if (!index.ok()) return index.status();
  return PopulationSimulator(std::move(index).value());
}

Result<PopulationSimulator> PopulationSimulator::Create(
    const IndexTree& tree, const ReplicatedProgram& program) {
  auto index = AccessIndex::Create(tree, program);
  if (!index.ok()) return index.status();
  return PopulationSimulator(std::move(index).value());
}

void PopulationSimulator::RunShard(uint64_t begin, uint64_t end,
                                   const PopSimOptions& options,
                                   const PopulationSampler& sampler,
                                   const Rng& base, Fleet* fleet,
                                   ShardStats* stats) const {
  const uint64_t n = end - begin;
  const bool base_active = options.faults.active();
  const bool degraded_active = options.degraded_faults.active();
  auto has_ge = [](const FaultModel& m) {
    for (int c = 0; c < m.num_channels(); ++c) {
      if (m.channel(c).kind == LossModelKind::kGilbertElliott &&
          m.channel(c).active()) {
        return true;
      }
    }
    return false;
  };

  Shard shard;
  shard.base_faults = &options.faults;
  shard.degraded_faults = &options.degraded_faults;
  shard.clients.resize(n);
  shard.flags.assign(n, 0);
  if (base_active || degraded_active) {
    shard.client_stream.resize(n);
    if (has_ge(options.faults) || has_ge(options.degraded_faults)) {
      shard.ge_channels = index_.num_channels();
      shard.ge_states.assign(n * static_cast<uint64_t>(shard.ge_channels), {});
    }
  }

  // Per-client init: derive the keyed stream, draw the workload quantities,
  // seat the fault stream. Arrivals are collected as (first wake slot, idx)
  // and admitted in slot order by the calendar loop below.
  std::vector<std::pair<int64_t, uint32_t>> admissions;
  admissions.reserve(n);
  for (uint32_t idx = 0; idx < n; ++idx) {
    const uint64_t id = begin + idx;
    Rng client_rng = base.Substream(RngStream::kClient, id);
    PopulationSampler::ClientDraw draw =
        sampler.DrawClient(id, &client_rng, index_.cycle_length());
    stats->rng_query_draws += client_rng.draw_count();
    shard.clients[idx] = ClientState::Start(draw.target, draw.arrival);
    const bool active = draw.degraded ? degraded_active : base_active;
    if (draw.degraded) shard.flags[idx] |= kFlagDegraded;
    if (active) {
      shard.flags[idx] |= kFlagMediumActive;
      // Same stream a live client would use: the kFault substream of its own
      // generator, replayed from the seed instead of held as an engine.
      shard.client_stream[idx].Reset(
          client_rng.SubstreamSeed(RngStream::kFault));
    }
    admissions.emplace_back(shard.clients[idx].FirstWake(), idx);
  }
  std::sort(admissions.begin(), admissions.end());

  // Calendar ring: every in-flight wake is < 2 cycles ahead (walk backoff =
  // next cycle start + at most one cycle to the next occurrence), so a
  // power-of-two ring > 2 cycles can never wrap onto a pending wake.
  const uint64_t ring_size =
      std::bit_ceil(static_cast<uint64_t>(2 * index_.cycle_length() + 2));
  shard.ring.assign(ring_size, {});
  shard.ring_mask = ring_size - 1;

  // Slot-major wake-list loop: admit arrivals, step every client waking this
  // slot, re-enqueue at the returned next wake (strictly in the future).
  // bcast: hot
  std::vector<uint32_t> waking;
  uint64_t alive = n;
  size_t admitted = 0;
  int64_t t = admissions.empty() ? 0 : admissions.front().first;
  while (alive > 0) {
    waking.swap(shard.ring[static_cast<uint64_t>(t) & shard.ring_mask]);
    while (admitted < admissions.size() && admissions[admitted].first == t) {
      // Wake buckets grow to their high-water mark once and are recycled by
      // the swap/clear dance — steady state moves indices between
      // already-sized vectors.
      // bcast-lint: allow(hot-path-alloc)
      waking.push_back(admissions[admitted].second);
      ++admitted;
    }
    for (uint32_t idx : waking) {
      ClientState& client = shard.clients[idx];
      auto observe = [&shard, idx](int channel, int64_t slot) {
        return shard.Observe(idx, channel, slot);
      };
      int64_t next =
          Step(index_, &client, t, observe, options.recovery, &stats->tallies);
      if (next < 0) {
        // Terminal: record the outcome in the id-ordered fleet arrays.
        const uint64_t id = begin + idx;
        const ClientOutcome out = OutcomeOf(client);
        fleet->success[id] = out.success ? 1 : 0;
        fleet->probe_wait[id] = out.probe_wait;
        fleet->data_wait[id] = out.data_wait;
        fleet->tuning[id] = out.tuning;
        fleet->switches[id] = out.switches;
        stats->last_slot =
            std::max(stats->last_slot, out.success ? client.finish : t);
        if ((shard.flags[idx] & kFlagMediumActive) != 0) {
          stats->rng_fault_draws += shard.client_stream[idx].draw_count();
        }
        --alive;
      } else {
        // Same recycled-bucket argument as the admission push above.
        // bcast-lint: allow(hot-path-alloc)
        shard.ring[static_cast<uint64_t>(next) & shard.ring_mask].push_back(
            idx);
      }
    }
    waking.clear();
    ++stats->slots_processed;
    ++t;
  }
}

Result<PopReport> PopulationSimulator::Run(
    const PopSimOptions& options, std::vector<ClientOutcome>* per_client) const {
  obs::ScopedSpan span("popsim.run");
  obs::ScopedTimer timer(obs::GetHistogram("popsim.run_ns"));
  // Flush-on-degrade: a failed worker task or invalid spec below still emits
  // the fin record ("error") and flushes the sink via this guard.
  obs::TelemetryFinishGuard telemetry_guard(options.telemetry);

  auto sampler = PopulationSampler::Create(index_.tree(), options.population);
  if (!sampler.ok()) return sampler.status();
  if (options.num_threads < 0) {
    return InvalidArgumentError("num_threads must be >= 0");
  }
  if (options.num_shards < 0) {
    return InvalidArgumentError("num_shards must be >= 0");
  }

  const uint64_t n = options.population.num_clients;
  const int threads = options.num_threads == 0
                          ? HardwareConcurrency()
                          : options.num_threads;
  uint64_t shards =
      options.num_shards > 0
          ? static_cast<uint64_t>(options.num_shards)
          : std::clamp<uint64_t>((n + kClientsPerShard - 1) / kClientsPerShard,
                                 1, kMaxAutoShards);
  shards = std::min(shards, n);

  Fleet fleet(n);
  std::vector<ShardStats> stats(shards);
  // Root of the whole run's substream tree: every client forks off it via
  // Substream(RngStream::kClient, id).
  // bcast-lint: allow(rng-substreams)
  const Rng base(options.seed);

  // Contiguous, population-determined shard ranges. Each shard is a fully
  // independent mini-simulation, so with one thread they run inline and with
  // many they are just runner tasks — same work, same per-client streams,
  // bitwise-identical outcomes either way.
  const uint64_t per_shard = n / shards;
  const uint64_t remainder = n % shards;
  auto shard_range = [&](uint64_t s) {
    const uint64_t begin = s * per_shard + std::min(s, remainder);
    const uint64_t size = per_shard + (s < remainder ? 1 : 0);
    return std::pair<uint64_t, uint64_t>(begin, begin + size);
  };

  auto run_shard = [&](size_t s) {
    auto [begin, end] = shard_range(s);
    RunShard(begin, end, options, *sampler, base, &fleet, &stats[s]);
  };
  if (threads <= 1 || shards == 1) {
    for (uint64_t s = 0; s < shards; ++s) run_shard(s);
  } else {
    for (const Status& status :
         ParallelFor(threads, shards, nullptr, run_shard)) {
      BCAST_RETURN_IF_ERROR(status);
    }
  }

  // Deterministic aggregation: integer tallies sum in shard order; every
  // floating-point reduction (means, percentiles, digest) runs single-
  // threaded over the id-ordered outcome arrays, so the report never depends
  // on task interleaving.
  PopReport report;
  report.num_clients = n;
  report.shards_used = static_cast<int>(shards);
  report.threads_used = threads <= 1 || shards == 1 ? 1 : threads;
  for (const ShardStats& s : stats) {
    report.buckets_lost += s.tallies.buckets_lost;
    report.buckets_corrupted += s.tallies.buckets_corrupted;
    report.retries += s.tallies.retries;
    report.cycle_restarts += s.tallies.cycle_restarts;
    report.sequential_scans += s.tallies.sequential_scans;
    report.slots_processed += s.slots_processed;
    report.last_slot = std::max(report.last_slot, s.last_slot);
    report.rng_query_draws += s.rng_query_draws;
    report.rng_fault_draws += s.rng_fault_draws;
  }

  double probe_sum = 0.0, data_sum = 0.0, tuning_sum = 0.0, switch_sum = 0.0;
  std::vector<double> access_times, data_waits, tunings;
  uint64_t digest = 0x506f70536972ull;  // "PopSim" tag seeds the chain
  for (uint64_t i = 0; i < n; ++i) {
    const bool ok = fleet.success[i] != 0;
    digest = MixSeed(digest ^ (ok ? 1 : 0));
    digest = MixSeed(digest ^ BitsOf(fleet.probe_wait[i]));
    digest = MixSeed(digest ^ BitsOf(fleet.data_wait[i]));
    digest = MixSeed(digest ^ ((static_cast<uint64_t>(fleet.tuning[i]) << 32) |
                               fleet.switches[i]));
    if (!ok) continue;
    ++report.num_succeeded;
    probe_sum += fleet.probe_wait[i];
    data_sum += fleet.data_wait[i];
    tuning_sum += static_cast<double>(fleet.tuning[i]);
    switch_sum += static_cast<double>(fleet.switches[i]);
    access_times.push_back(fleet.probe_wait[i] + fleet.data_wait[i]);
    data_waits.push_back(fleet.data_wait[i]);
    tunings.push_back(static_cast<double>(fleet.tuning[i]));
  }
  report.digest = digest;
  report.success_rate =
      n > 0 ? static_cast<double>(report.num_succeeded) /
                  static_cast<double>(n)
            : 0.0;
  if (report.num_succeeded > 0) {
    const double ns = static_cast<double>(report.num_succeeded);
    report.mean_probe_wait = probe_sum / ns;
    report.mean_data_wait = data_sum / ns;
    report.mean_access_time = (probe_sum + data_sum) / ns;
    report.mean_tuning_time = tuning_sum / ns;
    report.mean_switches = switch_sum / ns;
    report.listen_fraction =
        report.mean_access_time > 0.0
            ? report.mean_tuning_time / report.mean_access_time
            : 0.0;

    auto nearest_rank = [](std::vector<double>& values, double quantile) {
      size_t rank = static_cast<size_t>(
          std::ceil(quantile * static_cast<double>(values.size())));
      if (rank > 0) --rank;
      if (rank >= values.size()) rank = values.size() - 1;
      return values[rank];
    };
    std::sort(access_times.begin(), access_times.end());
    std::sort(data_waits.begin(), data_waits.end());
    std::sort(tunings.begin(), tunings.end());
    report.p50_access_time = nearest_rank(access_times, 0.50);
    report.p95_access_time = nearest_rank(access_times, 0.95);
    report.p99_access_time = nearest_rank(access_times, 0.99);
    report.p50_data_wait = nearest_rank(data_waits, 0.50);
    report.p95_data_wait = nearest_rank(data_waits, 0.95);
    report.p99_data_wait = nearest_rank(data_waits, 0.99);
    report.p50_tuning_time = nearest_rank(tunings, 0.50);
    report.p95_tuning_time = nearest_rank(tunings, 0.95);
    report.p99_tuning_time = nearest_rank(tunings, 0.99);
  }

  if (per_client != nullptr) {
    per_client->resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      ClientOutcome& out = (*per_client)[i];
      out.success = fleet.success[i] != 0;
      out.probe_wait = fleet.probe_wait[i];
      out.data_wait = fleet.data_wait[i];
      out.tuning = fleet.tuning[i];
      out.switches = fleet.switches[i];
    }
  }

  if (obs::MetricsEnabled()) {
    obs::GetCounter("popsim.clients").Add(report.num_clients);
    obs::GetCounter("popsim.succeeded").Add(report.num_succeeded);
    obs::GetCounter("popsim.retries").Add(report.retries);
    obs::GetCounter("popsim.cycle_restarts").Add(report.cycle_restarts);
    obs::GetCounter("popsim.sequential_scans").Add(report.sequential_scans);
    obs::GetCounter("popsim.buckets_lost").Add(report.buckets_lost);
    obs::GetCounter("popsim.buckets_corrupted").Add(report.buckets_corrupted);
    obs::GetCounter("popsim.slots_processed").Add(report.slots_processed);
    obs::GetCounter("rng.draws.query").Add(report.rng_query_draws);
    obs::GetCounter("rng.draws.fault").Add(report.rng_fault_draws);
  }

  // Per-client wait/tuning distributions (successful clients, rounded to
  // whole slots) — the population-scale histograms behind the p50/p95/p99
  // columns of `bcastctl popsim`. With telemetry on, the same pass runs
  // shard by shard instead of in one sweep: shards are contiguous ascending
  // id ranges, so the recording order — and with it the final metrics
  // snapshot — is identical, while each shard's telemetry tick now brackets
  // exactly that shard's recordings and its windowed histogram quantiles
  // (popsim.data_wait_slots.p50/...) cover exactly that shard's clients.
  if (options.telemetry != nullptr) {
    // Per-shard-merge telemetry: one tick per shard, in shard-id order, on
    // this (single) aggregation thread — the workers have already joined, so
    // emission can never race a shard and never perturbs a per-client
    // outcome. Ticks are keyed by the shard ordinal, never wall clock, and
    // every value is recomputed from the id-ordered fleet arrays, so the
    // stream itself is byte-identical across thread counts too.
    obs::TelemetryPipeline& telemetry = *options.telemetry;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    obs::Histogram data_wait_hist = obs::GetHistogram("popsim.data_wait_slots");
    obs::Histogram tuning_hist = obs::GetHistogram("popsim.tuning_slots");
    for (uint64_t s = 0; s < shards; ++s) {
      auto [begin, end] = shard_range(s);
      uint64_t succeeded = 0;
      double shard_data_sum = 0.0;
      for (uint64_t i = begin; i < end; ++i) {
        if (fleet.success[i] == 0) continue;
        ++succeeded;
        shard_data_sum += fleet.data_wait[i];
        data_wait_hist.Record(static_cast<uint64_t>(fleet.data_wait[i]));
        tuning_hist.Record(fleet.tuning[i]);
      }
      const uint64_t clients = end - begin;
      telemetry.Observe("popsim.shard.clients", static_cast<double>(clients));
      telemetry.Observe("popsim.shard.success_rate",
                        clients > 0 ? static_cast<double>(succeeded) /
                                          static_cast<double>(clients)
                                    : nan);
      telemetry.Observe(
          "popsim.shard.mean_data_wait",
          succeeded > 0 ? shard_data_sum / static_cast<double>(succeeded)
                        : nan);
      telemetry.Observe("popsim.shard.retries",
                        static_cast<double>(stats[s].tallies.retries));
      telemetry.Observe("popsim.shard.slots_processed",
                        static_cast<double>(stats[s].slots_processed));
      telemetry.Observe("popsim.shard.rng_fault_draws",
                        static_cast<double>(stats[s].rng_fault_draws));
      telemetry.Tick(s);
    }
  } else if (obs::MetricsEnabled()) {
    obs::Histogram data_wait_hist = obs::GetHistogram("popsim.data_wait_slots");
    obs::Histogram tuning_hist = obs::GetHistogram("popsim.tuning_slots");
    for (uint64_t i = 0; i < n; ++i) {
      if (fleet.success[i] == 0) continue;
      data_wait_hist.Record(static_cast<uint64_t>(fleet.data_wait[i]));
      tuning_hist.Record(fleet.tuning[i]);
    }
  }
  telemetry_guard.set_outcome("ok");
  return report;
}

}  // namespace bcast
