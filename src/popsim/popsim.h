// Population simulator: the access protocol of Section 2.1 replayed by an
// entire client fleet at once.
//
// Where sim/client_sim.h steps one client start-to-finish per query, this
// engine keeps the whole population in flight — one ClientState per client
// plus its own fault stream — and advances broadcast time slot by slot: each
// slot, the clients waking in that slot's wake-list bucket take one Step()
// of the shared protocol core and re-enqueue at their next listening slot.
// Dozing clients cost nothing — only listening clients are ever touched.
//
// Scale-out and determinism contract:
//   * The fleet is split into shards (contiguous client-id ranges) that run
//     as tasks on the work-stealing exec::ThreadPool. Clients never interact
//     — the broadcast medium is read-only and fault realizations are
//     per-client — so shards need no synchronization at all.
//   * Client c's randomness comes exclusively from the keyed substream
//     Substream(RngStream::kClient, c) of the run seed: target and arrival
//     from that generator, fault draws from *its* kFault substream (held as a
//     popsim/replay_rng.h stream, bit-identical to a live Rng). No draw
//     depends on scheduling, so every per-client outcome — and the id-ordered
//     digest over them — is identical across shard layouts and thread counts.
//   * The protocol itself (probe, pointer-chain descent, and the three-rung
//     recovery ladder: retry / cycle restart / sequential scan) is the shared
//     core of sim/access_protocol.h; this engine is its fleet driver and
//     ClientSimulator its one-client driver. The differential test in
//     tests/popsim_test.cc pins per-client equality of the two drivers, with
//     and without faults, against a loop over ClientSimulator with
//     identically derived seeds.
//
// Population shape (interest mix, arrival horizon, dozing, per-client loss
// regimes) comes from workload/population.h.

#ifndef BCAST_POPSIM_POPSIM_H_
#define BCAST_POPSIM_POPSIM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "alloc/replication.h"
#include "broadcast/schedule.h"
#include "fault/fault_model.h"
#include "sim/access_protocol.h"
#include "sim/client_sim.h"
#include "tree/index_tree.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/population.h"

namespace bcast::obs {
class TelemetryPipeline;
}  // namespace bcast::obs

namespace bcast {

struct PopSimOptions {
  PopulationSpec population;
  /// Base medium every client listens through. Default: lossless.
  FaultModel faults;
  /// Medium for the population's degraded_fraction clients.
  FaultModel degraded_faults;
  RecoveryOptions recovery;
  /// Run seed; client c draws from Substream(RngStream::kClient, c).
  uint64_t seed = 0xC11;
  /// Worker threads; 0 = ThreadPool::HardwareConcurrency(). Never affects
  /// results, only wall clock.
  int num_threads = 1;
  /// Fleet shards; 0 = auto (a function of the population size only, so a
  /// run is reproducible regardless of the machine's core count).
  int num_shards = 0;
  /// Streaming telemetry (obs/stream.h): when set, Run() closes one tick per
  /// shard during the post-join merge — in shard-id order, keyed by the shard
  /// ordinal, never wall clock — carrying that shard's client count, success
  /// rate, mean data wait and fault/retry tallies, and Finish()es the
  /// pipeline on every exit path. Emission happens strictly after the
  /// workers join, on the aggregation thread, so the per-client outcomes and
  /// the digest are byte-identical with this on or off, for every thread and
  /// shard count.
  obs::TelemetryPipeline* telemetry = nullptr;
};

/// Population-level aggregates. Means and percentiles are over *successful*
/// clients (the ClientSimulator convention); failures are visible through
/// num_succeeded / success_rate only.
struct PopReport {
  uint64_t num_clients = 0;
  uint64_t num_succeeded = 0;
  double success_rate = 0.0;

  double mean_probe_wait = 0.0;
  double mean_data_wait = 0.0;
  double mean_access_time = 0.0;
  double mean_tuning_time = 0.0;
  double mean_switches = 0.0;
  double listen_fraction = 0.0;

  // Nearest-rank tails over successful clients.
  double p50_access_time = 0.0, p95_access_time = 0.0, p99_access_time = 0.0;
  double p50_data_wait = 0.0, p95_data_wait = 0.0, p99_data_wait = 0.0;
  double p50_tuning_time = 0.0, p95_tuning_time = 0.0, p99_tuning_time = 0.0;

  // Fault and recovery telemetry (all zero on a lossless medium).
  uint64_t buckets_lost = 0;
  uint64_t buckets_corrupted = 0;
  uint64_t retries = 0;
  uint64_t cycle_restarts = 0;
  uint64_t sequential_scans = 0;

  /// Wake-list slots advanced, summed over shards (idle slots included).
  uint64_t slots_processed = 0;
  /// Largest absolute slot any client finished or gave up at.
  int64_t last_slot = 0;

  /// Engine draws: per-client query streams summed, and per-client fault
  /// streams summed. With the seed these pin every consumed random prefix.
  uint64_t rng_query_draws = 0;
  uint64_t rng_fault_draws = 0;

  /// Order-sensitive hash over (success, probe_wait, data_wait, tuning,
  /// switches) in client-id order — THE bit-stability witness: identical
  /// seeds must produce identical digests for every shard and thread count.
  uint64_t digest = 0;

  int shards_used = 0;
  int threads_used = 0;
};

/// Simulates a client population against one broadcast program. The tree
/// (and nothing else) must outlive the simulator.
class PopulationSimulator {
 public:
  /// Errors if the schedule is infeasible for the tree.
  static Result<PopulationSimulator> Create(const IndexTree& tree,
                                            const BroadcastSchedule& schedule);

  /// Replicated-program variant (index replicas shorten probe and retries).
  static Result<PopulationSimulator> Create(const IndexTree& tree,
                                            const ReplicatedProgram& program);

  /// Runs the whole population to completion. When `per_client` is non-null
  /// it receives every client's terminal outcome in id order (sized
  /// population.num_clients) — the differential test's hook. Errors on an
  /// invalid spec or a failed worker task.
  Result<PopReport> Run(const PopSimOptions& options,
                        std::vector<ClientOutcome>* per_client = nullptr) const;

  int num_channels() const { return index_.num_channels(); }
  int64_t cycle_length() const { return index_.cycle_length(); }

 private:
  struct Fleet;       // id-ordered terminal-outcome arrays (popsim.cc)
  struct Shard;       // one shard's transient working state (popsim.cc)
  struct ShardStats;  // per-shard counters (popsim.cc)

  explicit PopulationSimulator(AccessIndex index) : index_(std::move(index)) {}

  // Runs clients [begin, end) to completion: per-client init (keyed stream,
  // workload draw) then the calendar-ring wake-list loop over slots.
  void RunShard(uint64_t begin, uint64_t end, const PopSimOptions& options,
                const PopulationSampler& sampler, const Rng& base,
                Fleet* fleet, ShardStats* stats) const;

  AccessIndex index_;
};

}  // namespace bcast

#endif  // BCAST_POPSIM_POPSIM_H_
