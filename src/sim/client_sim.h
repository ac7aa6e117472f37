// Monte-Carlo mobile-client simulator.
//
// Replays the access protocol of Section 2.1 against a materialized broadcast
// cycle: a client poses a query at a uniformly random time, listens on the
// first channel for the pointer to the next cycle start (probe wait), then
// follows (channel, offset) index pointers — dozing in between — until the
// requested data bucket arrives (data wait). The simulator is the
// end-to-end check that the analytic cost model and the pointer
// materialization agree: the empirical mean data wait converges to formula
// (1), and the empirical tuning time to the weighted path length.
//
// The medium may be faulty (SimOptions::faults): buckets are lost or
// detectably corrupted per a FaultModel, and the client degrades gracefully
// through the retry / cycle-restart / sequential-scan ladder bounded by
// RecoveryOptions instead of silently failing. A query that exhausts every
// fallback is reported as failed, never as an optimistic wait.
//
// The protocol itself lives in sim/access_protocol.h; this simulator is its
// one-client driver: each query steps a single ClientState to completion
// under its own fault realization. popsim/popsim.h drives the same core for a
// whole fleet at once.
//
// Determinism: query sampling and arrival times draw from the caller's Rng;
// fault draws come from its RngStream::kFault substream. With all loss
// probabilities zero the fault substream is never touched and the simulation
// is bit-identical to the lossless simulator under the same seed.

#ifndef BCAST_SIM_CLIENT_SIM_H_
#define BCAST_SIM_CLIENT_SIM_H_

#include <cstdint>
#include <vector>

#include "alloc/replication.h"
#include "broadcast/schedule.h"
#include "fault/fault_model.h"
#include "sim/access_protocol.h"
#include "tree/index_tree.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/query_sampler.h"

namespace bcast {

struct SimOptions {
  uint64_t num_queries = 100'000;
  /// Medium fault model. Default: lossless (the paper's assumption).
  FaultModel faults;
  RecoveryOptions recovery;
};

/// Aggregates over simulated queries. Waits are in buckets (slot times).
/// Means and percentiles are taken over *successful* accesses; failures are
/// only visible through num_succeeded / success_rate.
struct SimReport {
  uint64_t num_queries = 0;
  double mean_probe_wait = 0.0;   // time to the next cycle start (~ cycle/2)
  double mean_data_wait = 0.0;    // cycle start -> data bucket downloaded
  double mean_access_time = 0.0;  // probe + data wait
  double mean_tuning_time = 0.0;  // buckets actively listened to
  double mean_switches = 0.0;     // channel hops along the pointer path
  /// Fraction of the access time spent listening (1 - doze ratio).
  double listen_fraction = 0.0;

  // --- delivery outcome (trivial on a lossless medium) --------------------
  uint64_t num_succeeded = 0;
  /// num_succeeded / num_queries (1.0 when the medium is lossless).
  double success_rate = 0.0;

  // --- fault and recovery telemetry (all zero on a lossless medium) -------
  uint64_t buckets_lost = 0;       // listened slots with nothing received
  uint64_t buckets_corrupted = 0;  // listened slots failing the checksum
  uint64_t retries = 0;            // re-reads at a later occurrence
  uint64_t cycle_restarts = 0;     // backoffs to a cycle start
  uint64_t sequential_scans = 0;   // queries that degraded to a full scan

  // --- access-time tail over successful queries (nearest-rank) ------------
  double p50_access_time = 0.0;
  double p95_access_time = 0.0;
  double p99_access_time = 0.0;

  // --- reproducibility ----------------------------------------------------
  /// Engine draws consumed from the caller's Rng (query sampling + arrivals)
  /// and from its kFault substream. Together with the seed these pin the
  /// exact random prefix a run consumed, so a report is replayable.
  uint64_t rng_query_draws = 0;
  uint64_t rng_fault_draws = 0;
};

/// Simulates clients against one broadcast program — either a plain
/// (tree, schedule) cycle or a replicated program whose index replicas the
/// recovery protocol exploits.
class ClientSimulator {
 public:
  /// Errors if the schedule is infeasible for the tree.
  static Result<ClientSimulator> Create(const IndexTree& tree,
                                        const BroadcastSchedule& schedule);

  /// Simulates against a replicated program (index replicas shorten both the
  /// probe wait and the recovery retries). Errors if the program fails
  /// ValidateReplicatedProgram.
  static Result<ClientSimulator> Create(const IndexTree& tree,
                                        const ReplicatedProgram& program);

  /// Runs `options.num_queries` independent client accesses.
  SimReport Run(Rng* rng, const SimOptions& options) const;

 private:
  explicit ClientSimulator(AccessIndex index);

  QuerySampler sampler_;
  AccessIndex index_;
};

}  // namespace bcast

#endif  // BCAST_SIM_CLIENT_SIM_H_
