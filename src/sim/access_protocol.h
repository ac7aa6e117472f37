// The client access protocol of Section 2.1, written once for every driver.
//
// A client poses a query at some arrival time, reads a first-channel bucket
// for the pointer to the next cycle start (probe), then follows (channel,
// offset) index pointers from the root down to its data bucket, dozing in
// between (walk). On a faulty medium it degrades through a three-rung
// recovery ladder instead of failing silently:
//   1. retry — an unusable bucket is re-read at the node's next broadcast
//      occurrence (an in-cycle replica under a replicated program, otherwise
//      the same slot one cycle later), up to max_retries_per_hop failures per
//      hop;
//   2. restart — a hop that exhausts its retries abandons the pointer chain,
//      dozes to the next cycle start and descends again from the root, up to
//      max_cycle_restarts times;
//   3. sequential scan — the client scans the cycle channel by channel,
//      listening to every bucket until the target arrives intact, for
//      max_scan_passes passes. A dead probe skips straight to this rung.
// Each rung resumes at or after the last slot the client observed, since a
// fault realization only moves forward in time. A client that exhausts every
// rung is reported as failed, never as an optimistic wait.
//
// Three parts:
//   * AccessIndex — the per-program geometry, built once and shared by every
//     client: the channel-major bucket grid, each node's occurrences sorted by
//     slot, and the root->target pointer path of every data node.
//   * ClientState — one client's small protocol state.
//   * Step() — the one transition: the client observes its bucket at its wake
//     slot and returns the next slot it listens at, or -1 once it is done.
//
// Two drivers run this core: sim/client_sim.h steps one client at a time to
// completion, and popsim/popsim.h keeps a whole fleet in flight on a wake
// calendar. Because both call the same Step(), their per-client outcomes
// agree bit for bit whenever their fault sources draw identically.

#ifndef BCAST_SIM_ACCESS_PROTOCOL_H_
#define BCAST_SIM_ACCESS_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "alloc/replication.h"
#include "broadcast/schedule.h"
#include "fault/fault_model.h"
#include "tree/index_tree.h"
#include "util/status.h"

namespace bcast {

/// Bounds on the client's recovery ladder under a faulty medium.
struct RecoveryOptions {
  /// Failed reads tolerated per pointer hop before the chain is abandoned.
  int max_retries_per_hop = 3;
  /// Root restarts (doze to next cycle start, descend again) before the
  /// client stops trusting the index.
  int max_cycle_restarts = 2;
  /// Full passes over all channels in the last-resort sequential scan.
  int max_scan_passes = 2;
};

/// One client's terminal outcome. Waits are in buckets (slot times);
/// probe_wait/data_wait are meaningful only when success is true.
struct ClientOutcome {
  bool success = false;
  double probe_wait = 0.0;
  double data_wait = 0.0;
  uint32_t tuning = 0;
  uint32_t switches = 0;
};

/// Fault and recovery counters, summed over every client a driver steps.
struct AccessTallies {
  uint64_t buckets_lost = 0;       // listened slots with nothing received
  uint64_t buckets_corrupted = 0;  // listened slots failing the checksum
  uint64_t retries = 0;            // re-reads at a later occurrence
  uint64_t cycle_restarts = 0;     // backoffs to a cycle start
  uint64_t sequential_scans = 0;   // clients that degraded to a full scan
};

/// Per-program protocol geometry, immutable once built. The tree must
/// outlive the index.
class AccessIndex {
 public:
  /// One broadcast occurrence of a node within the cycle.
  struct Occurrence {
    int slot = -1;
    int channel = -1;
  };

  /// Errors if the schedule is infeasible for the tree.
  static Result<AccessIndex> Create(const IndexTree& tree,
                                    const BroadcastSchedule& schedule);

  /// Replicated program (index replicas shorten both the probe wait and the
  /// recovery retries). Errors if the program fails ValidateReplicatedProgram.
  static Result<AccessIndex> Create(const IndexTree& tree,
                                    const ReplicatedProgram& program);

  const IndexTree& tree() const { return *tree_; }
  bool replicated() const { return replicated_; }
  int num_channels() const { return num_channels_; }
  int64_t cycle_length() const { return cycle_length_; }

  /// The bucket on air on `channel` at within-cycle slot `slot`
  /// (kInvalidNode for an empty bucket).
  NodeId At(int channel, int64_t slot) const {
    return grid_[static_cast<size_t>(channel) *
                     static_cast<size_t>(cycle_length_) +
                 static_cast<size_t>(slot)];
  }

  /// Root -> ... -> `target` pointer path of a data node.
  std::span<const NodeId> PathTo(NodeId target) const {
    const size_t begin = path_begin_[static_cast<size_t>(target)];
    return {path_nodes_.data() + begin,
            path_begin_[static_cast<size_t>(target) + 1] - begin};
  }

  /// Earliest occurrence of `node` whose slot start is >= `time` under the
  /// circular broadcast; its absolute slot goes to `*abs_slot`.
  Occurrence NextOccurrence(NodeId node, int64_t time, int64_t* abs_slot) const;

  int64_t NextCycleStart(int64_t time) const {
    return ((time + cycle_length_ - 1) / cycle_length_) * cycle_length_;
  }

 private:
  AccessIndex(const IndexTree& tree, bool replicated, int num_channels,
              int64_t cycle_length);

  // Records every non-empty grid bucket as an occurrence of its node
  // (slot-major, so each list comes out sorted by slot) and precomputes the
  // pointer path of every data node.
  void IndexGrid();

  const IndexTree* tree_;
  bool replicated_;
  int num_channels_;
  int64_t cycle_length_;
  std::vector<NodeId> grid_;  // channel-major: grid_[c * cycle + s]
  // Node v's occurrences are occurrences_[occurrence_begin_[v] ..
  // occurrence_begin_[v + 1]); its path (data nodes only) is laid out the
  // same way in path_nodes_.
  std::vector<size_t> occurrence_begin_;
  std::vector<Occurrence> occurrences_;
  std::vector<size_t> path_begin_;
  std::vector<NodeId> path_nodes_;
};

/// Where a client is in the protocol.
enum class ClientPhase : uint8_t {
  kProbe,  // reading first-channel buckets for the root pointer
  kWalk,   // descending the pointer chain root -> target
  kScan,   // last-resort sequential scan, channel by channel
  kDone,   // terminal: delivered (finish >= 0) or failed
};

/// One client's protocol state. Counters are as wide as the RecoveryOptions
/// budgets and path depths they count against.
struct ClientState {
  double arrival = 0.0;    // query time in slots; the probe starts at its floor
  int64_t probe_slot = -1;  // slot of the intact probe read, -1 until then
  int64_t anchor = -1;      // instant the data wait is measured from
  int64_t scan_start = -1;  // first slot of the sequential scan
  int64_t finish = -1;      // slot after the delivered bucket, -1 = none
  NodeId target = kInvalidNode;
  int32_t hop = 0;           // index into the target's pointer path
  int32_t failures = 0;      // retries spent on the current hop
  int32_t restarts = 0;      // cycle restarts so far
  int32_t last_channel = 0;  // the client starts on the first channel
  int32_t wake_channel = 0;  // channel of the scheduled walk read
  uint32_t tuning = 0;       // buckets actively listened to
  uint32_t switches = 0;     // channel hops
  ClientPhase phase = ClientPhase::kProbe;

  /// A client about to probe for `target` at time `arrival`.
  static ClientState Start(NodeId target, double arrival) {
    ClientState state;
    state.target = target;
    state.arrival = arrival;
    return state;
  }

  /// The slot the client first listens at.
  int64_t FirstWake() const { return static_cast<int64_t>(arrival); }
};

/// The terminal outcome of a client whose Step() returned -1.
ClientOutcome OutcomeOf(const ClientState& state);

/// One transition: the client observes its bucket at wake slot `t` through
/// `observe(channel, slot) -> BucketOutcome` (its own fault source; a
/// lossless driver returns kOk without drawing), updates `state` and
/// `tallies`, and returns its next wake slot (strictly > t), or -1 when it
/// reached kDone.
// bcast: hot
template <typename Observe>
int64_t Step(const AccessIndex& index, ClientState* state, int64_t t,
             Observe&& observe, const RecoveryOptions& recovery,
             AccessTallies* tallies) {
  const int64_t cycle = index.cycle_length();
  ClientState& s = *state;

  auto record_fault = [tallies](BucketOutcome got) {
    if (got == BucketOutcome::kLost) {
      ++tallies->buckets_lost;
    } else if (got == BucketOutcome::kCorrupted) {
      ++tallies->buckets_corrupted;
    }
  };
  auto complete = [&s](int64_t finish) -> int64_t {
    s.phase = ClientPhase::kDone;
    s.finish = finish;
    return -1;
  };
  // Rung 3 starts at the cycle start after the last observed slot `t`; a
  // zero scan budget fails the client on the spot.
  auto enter_scan = [&]() -> int64_t {
    ++tallies->sequential_scans;
    s.scan_start = index.NextCycleStart(t + 1);
    if (recovery.max_scan_passes <= 0) return complete(-1);
    s.phase = ClientPhase::kScan;
    return s.scan_start;
  };
  // Schedules the read of the current hop at or after `from`.
  auto schedule_hop = [&](int64_t from) -> int64_t {
    int64_t abs = 0;
    AccessIndex::Occurrence occ = index.NextOccurrence(
        index.PathTo(s.target)[static_cast<size_t>(s.hop)], from, &abs);
    s.wake_channel = occ.channel;
    return abs;
  };

  switch (s.phase) {
    case ClientPhase::kProbe: {
      // Any first-channel bucket carries the pointer that locates the root;
      // on a fault the channel's next bucket is tried, within a budget that
      // bounds a fully dead medium.
      const int64_t probe_start = s.FirstWake();
      if (t > probe_start) ++tallies->retries;
      ++s.tuning;
      BucketOutcome got = observe(0, t);
      if (got == BucketOutcome::kOk) {
        s.probe_slot = t;
        int64_t resume;
        if (index.replicated()) {
          // The probe bucket points at the next root occurrence directly;
          // the anchor is fixed at the first successful root read.
          resume = t + 1;
        } else {
          // A plain client dozes to the advertised next cycle start.
          resume = (t / cycle + 1) * cycle;
          s.anchor = resume;
        }
        s.phase = ClientPhase::kWalk;
        return schedule_hop(resume);
      }
      record_fault(got);
      const int64_t probe_limit =
          probe_start +
          (static_cast<int64_t>(recovery.max_cycle_restarts) + 1) * cycle;
      if (t + 1 > probe_limit) return enter_scan();  // probe budget dead
      return t + 1;
    }

    case ClientPhase::kWalk: {
      const int channel = s.wake_channel;
      ++s.tuning;
      if (channel != s.last_channel) {
        ++s.switches;
        s.last_channel = channel;
      }
      BucketOutcome got = observe(channel, t);
      if (got == BucketOutcome::kOk) {
        const int64_t resume = t + 1;
        if (index.replicated() && s.hop == 0 && s.anchor < 0) {
          s.anchor = resume;
        }
        ++s.hop;
        if (static_cast<size_t>(s.hop) == index.PathTo(s.target).size()) {
          return complete(resume);
        }
        s.failures = 0;
        return schedule_hop(resume);
      }
      record_fault(got);
      if (s.failures < recovery.max_retries_per_hop) {
        // Rung 1: re-read this hop at the node's next occurrence.
        ++s.failures;
        ++tallies->retries;
        return schedule_hop(t + 1);
      }
      if (s.restarts < recovery.max_cycle_restarts) {
        // Rung 2: the chain is broken; doze to the next cycle start and
        // descend again from the root.
        ++s.restarts;
        ++tallies->cycle_restarts;
        s.hop = 0;
        s.failures = 0;
        return schedule_hop(index.NextCycleStart(t + 1));
      }
      return enter_scan();  // rung 3: pointers exhausted
    }

    case ClientPhase::kScan: {
      const int64_t rel = t - s.scan_start;
      const int channel = static_cast<int>(
          (rel / cycle) % static_cast<int64_t>(index.num_channels()));
      if (rel % cycle == 0 && channel != s.last_channel) {
        ++s.switches;
        s.last_channel = channel;
      }
      ++s.tuning;
      BucketOutcome got = observe(channel, t);
      if (got == BucketOutcome::kOk &&
          index.At(channel, t % cycle) == s.target) {
        return complete(t + 1);
      }
      record_fault(got);
      const int64_t scan_slots =
          static_cast<int64_t>(recovery.max_scan_passes) *
          index.num_channels() * cycle;
      if (rel + 1 >= scan_slots) return complete(-1);
      return t + 1;
    }

    case ClientPhase::kDone:
      break;
  }
  return -1;
}

}  // namespace bcast

#endif  // BCAST_SIM_ACCESS_PROTOCOL_H_
