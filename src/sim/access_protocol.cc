#include "sim/access_protocol.h"

#include <limits>
#include <vector>

#include "broadcast/pointers.h"
#include "util/check.h"

namespace bcast {

AccessIndex::AccessIndex(const IndexTree& tree, bool replicated,
                         int num_channels, int64_t cycle_length)
    : tree_(&tree),
      replicated_(replicated),
      num_channels_(num_channels),
      cycle_length_(cycle_length),
      grid_(static_cast<size_t>(num_channels) *
                static_cast<size_t>(cycle_length),
            kInvalidNode) {}

Result<AccessIndex> AccessIndex::Create(const IndexTree& tree,
                                        const BroadcastSchedule& schedule) {
  // Materialization both validates feasibility and yields the pointer table
  // the grid is cross-checked against below.
  auto pointers = MaterializePointers(tree, schedule);
  if (!pointers.ok()) return pointers.status();

  AccessIndex index(tree, /*replicated=*/false, schedule.num_channels(),
                    schedule.num_slots());
  for (int c = 0; c < index.num_channels_; ++c) {
    for (int s = 0; s < schedule.num_slots(); ++s) {
      index.grid_[static_cast<size_t>(c) *
                      static_cast<size_t>(index.cycle_length_) +
                  static_cast<size_t>(s)] = schedule.at(c, s);
    }
  }
  // Every advertised pointer must land exactly on its target's bucket; a
  // mismatch means the materialization and the grid disagree (memory
  // corruption or a refactoring bug), which no simulation should paper over.
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    SlotRef parent_ref = schedule.placement(id);
    for (const BucketPointer& ptr :
         pointers->pointers[static_cast<size_t>(id)]) {
      SlotRef target_ref = schedule.placement(ptr.target);
      BCAST_CHECK_EQ(parent_ref.slot + ptr.offset, target_ref.slot)
          << "pointer to '" << tree.label(ptr.target) << "' misses its bucket";
      BCAST_CHECK_EQ(ptr.channel, target_ref.channel);
    }
  }
  index.IndexGrid();
  return index;
}

Result<AccessIndex> AccessIndex::Create(const IndexTree& tree,
                                        const ReplicatedProgram& program) {
  BCAST_RETURN_IF_ERROR(ValidateReplicatedProgram(tree, program));

  AccessIndex index(tree, /*replicated=*/true, program.num_channels,
                    program.cycle_length);
  for (int c = 0; c < index.num_channels_; ++c) {
    for (int s = 0; s < program.cycle_length; ++s) {
      index.grid_[static_cast<size_t>(c) *
                      static_cast<size_t>(index.cycle_length_) +
                  static_cast<size_t>(s)] =
          program.grid[static_cast<size_t>(c)][static_cast<size_t>(s)];
    }
  }
  index.IndexGrid();
  return index;
}

void AccessIndex::IndexGrid() {
  const size_t n = static_cast<size_t>(tree_->num_nodes());
  // Occurrences, flat per node: count, prefix-sum, then fill slot-major so
  // each node's run comes out sorted by slot, which NextOccurrence's
  // tie-breaking relies on.
  occurrence_begin_.assign(n + 1, 0);
  for (NodeId node : grid_) {
    if (node == kInvalidNode) continue;
    ++occurrence_begin_[static_cast<size_t>(node) + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    occurrence_begin_[i + 1] += occurrence_begin_[i];
  }
  occurrences_.resize(occurrence_begin_[n]);
  std::vector<size_t> fill(occurrence_begin_.begin(),
                           occurrence_begin_.end() - 1);
  for (int64_t s = 0; s < cycle_length_; ++s) {
    for (int c = 0; c < num_channels_; ++c) {
      NodeId node = At(c, s);
      if (node == kInvalidNode) continue;
      occurrences_[fill[static_cast<size_t>(node)]++] = {static_cast<int>(s),
                                                         c};
    }
  }

  // Root -> target paths of the data nodes, flat: a node at level L has an
  // L-node path, filled leaf first along the parent links.
  path_begin_.assign(n + 1, 0);
  for (NodeId id = 0; id < tree_->num_nodes(); ++id) {
    const size_t length =
        tree_->is_data(id) ? static_cast<size_t>(tree_->node(id).level) : 0;
    path_begin_[static_cast<size_t>(id) + 1] =
        path_begin_[static_cast<size_t>(id)] + length;
  }
  path_nodes_.resize(path_begin_[n]);
  for (NodeId id = 0; id < tree_->num_nodes(); ++id) {
    if (!tree_->is_data(id)) continue;
    size_t pos = path_begin_[static_cast<size_t>(id) + 1];
    for (NodeId cur = id; cur != kInvalidNode; cur = tree_->parent(cur)) {
      path_nodes_[--pos] = cur;
    }
  }
}

AccessIndex::Occurrence AccessIndex::NextOccurrence(NodeId node, int64_t time,
                                                    int64_t* abs_slot) const {
  const int64_t cycle = cycle_length_;
  const int64_t base = (time / cycle) * cycle;
  int64_t best = std::numeric_limits<int64_t>::max();
  Occurrence best_occ;
  for (size_t i = occurrence_begin_[static_cast<size_t>(node)];
       i < occurrence_begin_[static_cast<size_t>(node) + 1]; ++i) {
    const Occurrence& occ = occurrences_[i];
    int64_t abs = base + occ.slot;
    if (abs < time) abs += cycle;
    if (abs < best) {
      best = abs;
      best_occ = occ;
    }
  }
  BCAST_CHECK(best_occ.slot >= 0)
      << "node '" << tree_->label(node) << "' never airs";
  *abs_slot = best;
  return best_occ;
}

ClientOutcome OutcomeOf(const ClientState& state) {
  ClientOutcome out;
  out.tuning = state.tuning;
  out.switches = state.switches;
  if (state.finish < 0) return out;
  int64_t anchor = state.anchor;
  if (anchor < 0) {
    // The index was never read intact (the scan delivered the data); anchor
    // at the probe bucket's end, or at the scan start when even the probe
    // died.
    anchor = state.probe_slot >= 0 ? state.probe_slot + 1 : state.scan_start;
  }
  out.success = true;
  out.probe_wait = static_cast<double>(anchor) - state.arrival;
  out.data_wait = static_cast<double>(state.finish - anchor);
  return out;
}

}  // namespace bcast
