// The paper's Section 3.1 best-first strategy, kept as a test oracle for the
// depth-first optimizer: a priority queue on E(X) = V(X) + U(X) over the same
// (possibly reduced) topological tree, built from TopoTreeSearch's public
// expansion blocks. It visits states in a different order and records
// dominance in a different way than the DFS's memo, so agreement on the
// optimal cost is an independent check of both the search order and the
// memo.

#ifndef BCAST_TESTS_BEST_FIRST_ORACLE_H_
#define BCAST_TESTS_BEST_FIRST_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/topo_search.h"
#include "tree/index_tree.h"
#include "util/status.h"

namespace bcast {

// Returns the optimum over `search`'s tree (which must be `tree`), stopping
// at the first goal popped. RESOURCE_EXHAUSTED beyond `max_expansions`
// expanded states.
inline Result<AllocationResult> BestFirstSearch(
    const IndexTree& tree, const TopoTreeSearch& search,
    uint64_t max_expansions = 200'000'000) {
  struct ArenaNode {
    uint64_t mask;
    uint64_t last_set;
    double v;
    int depth;
    int parent;  // arena index, -1 for the root
  };
  struct QueueEntry {
    double e;  // E(X) = V(X) + U(X)
    double v;
    int arena_index;
    bool operator>(const QueueEntry& other) const {
      if (e != other.e) return e > other.e;
      return v > other.v;
    }
  };
  auto bit = [](NodeId id) { return uint64_t{1} << id; };

  const int n = tree.num_nodes();
  const uint64_t full_mask = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  const NodeId root = tree.root();
  SearchStats stats;
  std::vector<ArenaNode> arena;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> open;
  const double v0 = tree.is_data(root) ? tree.weight(root) : 0.0;
  arena.push_back({bit(root), bit(root), v0, 1, -1});
  open.push({v0 + search.LowerBound(bit(root), 1), v0, 0});

  // A state is skippable if an already-seen state with the same allocated
  // mask and last compound set (pruned neighbor generation depends on it)
  // had both depth' <= depth and v' <= v.
  struct Seen {
    int depth;
    double v;
  };
  std::unordered_map<uint64_t, std::vector<Seen>> seen;
  auto state_key = [](uint64_t mask, uint64_t last_set) -> uint64_t {
    return mask ^ (last_set * uint64_t{0x9E3779B97F4A7C15});
  };
  auto dominated = [&](uint64_t key, int depth, double v) {
    auto it = seen.find(key);
    if (it == seen.end()) return false;
    for (const Seen& s : it->second) {
      if (s.depth <= depth && s.v <= v + 1e-12) return true;
    }
    return false;
  };

  std::vector<uint64_t> neighbors;
  while (!open.empty()) {
    const QueueEntry top = open.top();
    open.pop();
    const ArenaNode node = arena[static_cast<size_t>(top.arena_index)];
    if (node.mask == full_mask) {
      // First goal popped: optimal because E is a lower bound on total cost.
      std::vector<uint64_t> path;
      for (int cur = top.arena_index;
           arena[static_cast<size_t>(cur)].parent != -1;
           cur = arena[static_cast<size_t>(cur)].parent) {
        path.push_back(arena[static_cast<size_t>(cur)].last_set);
      }
      std::reverse(path.begin(), path.end());
      AllocationResult result;
      result.slots.push_back({root});
      for (uint64_t set : path) {
        std::vector<NodeId> slot;
        for (NodeId id = 0; id < n; ++id) {
          if ((set & bit(id)) != 0) slot.push_back(id);
        }
        result.slots.push_back(std::move(slot));
      }
      result.average_data_wait = node.v / tree.total_data_weight();
      result.cost_lower_bound = result.average_data_wait;
      result.cost_upper_bound = result.average_data_wait;
      result.stats = stats;
      result.stats.paths_completed = 1;
      return result;
    }
    const uint64_t key = state_key(node.mask, node.last_set);
    if (dominated(key, node.depth, node.v)) {
      ++stats.dominance_skips;
      continue;
    }
    seen[key].push_back({node.depth, node.v});

    ++stats.nodes_expanded;
    if (stats.nodes_expanded > max_expansions) {
      return ResourceExhaustedError("best-first search exceeded " +
                                    std::to_string(max_expansions) +
                                    " expansions");
    }
    search.GenerateNeighbors(node.mask, node.last_set, &neighbors, &stats);
    for (uint64_t subset : neighbors) {
      const uint64_t child_mask = node.mask | subset;
      const int child_depth = node.depth + 1;
      const double child_v = node.v + search.SetDataWeight(subset) *
                                          static_cast<double>(child_depth);
      if (dominated(state_key(child_mask, subset), child_depth, child_v)) {
        ++stats.dominance_skips;
        continue;
      }
      arena.push_back(
          {child_mask, subset, child_v, child_depth, top.arena_index});
      open.push({child_v + search.LowerBound(child_mask, child_depth), child_v,
                 static_cast<int>(arena.size()) - 1});
    }
  }
  return InternalError("best-first search exhausted the open list");
}

}  // namespace bcast

#endif  // BCAST_TESTS_BEST_FIRST_ORACLE_H_
