#include "alloc/heuristics.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "alloc/data_tree.h"
#include "broadcast/cost.h"
#include "obs/obs.h"
#include "util/check.h"
#include "verify/verifier.h"

namespace bcast {

namespace {

// The paper's subtree ordering (Section 4.2): A precedes B iff
// N_B·W(A) >= N_A·W(B). Implemented as a strict comparator (ties keep the
// original order via stable_sort).
bool SubtreeBefore(const IndexTree& tree, NodeId a, NodeId b) {
  const TreeNode& na = tree.node(a);
  const TreeNode& nb = tree.node(b);
  return na.subtree_weight * static_cast<double>(nb.subtree_size) >
         nb.subtree_weight * static_cast<double>(na.subtree_size);
}

// Children of `id`, reordered by the sorting rule.
std::vector<NodeId> SortedChildren(const IndexTree& tree, NodeId id) {
  std::vector<NodeId> kids = tree.children(id);
  std::stable_sort(kids.begin(), kids.end(), [&](NodeId a, NodeId b) {
    return SubtreeBefore(tree, a, b);
  });
  return kids;
}

// Preorder of the tree with children visited in sorted order; this is the
// paper's single-channel sorted broadcast (Fig. 13).
std::vector<NodeId> SortedPreorder(const IndexTree& tree) {
  std::vector<NodeId> order;
  order.reserve(static_cast<size_t>(tree.num_nodes()));
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    order.push_back(id);
    std::vector<NodeId> kids = SortedChildren(tree, id);
    for (size_t i = kids.size(); i-- > 0;) stack.push_back(kids[i]);
  }
  return order;
}

}  // namespace

IndexTree SortIndexTree(const IndexTree& tree) {
  BCAST_CHECK(tree.finalized());
  // Preorder copy with children in sorted order, driven by an explicit stack
  // of (source node, copied parent) so any depth is safe.
  IndexTree sorted;
  std::vector<std::pair<NodeId, NodeId>> stack = {{tree.root(), kInvalidNode}};
  while (!stack.empty()) {
    const auto [src_id, dst_parent] = stack.back();
    stack.pop_back();
    const TreeNode& n = tree.node(src_id);
    if (n.kind == NodeKind::kData) {
      sorted.AddDataNode(dst_parent, n.weight, n.label);
      continue;
    }
    const NodeId dst_id = sorted.AddIndexNode(dst_parent, n.label);
    std::vector<NodeId> kids = SortedChildren(tree, src_id);
    for (size_t i = kids.size(); i-- > 0;) stack.push_back({kids[i], dst_id});
  }
  BCAST_CHECK(sorted.Finalize().ok());
  return sorted;
}

SlotSequence PackLinearOrder(const IndexTree& tree, int num_channels,
                             const std::vector<NodeId>& order) {
  BCAST_CHECK_GE(num_channels, 1);
  BCAST_CHECK_EQ(order.size(), static_cast<size_t>(tree.num_nodes()));
  // Each slot takes the (up to) num_channels earliest-in-order nodes whose
  // parent sits in a strictly earlier slot. Those nodes wait in a min-heap of
  // order positions; a slot's nodes release their children for the next
  // slot, so each node is pushed and popped once.
  std::vector<int> position(static_cast<size_t>(tree.num_nodes()), -1);
  for (size_t i = 0; i < order.size(); ++i) {
    int& pos = position[static_cast<size_t>(order[i])];
    BCAST_CHECK_EQ(pos, -1) << "linear order repeats node " << order[i];
    pos = static_cast<int>(i);
  }
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  ready.push(position[static_cast<size_t>(tree.root())]);
  SlotSequence slots;
  while (!ready.empty()) {
    std::vector<NodeId> current;
    while (!ready.empty() && current.size() < static_cast<size_t>(num_channels)) {
      current.push_back(order[static_cast<size_t>(ready.top())]);
      ready.pop();
    }
    for (NodeId node : current) {
      for (NodeId child : tree.children(node)) {
        ready.push(position[static_cast<size_t>(child)]);
      }
    }
    slots.push_back(std::move(current));
  }
  return slots;
}

// ---------------------------------------------------------------------------
// Index tree sorting (+ 1_To_k_BroadcastChannel)
// ---------------------------------------------------------------------------

namespace {

// The paper's 1_To_k_BroadcastChannel procedure: scan the level lists of the
// sorted tree top-down, allocate each list into one slot of up to k channels,
// and merge the unallocated remainder into the next level's list (keeping
// sequence order). After the last level the remaining list is dumped slot by
// slot. Nodes whose parent is not yet placed in a strictly earlier slot are
// deferred (the feasibility repair documented in the header).
SlotSequence OneToKAllocation(const IndexTree& tree, int num_channels,
                              const std::vector<NodeId>& sorted_preorder) {
  std::vector<int> seq(static_cast<size_t>(tree.num_nodes()), 0);
  for (size_t i = 0; i < sorted_preorder.size(); ++i) {
    seq[static_cast<size_t>(sorted_preorder[i])] = static_cast<int>(i);
  }
  // Level lists in sequence order.
  std::vector<std::vector<NodeId>> lists(static_cast<size_t>(tree.depth()));
  for (NodeId id : sorted_preorder) {
    lists[static_cast<size_t>(tree.node(id).level - 1)].push_back(id);
  }

  std::vector<int> placed_slot(static_cast<size_t>(tree.num_nodes()), -1);
  SlotSequence slots;
  auto fill_one_slot = [&](std::vector<NodeId>* list) {
    int slot = static_cast<int>(slots.size());
    std::vector<NodeId> current;
    std::vector<NodeId> leftover;
    size_t taken = 0;
    for (size_t i = 0; i < list->size(); ++i) {
      NodeId node = (*list)[i];
      NodeId parent = tree.parent(node);
      bool parent_ready =
          parent == kInvalidNode ||
          (placed_slot[static_cast<size_t>(parent)] >= 0 &&
           placed_slot[static_cast<size_t>(parent)] < slot);
      if (taken < static_cast<size_t>(num_channels) && parent_ready) {
        placed_slot[static_cast<size_t>(node)] = slot;
        current.push_back(node);
        ++taken;
      } else {
        leftover.push_back(node);
      }
    }
    BCAST_CHECK(!current.empty()) << "1_To_k made no progress";
    slots.push_back(std::move(current));
    *list = std::move(leftover);
  };

  std::vector<NodeId> carry;
  for (size_t level = 0; level < lists.size(); ++level) {
    // Merge the carried-over remainder into this level's list by sequence
    // number (both inputs are sequence-sorted).
    std::vector<NodeId> merged;
    merged.reserve(carry.size() + lists[level].size());
    std::merge(carry.begin(), carry.end(), lists[level].begin(),
               lists[level].end(), std::back_inserter(merged),
               [&](NodeId a, NodeId b) {
                 return seq[static_cast<size_t>(a)] < seq[static_cast<size_t>(b)];
               });
    fill_one_slot(&merged);
    carry = std::move(merged);
  }
  while (!carry.empty()) fill_one_slot(&carry);
  return slots;
}

}  // namespace

Result<AllocationResult> SortingHeuristic(const IndexTree& tree,
                                          int num_channels) {
  if (!tree.finalized()) {
    return FailedPreconditionError("index tree must be finalized");
  }
  if (num_channels < 1) return InvalidArgumentError("need at least one channel");

  obs::ScopedSpan span("heuristics.sort");
  std::vector<NodeId> order;
  {
    obs::ScopedTimer timer(obs::GetHistogram("heuristics.sort.order_ns"));
    order = SortedPreorder(tree);
  }
  AllocationResult result;
  if (num_channels == 1) {
    result.slots.reserve(order.size());
    for (NodeId id : order) result.slots.push_back({id});
  } else {
    obs::ScopedTimer timer(obs::GetHistogram("heuristics.sort.pack_ns"));
    result.slots = OneToKAllocation(tree, num_channels, order);
  }
  BCAST_RETURN_IF_ERROR(ValidateSlotSequence(tree, num_channels, result.slots));
  result.average_data_wait = SlotSequenceDataWait(tree, result.slots);
  result.provenance = PlanProvenance::kHeuristic;
  result.cost_upper_bound = result.average_data_wait;
  result.cost_lower_bound = DataWaitLowerBound(tree, num_channels);
  // Debug builds re-verify through the independent checker (including the
  // ADW recount the release-mode validation above does not do).
  BCAST_DCHECK_OK(AllocationVerifier(tree)
                      .VerifySlots(num_channels, result.slots,
                                   result.average_data_wait)
                      .ToStatus());
  return result;
}

// ---------------------------------------------------------------------------
// Index tree shrinking
// ---------------------------------------------------------------------------

namespace {

// Mutable view of a (sub)tree during node combination. Indices are the ids of
// the tree the view was created from. A combined node turns into a pseudo
// data node that keeps its (now dead) children, reordered; the linear
// sequence of *original* ids it stands for is its preorder (Expansion).
struct WorkTree {
  struct WorkNode {
    bool alive = true;
    bool is_data = false;
    double weight = 0.0;
    NodeId parent = kInvalidNode;
    std::vector<NodeId> children;
    NodeId orig = kInvalidNode;  // original id of this node itself
  };
  std::vector<WorkNode> nodes;
  int alive_count = 0;
};

WorkTree MakeWorkTree(const IndexTree& tree, const std::vector<NodeId>& to_orig) {
  WorkTree wt;
  wt.nodes.resize(static_cast<size_t>(tree.num_nodes()));
  wt.alive_count = tree.num_nodes();
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    WorkTree::WorkNode& wn = wt.nodes[static_cast<size_t>(id)];
    wn.is_data = tree.is_data(id);
    wn.weight = tree.weight(id);
    wn.parent = tree.parent(id);
    wn.children = tree.children(id);
    wn.orig = to_orig[static_cast<size_t>(id)];
  }
  return wt;
}

// The original ids a (pseudo) data node stands for: its preorder, children in
// their stored order. Explicit stack, so a chain combined into one node is
// safe at any depth.
std::vector<NodeId> Expansion(const WorkTree& wt, NodeId id) {
  std::vector<NodeId> order;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    const WorkTree::WorkNode& wn = wt.nodes[static_cast<size_t>(stack.back())];
    stack.pop_back();
    order.push_back(wn.orig);
    stack.insert(stack.end(), wn.children.rbegin(), wn.children.rend());
  }
  return order;
}

// Sum of the children's weights if every child of index node `id` is
// (pseudo) data — the node is combinable — else nullopt. Once combinable, a
// node's children never change until it is combined itself, so neither does
// its sum.
std::optional<double> CombinableWeight(const WorkTree& wt, NodeId id) {
  double sum = 0.0;
  for (NodeId c : wt.nodes[static_cast<size_t>(id)].children) {
    const WorkTree::WorkNode& cn = wt.nodes[static_cast<size_t>(c)];
    if (!cn.is_data) return std::nullopt;
    sum += cn.weight;
  }
  return sum;
}

// Combines index nodes whose children are all data (lightest combined weight
// first, lowest id on ties) until at most `target` nodes remain. Always
// reaches the target: in the limit the whole tree collapses into one pseudo
// data node. A min-heap holds the combinable nodes; a node joins it when its
// last index child is combined, so each step costs O(log N).
void CombineUntil(WorkTree* wt, int target) {
  using Candidate = std::pair<double, NodeId>;  // (children's weight, id)
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> heap;
  for (NodeId id = 0; id < static_cast<NodeId>(wt->nodes.size()); ++id) {
    if (wt->nodes[static_cast<size_t>(id)].is_data) continue;
    if (auto sum = CombinableWeight(*wt, id)) heap.emplace(*sum, id);
  }
  while (wt->alive_count > target) {
    BCAST_CHECK(!heap.empty()) << "no combinable index node found";
    const auto [weight, best] = heap.top();
    heap.pop();
    WorkTree::WorkNode& wn = wt->nodes[static_cast<size_t>(best)];
    // Restore order inside the combined node: the index node itself, then its
    // data children by descending weight.
    std::stable_sort(wn.children.begin(), wn.children.end(),
                     [&](NodeId a, NodeId b) {
                       return wt->nodes[static_cast<size_t>(a)].weight >
                              wt->nodes[static_cast<size_t>(b)].weight;
                     });
    for (NodeId c : wn.children) wt->nodes[static_cast<size_t>(c)].alive = false;
    wt->alive_count -= static_cast<int>(wn.children.size());
    wn.is_data = true;
    wn.weight = weight;
    if (wn.parent != kInvalidNode) {
      if (auto sum = CombinableWeight(*wt, wn.parent)) {
        heap.emplace(*sum, wn.parent);
      }
    }
  }
}

// Rebuilds an IndexTree from the alive nodes of a WorkTree. `expansions[i]`
// maps new data node i to its original-id sequence; `origs[i]` is the
// original id behind new node i.
void EmitWorkTree(const WorkTree& wt, int work_id, IndexTree* tree,
                  NodeId parent, std::vector<std::vector<NodeId>>* expansions) {
  const WorkTree::WorkNode& wn = wt.nodes[static_cast<size_t>(work_id)];
  BCAST_CHECK(wn.alive);
  if (wn.is_data) {
    tree->AddDataNode(parent, wn.weight, "p" + std::to_string(work_id));
    expansions->push_back(Expansion(wt, work_id));
    return;
  }
  tree->AddIndexNode(parent, "i" + std::to_string(work_id));
  expansions->push_back({wn.orig});
  NodeId self = static_cast<NodeId>(expansions->size()) - 1;
  for (NodeId c : wn.children) {
    if (wt.nodes[static_cast<size_t>(c)].alive) {
      EmitWorkTree(wt, c, tree, self, expansions);
    }
  }
}

// Extracts the subtree rooted at `sub_root` into a standalone tree plus the
// new-id -> original-id map (composed through `to_orig`). Preorder, driven
// by an explicit stack of (node, new parent) so any depth is safe.
void ExtractSubtree(const IndexTree& tree, NodeId sub_root,
                    const std::vector<NodeId>& to_orig, IndexTree* out,
                    std::vector<NodeId>* out_to_orig) {
  std::vector<std::pair<NodeId, NodeId>> stack = {{sub_root, kInvalidNode}};
  while (!stack.empty()) {
    const auto [id, parent] = stack.back();
    stack.pop_back();
    const TreeNode& n = tree.node(id);
    out_to_orig->push_back(to_orig[static_cast<size_t>(id)]);
    if (n.kind == NodeKind::kData) {
      out->AddDataNode(parent, n.weight, n.label);
      continue;
    }
    const NodeId self = out->AddIndexNode(parent, n.label);
    for (size_t i = n.children.size(); i-- > 0;) {
      stack.push_back({n.children[i], self});
    }
  }
}

// Solves `tree` (whose node i stands for original id to_orig[i]) into a
// feasible linear order of original ids.
Result<std::vector<NodeId>> ShrinkSolveOrder(const IndexTree& tree,
                                             const std::vector<NodeId>& to_orig,
                                             const ShrinkOptions& options,
                                             int num_channels) {
  const int limit = options.exact_size_limit;
  if (tree.num_nodes() <= limit) {
    // Exact single-channel order via the data-tree search.
    obs::ScopedTimer timer(obs::GetHistogram("heuristics.shrink.exact_ns"));
    DataTreeOptions dt_options;
    auto search = DataTreeSearch::Create(tree, dt_options);
    if (!search.ok()) return search.status();
    auto optimal = search->FindOptimal();
    if (!optimal.ok()) return optimal.status();
    std::vector<NodeId> order;
    order.reserve(static_cast<size_t>(tree.num_nodes()));
    for (const auto& slot : optimal->slots) {
      for (NodeId id : slot) order.push_back(to_orig[static_cast<size_t>(id)]);
    }
    return order;
  }

  if (options.strategy == ShrinkOptions::Strategy::kNodeCombination) {
    WorkTree wt = MakeWorkTree(tree, to_orig);
    {
      obs::ScopedTimer timer(obs::GetHistogram("heuristics.shrink.combine_ns"));
      CombineUntil(&wt, limit);
    }
    IndexTree combined;
    std::vector<std::vector<NodeId>> expansions;
    EmitWorkTree(wt, tree.root(), &combined, kInvalidNode, &expansions);
    BCAST_RETURN_IF_ERROR(combined.Finalize());
    DataTreeOptions dt_options;
    auto search = DataTreeSearch::Create(combined, dt_options);
    if (!search.ok()) return search.status();
    auto optimal = search->FindOptimal();
    if (!optimal.ok()) return optimal.status();
    std::vector<NodeId> order;
    for (const auto& slot : optimal->slots) {
      for (NodeId id : slot) {
        const auto& exp = expansions[static_cast<size_t>(id)];
        order.insert(order.end(), exp.begin(), exp.end());
      }
    }
    return order;
  }

  // Tree partitioning: solve each root subtree independently; merge in the
  // paper's sorted order.
  obs::GetCounter("heuristics.shrink.partitions").Increment();
  NodeId root = tree.root();
  if (tree.is_data(root)) {
    return std::vector<NodeId>{to_orig[static_cast<size_t>(root)]};
  }
  std::vector<NodeId> order = {to_orig[static_cast<size_t>(root)]};
  for (NodeId child : SortedChildren(tree, root)) {
    if (tree.is_data(child)) {
      order.push_back(to_orig[static_cast<size_t>(child)]);
      continue;
    }
    IndexTree sub;
    std::vector<NodeId> sub_to_orig;
    ExtractSubtree(tree, child, to_orig, &sub, &sub_to_orig);
    if (tree.node(child).subtree_weight == 0.0) {
      // Nobody asks for this subtree's data, so no order of it serves its own
      // items better, and Finalize would reject it as a standalone tree (zero
      // total weight): keep the extraction preorder, which is feasible.
      order.insert(order.end(), sub_to_orig.begin(), sub_to_orig.end());
      continue;
    }
    BCAST_RETURN_IF_ERROR(sub.Finalize());
    auto sub_order = ShrinkSolveOrder(sub, sub_to_orig, options, num_channels);
    if (!sub_order.ok()) return sub_order.status();
    order.insert(order.end(), sub_order->begin(), sub_order->end());
  }
  return order;
}

}  // namespace

Result<AllocationResult> ShrinkingHeuristic(const IndexTree& tree,
                                            int num_channels,
                                            const ShrinkOptions& options) {
  if (!tree.finalized()) {
    return FailedPreconditionError("index tree must be finalized");
  }
  if (num_channels < 1) return InvalidArgumentError("need at least one channel");
  if (options.exact_size_limit < 1 || options.exact_size_limit > 64) {
    return InvalidArgumentError("exact_size_limit must be in [1, 64]");
  }

  obs::ScopedSpan span("heuristics.shrink");
  obs::ScopedTimer total_timer(obs::GetHistogram("heuristics.shrink.total_ns"));
  std::vector<NodeId> identity(static_cast<size_t>(tree.num_nodes()));
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    identity[static_cast<size_t>(id)] = id;
  }
  auto order = ShrinkSolveOrder(tree, identity, options, num_channels);
  if (!order.ok()) return order.status();

  AllocationResult result;
  {
    obs::ScopedTimer timer(obs::GetHistogram("heuristics.shrink.pack_ns"));
    result.slots = PackLinearOrder(tree, num_channels, *order);
  }
  BCAST_RETURN_IF_ERROR(ValidateSlotSequence(tree, num_channels, result.slots));
  result.average_data_wait = SlotSequenceDataWait(tree, result.slots);
  result.provenance = PlanProvenance::kHeuristic;
  result.cost_upper_bound = result.average_data_wait;
  result.cost_lower_bound = DataWaitLowerBound(tree, num_channels);
  BCAST_DCHECK_OK(AllocationVerifier(tree)
                      .VerifySlots(num_channels, result.slots,
                                   result.average_data_wait)
                      .ToStatus());
  return result;
}

}  // namespace bcast
