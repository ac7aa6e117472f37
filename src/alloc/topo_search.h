// The k-channel topological-tree search (Sections 3.1–3.2 of the paper).
//
// Algorithm 1 represents every feasible allocation as a root-to-leaf path of
// a *topological tree*: each tree node is a compound set of <= k index/data
// nodes sharing one broadcast slot, and the children of a topological node P
// are the k-component subsets of the candidate set
//     S = ∪_{y in PATH(P)} Children(y) − PATH(P).
//
// This class implements:
//  * exhaustive enumeration of that tree (no pruning) — the ground truth;
//  * the Appendix's reduced tree: Step 2 candidate pruning (Property 2 for
//    one channel, Property 3 characteristics 1/2/4 for k > 1), Step 3 subset
//    rules (heaviest-prefix data, child-of-P requirement) and Step 4 local
//    swap elimination (Lemmas 4/5 and the preorder-rank tie-break of
//    Section 3.2);
//  * the exact optimizer over the (possibly reduced) tree: depth-first
//    branch-and-bound on V(X) + U(X) (Section 3.1, Lemmas 1/2), where U(X)
//    is an admissible estimate of the remaining data wait, with a dominance
//    memo on the reduced tree (DESIGN.md §10).
//
// The search state is a bitmask of allocated nodes, so trees are limited to
// 64 nodes — the regime the paper itself targets with the exact search
// (Section 4.1 concludes the exact algorithm "is applicable only to a small
// size of the problem"; larger inputs go through src/alloc/heuristics.h).
//
// The expansion core is bitmask algebra end to end: per-node children masks,
// the data/index partition masks and the Lemma-5 preorder-rank masks are
// precomputed once at Create(), candidate sets are derived by OR/AND-NOT over
// them, and k-subset generation enumerates combinations directly over the
// 64-bit candidate mask. The depth-first walks draw their neighbor lists from
// a per-depth scratch arena, and the optimizer its memo from an epoch-tagged
// table, both owned by the search object, so steady-state expansion performs
// zero heap allocations (asserted by tests/alloc_free_search_test.cc).

#ifndef BCAST_ALLOC_TOPO_SEARCH_H_
#define BCAST_ALLOC_TOPO_SEARCH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/search_budget.h"
#include "tree/index_tree.h"
#include "util/status.h"

namespace bcast {

/// Exact search over the k-channel topological tree.
class TopoTreeSearch {
 public:
  /// Lower-bound estimate U(X) used by the optimizer.
  enum class BoundKind {
    /// The paper's U(X): every unallocated data node lands in the very next
    /// slot. Admissible but loose.
    kPaperNextSlot,
    /// Packed bound: unallocated data nodes, heaviest first, fill the next
    /// slots k at a time. Still admissible (ignores index nodes and ordering
    /// constraints) and much tighter. Default.
    kPacked,
  };

  struct Options {
    int num_channels = 1;
    /// Appendix Steps 2–3: candidate-set pruning and subset-generation rules
    /// (Properties 2 and 3, Lemma 3).
    bool prune_candidates = false;
    /// Appendix Step 4: local-swap elimination (Lemmas 4/5; index-node order
    /// canonicalized by preorder rank per Section 3.2).
    bool prune_local_swap = false;
    BoundKind bound = BoundKind::kPacked;
    /// Safety valve: searches give up with RESOURCE_EXHAUSTED beyond this
    /// many topological-tree node expansions.
    uint64_t max_expansions = 200'000'000;
  };

  /// Errors if the tree exceeds 64 nodes or num_channels < 1.
  static Result<TopoTreeSearch> Create(const IndexTree& tree, Options options);

  /// Counts complete root-to-leaf paths of the (possibly reduced)
  /// topological tree — the "Total Paths" quantity of the paper's Table 1.
  /// RESOURCE_EXHAUSTED once the count exceeds `limit`.
  Result<uint64_t> CountPaths(uint64_t limit);

  /// Counts nodes of the (possibly reduced) topological tree, the size
  /// measure visible in Figs. 6/7 versus Figs. 9/10.
  Result<uint64_t> CountTreeNodes(uint64_t limit);

  /// Full enumeration of the (possibly reduced) tree returning the complete
  /// SearchStats — in particular the per-rule PruneCounts. Unlike the
  /// optimizer this walk never consults a bound or incumbent, so its counts
  /// are a pure function of (tree, options): identical across runs.
  /// RESOURCE_EXHAUSTED beyond `limit` visited nodes.
  Result<SearchStats> ReducedTreeStats(uint64_t limit);

  /// Exact optimum by depth-first branch-and-bound.
  ///
  /// Siblings are visited in one canonical order (data weight descending,
  /// then bitmask ascending), so the result is the first optimal path in
  /// that order: a pure function of (tree, options). With pruning on, a
  /// dominance memo keyed (mask, last compound set, depth) skips a state
  /// when an earlier visit with the same key had V <= this one; the earlier
  /// visit is canonically smaller, so the result is unchanged (DESIGN.md
  /// §10). Skips are counted in SearchStats::dominance_skips. The memo table
  /// is kept across calls and recycled by epoch, so a reused search object
  /// allocates nothing once it has reached its high-water mark.
  ///
  /// `seed_cost_v` optionally seeds the incumbent with the total weighted
  /// wait V (ADW x total data weight) of a known feasible allocation — e.g.
  /// a heuristic solution or the previous replan cycle's allocation. The
  /// seed is a pure upper bound: children are cut only when their admissible
  /// estimate *strictly exceeds* it, so equal-cost optima always survive and
  /// the returned slots/ADW are byte-identical to the unseeded search; only
  /// bound_cutoffs / nodes_expanded shrink. A seed below the true optimum
  /// makes every path a dead end (INTERNAL error) — callers add relative
  /// slack for float round-trips (see FindOptimalAllocation).
  ///
  /// `budget` (optional) makes the search *anytime*: when a budget stop
  /// condition fires mid-search, the best incumbent so far is returned with
  /// provenance kAnytime and [cost_lower_bound, cost_upper_bound] bracketing
  /// the true optimum (the lower bound folds the admissible estimates of
  /// every abandoned subtree). The budget is checked before the memo and
  /// before an expansion is counted, so a pure expansion-count budget of N
  /// expands exactly N states and is fully deterministic. A budget that
  /// fires before the first complete path yields RESOURCE_EXHAUSTED.
  Result<AllocationResult> FindOptimalDfs(
      double seed_cost_v = std::numeric_limits<double>::infinity(),
      const SearchBudget* budget = nullptr);

  // --- expansion building blocks ------------------------------------------
  // Pure const reads of the finalized tree and the options. Public so that
  // an independent search order (the tests' best-first oracle) can walk
  // exactly the reduced tree the optimizer walks.

  /// Sum of data weights inside a compound-set bitmask.
  double SetDataWeight(uint64_t set) const;

  /// Generates the next-neighbor compound sets of `last_set` given the
  /// allocated-set `mask`, applying the configured pruning. Replaces `out`
  /// with the submasks in generation order (the optimizer re-sorts them).
  void GenerateNeighbors(uint64_t mask, uint64_t last_set,
                         std::vector<uint64_t>* out, SearchStats* stats) const;

  /// Admissible lower bound on the *additional* weighted wait of data nodes
  /// not in `mask`, if the next slot index is `depth + 1` (1-based).
  double LowerBound(uint64_t mask, int depth) const;

 private:
  TopoTreeSearch(const IndexTree& tree, Options options);

  // Candidate set S for the allocated-set `mask`: nodes whose parent is
  // allocated but which are not, as a bitmask (union of the precomputed
  // children masks of the allocated nodes, minus the allocated nodes).
  uint64_t CandidateMask(uint64_t mask) const;

  // Canonical strict total order on sibling compound sets: data weight
  // descending, then bitmask ascending.
  bool SubsetLess(uint64_t a, uint64_t b) const;

  // Depth-first worker shared by counting and branch-and-bound.
  struct DfsContext;
  Status Dfs(DfsContext* ctx, uint64_t mask, uint64_t last_set, int depth,
             double v);

  // Dominance memo of the optimizer: false iff an earlier visit of this
  // call recorded the same (mask, last_set, depth) with V <= v; otherwise
  // records v and returns true.
  bool MemoAdmits(uint64_t mask, uint64_t last_set, int depth, double v);
  // Starts a new memo epoch: every recorded cell becomes stale at once.
  void ResetMemo();
  // Doubles the memo table, rehashing the current epoch's cells.
  void GrowMemo();

  const IndexTree& tree_;
  Options options_;
  uint64_t full_mask_ = 0;
  std::vector<NodeId> data_by_weight_;  // data ids, heaviest first

  // --- bitmask tables, fixed at construction --------------------------------
  uint64_t data_mask_ = 0;   // bit set iff the node is a data node
  uint64_t index_mask_ = 0;  // complement of data_mask_ within full_mask_
  std::vector<double> weight_;          // weight_[id] == tree_.weight(id)
  std::vector<uint64_t> children_mask_; // children of node id, as bits
  // higher_rank_mask_[x]: index nodes with preorder rank > rank(x) (the
  // Lemma 5 canonical-order test reduces to one AND against this).
  std::vector<uint64_t> higher_rank_mask_;

  // Per-depth neighbor arenas for the depth-first walks (optimize and the
  // counting modes). Each depth owns one vector that grows to its high-water
  // mark on first descent and is reused ever after, so steady-state DFS
  // expansion allocates nothing.
  std::vector<std::vector<uint64_t>> level_scratch_;

  // The optimizer's dominance memo: open addressing with linear probing over
  // a power-of-two table that starts small and doubles at 3/4 load, up to a
  // fixed cap past which new keys are expanded without being recorded. A
  // cell is live iff its epoch is the current one; each FindOptimalDfs call
  // bumps the epoch instead of clearing the table.
  struct MemoCell {
    uint64_t mask = 0;
    uint64_t last_set = 0;
    double v = 0.0;
    uint32_t depth = 0;
    uint32_t epoch = 0;  // 0 is never current
  };
  std::vector<MemoCell> memo_;
  size_t memo_live_ = 0;
  uint32_t memo_epoch_ = 0;
};

}  // namespace bcast

#endif  // BCAST_ALLOC_TOPO_SEARCH_H_
