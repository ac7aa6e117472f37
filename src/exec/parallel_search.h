// ParallelSearch: deterministic, thread-count-invariant branch-and-bound on
// a work-stealing pool (exec/thread_pool.h).
//
// The engine searches a tree of states labelled by compound-set bitmasks (the
// shape of the paper's topological tree, abstracted behind BnbProblem so the
// executor layer stays independent of src/alloc/). Frontier nodes are
// expanded as stealable tasks down to a spawn depth — bundled `batch_factor`
// siblings at a time so task overhead amortizes — and deeper subtrees run as
// inline depth-first searches on whichever worker owns them. A single-thread
// run skips the pool entirely and searches inline on the calling thread.
//
// Three shared structures coordinate the workers:
//
//  * a lock-free *incumbent bound*: one atomic word packing a conservatively
//    rounded-up copy of the best completed cost (high 48 bits, IEEE-754 order
//    trick: the bit pattern of a non-negative double compares like the value)
//    with a 16-bit update epoch in the low bits. Workers prune against it
//    with plain loads; completions lower it with a CAS loop;
//  * an exact *incumbent record* (cost + path) behind a mutex, touched only
//    on the rare completion events, which also applies the canonical
//    tie-break below;
//  * a lock-free *concurrent state store* (exec/state_store.h): one
//    open-addressed table of CAS-published, arena-pooled entries keyed by
//    (mask, last_set, depth) that memoizes explored states, so a state
//    dominated by what any worker has already seen is never re-expanded.
//    Steady-state inserts perform zero heap allocations
//    (tests/alloc_free_search_test.cc proves it with a counting allocator).
//
// Determinism argument (tested by the differential harness): the returned
// path is exactly
//
//      min over all completed paths of (cost, canonical lexicographic rank)
//
// where the rank compares sibling subsets by BnbProblem::SubsetLess at the
// first differing slot. That minimum is a property of the problem, not of
// the schedule, provided no run ever discards a path that could attain it:
//  1. bound pruning uses *strictly greater than* an upper bound on the best
//     completed cost (the packed word only ever rounds up), so subtrees that
//     tie the optimum are never cut;
//  2. the state store skips a state only when a recorded state with the same
//     (mask, last_set, depth) is either strictly cheaper (v' < v) or equally
//     cheap via a lexicographically no-greater prefix — in both cases every
//     completion through the skipped state is beaten (or tie-broken) by a
//     completion through the recorded state. When the store cannot record a
//     state (table full, arena exhausted, CAS contention past its retry
//     bound) it reports "not dominated" and the state is simply re-expanded:
//     skipping fewer states never changes the (cost, lex) minimum;
//  3. the incumbent record applies the same (cost, lex) order, so the final
//     winner is independent of completion arrival order.
// Hence any interleaving, any steal pattern, any thread count and any
// batch_factor produce the same best path — the one the single-threaded
// engine reports. Search *statistics* (expansion counts, store hits) do
// legitimately vary run to run; only the result is invariant.

#ifndef BCAST_EXEC_PARALLEL_SEARCH_H_
#define BCAST_EXEC_PARALLEL_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "exec/cancel.h"
#include "obs/clock.h"
#include "util/status.h"

namespace bcast {

/// One branch-and-bound state: the set of placed elements, the subset placed
/// last, the number of slots used (1-based) and the accumulated cost.
struct BnbState {
  uint64_t mask = 0;
  uint64_t last_set = 0;
  int depth = 0;
  double v = 0.0;
};

/// Problem plugged into the engine. Implementations must be thread-safe for
/// concurrent const calls and *pure*: the same state must always produce the
/// same children, costs and bounds, or determinism is forfeit.
class BnbProblem {
 public:
  virtual ~BnbProblem() = default;

  /// Initial state (depth 1, root cost already accumulated).
  virtual BnbState Root() const = 0;

  /// True when the state is a complete assignment.
  virtual bool IsGoal(const BnbState& state) const = 0;

  /// Appends the children subsets of `state` in canonical order (sorted by
  /// SubsetLess). The order is the determinism anchor — see file comment.
  virtual void Expand(const BnbState& state,
                      std::vector<uint64_t>* subsets) const = 0;

  /// The successor reached from `state` by placing `subset` next.
  virtual BnbState Child(const BnbState& state, uint64_t subset) const = 0;

  /// Admissible estimate of the cheapest completion through `state`:
  /// state.v plus a lower bound on the remaining cost (E(X) = V(X) + U(X)).
  virtual double Estimate(const BnbState& state) const = 0;

  /// Canonical strict total order on sibling subsets.
  virtual bool SubsetLess(uint64_t a, uint64_t b) const = 0;

  /// Cheap upper-level size signal for the subtree rooted at `state`, used
  /// only to gate task spawning (ParallelSearchOptions::min_parallel_subtree)
  /// and to auto-size the state store — never for pruning, so any monotone
  /// proxy works. Conventionally the number of elements still unplaced; the
  /// default (max) means "unknown, assume big" and keeps spawning
  /// unrestricted.
  virtual uint64_t SubtreeSizeHint(const BnbState& state) const {
    (void)state;
    return std::numeric_limits<uint64_t>::max();
  }
};

struct ParallelSearchOptions {
  /// Worker threads; 0 = ThreadPool::HardwareConcurrency(). A resolved count
  /// of 1 (requested, or forced by the sequential cutoff) runs inline on the
  /// calling thread with no pool at all.
  int num_threads = 0;
  /// RESOURCE_EXHAUSTED once the engine has expanded this many states.
  uint64_t max_expansions = 200'000'000;
  /// States shallower than this spawn pool tasks for their children; deeper
  /// subtrees run inline. Raising it exposes more parallelism and more
  /// scheduling overhead.
  int spawn_depth = 4;
  /// Sibling subsets bundled into one stealable task at the spawn frontier
  /// (companion knob to min_parallel_subtree: the cutoff decides *whether*
  /// to spawn, this decides the task *granularity*). 1 = one task per child,
  /// the pre-batching behavior. Each task re-derives its children and
  /// re-checks the incumbent bound at execution time, so late batches prune
  /// against a fresher bound than spawn-time checking could. Result is
  /// byte-identical for every value (see file comment). Default measured on
  /// the bench_parallel_search deep/skewed grid (BENCH_parallel_search.json).
  int batch_factor = 4;
  /// Sequential cutoff: a state whose BnbProblem::SubtreeSizeHint falls
  /// below this never spawns tasks — its subtree runs inline even above
  /// spawn_depth — and a whole *search* whose root hint falls below it runs
  /// single-threaded, skipping pool spin-up entirely. The result is
  /// byte-identical either way (the engine is schedule-invariant); only the
  /// task count and thread usage change. Default measured on the Table-1
  /// grid (bench_parallel_search): below ~12 unplaced elements a subtree is
  /// microseconds of work and a stealable task costs more than it buys.
  /// 0 disables the cutoff.
  uint64_t min_parallel_subtree = 12;
  /// State-store table cells, rounded up to a power of two; 0 = auto-size
  /// from the root SubtreeSizeHint.
  size_t store_capacity = 0;
  /// Arena budget for store entry records; 0 = auto (scaled from the cell
  /// count, capped — see exec/state_store.h). Exhaustion degrades to
  /// not-memoizing, never to failure.
  size_t store_arena_bytes = 0;
  /// Failed CAS publications tolerated per store update before the candidate
  /// is dropped unrecorded (sound — it merely allows a re-expansion).
  int store_max_cas_retries = 8;
  /// Seeds the shared incumbent bound with the cost of a known feasible
  /// solution before the first expansion (+inf = start unseeded). Pruning
  /// compares children with *strictly greater than* a rounded-up copy of
  /// this bound, so a correct upper bound never cuts an equal-cost optimum
  /// and the result stays byte-identical to the unseeded run; only
  /// bound_pruned / nodes_expanded change. Must be >= 0 and not NaN.
  double initial_bound = std::numeric_limits<double>::infinity();

  // --- Anytime stop conditions (alloc/search_budget.h maps onto these). ---
  // Unlike max_expansions (a hard fuse that aborts with RESOURCE_EXHAUSTED),
  // these stop the search *gracefully*: in-flight workers unwind, abandoned
  // frontier states fold their admissible estimates into a global lower
  // bound, and the best incumbent so far is returned with truncated = true.

  /// Soft expansion budget (0 = none). NOTE: which incumbent is best when the
  /// budget trips depends on steal timing here — callers needing the
  /// deterministic budget contract must use the sequential DFS
  /// (FindOptimalAllocation routes expansion-budgeted searches there).
  uint64_t soft_budget_expansions = 0;
  /// Wall-clock budget relative to search start (0 = none), read via `clock`.
  uint64_t deadline_ns = 0;
  /// Time source for deadline_ns; nullptr = obs::MonotonicClock().
  obs::Clock* clock = nullptr;
  /// Cooperative cancellation, polled once per expansion (and by the task
  /// wrapper for queued-but-unstarted subtrees). Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// The cache_* fields report the concurrent state store (the names predate
/// it; kept stable for telemetry and bench-JSON compatibility).
struct ParallelSearchStats {
  uint64_t nodes_expanded = 0;    // states taken off a deque or visited inline
  uint64_t paths_completed = 0;   // goal states reached
  uint64_t bound_pruned = 0;      // children cut by the incumbent bound
  uint64_t cache_hits = 0;        // states skipped as memoized-dominated
  uint64_t cache_misses = 0;      // states recorded (survived the check)
  uint64_t cache_evictions = 0;   // dominated entries replaced on insert
  uint64_t cache_dropped = 0;     // states droppable but unrecordable
                                  // (table full / arena out / CAS bound hit)
  uint64_t cache_cas_retries = 0; // failed CAS publications inside the store
  uint64_t cache_entries = 0;     // live entries at the end of the run
  uint64_t incumbent_updates = 0; // times the shared incumbent improved
  int threads_used = 0;
};

struct ParallelSearchResult {
  /// Winning root-to-goal path, one subset per step (the root state's own
  /// placement is implicit).
  std::vector<uint64_t> best_path;
  /// Exact accumulated cost of best_path (not the rounded shared bound).
  double best_v = 0.0;
  /// True when a soft stop condition (budget / deadline / cancel) ended the
  /// search early: best_path is the incumbent, not a proven optimum.
  bool truncated = false;
  /// Lower bound on the true optimal cost. Untruncated runs: == best_v.
  /// Truncated runs: min over every abandoned frontier state's admissible
  /// estimate (and best_v), so frontier_lower <= optimum <= best_v always.
  double frontier_lower = 0.0;
  /// Expansions that slipped in between the engine first observing a stop
  /// condition and the last worker unwinding (0 if never stopped) — the
  /// measured cancellation latency, bounded by the in-flight worker count.
  uint64_t cancel_latency_expansions = 0;
  ParallelSearchStats stats;
};

/// Runs the search to completion (or to its soft stop condition — see
/// ParallelSearchResult::truncated). Errors: RESOURCE_EXHAUSTED past
/// max_expansions or when a soft stop fires before any goal was completed,
/// INTERNAL if no goal state exists (a pruning dead end, or an initial_bound
/// below the true optimum), INVALID_ARGUMENT for negative num_threads /
/// initial_bound or non-positive batch_factor / store_max_cas_retries.
Result<ParallelSearchResult> RunParallelSearch(
    const BnbProblem& problem, const ParallelSearchOptions& options);

}  // namespace bcast

#endif  // BCAST_EXEC_PARALLEL_SEARCH_H_
