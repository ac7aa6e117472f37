// Proves the "zero steady-state heap allocations per expansion" contract of
// the bitmask DFS core (src/alloc/topo_search.cc).
//
// A literal zero-per-call assertion would be brittle: every optimizer call
// legitimately performs a small, *expansion-count-independent* amount of
// setup work (path reserves, materializing the winning slot sequence, and —
// in debug builds — the BCAST_DCHECK verifier pass). So the test pins the
// real invariant instead: two searches over the same tree whose expansion
// counts differ by an order of magnitude (the loose paper bound vs the tight
// packed bound) must allocate the *same* number of times per call. Any
// per-expansion allocation in the hot loop would scale with the expansion
// count and break the equality.
//
// The counter is a global operator new/delete override local to this test
// binary — which is why this suite lives alone in its own executable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "alloc/topo_search.h"
#include "tree/builders.h"
#include "tree/index_tree.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

namespace {
void* AlignedAlloc(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = AlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = AlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}

// Every operator new above allocates with std::malloc / std::aligned_alloc,
// so releasing with std::free is matched by construction; GCC can't see
// through the replacement and reports a false mismatch at inlined call sites.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace bcast {
namespace {

// A tree big enough that the paper bound expands an order of magnitude more
// nodes than the packed bound (so a per-expansion allocation can't hide).
IndexTree TestTree() {
  Rng rng(0xA110C);
  return MakeRandomTree(&rng, /*num_data=*/13, /*max_fanout=*/3);
}

TopoTreeSearch MakeSearch(const IndexTree& tree,
                          TopoTreeSearch::BoundKind bound) {
  TopoTreeSearch::Options options;
  options.num_channels = 2;
  options.prune_candidates = true;
  options.prune_local_swap = true;
  options.bound = bound;
  auto search = TopoTreeSearch::Create(tree, options);
  BCAST_CHECK(search.ok());
  return std::move(search).value();
}

TEST(AllocFreeSearchTest, DfsAllocationsAreIndependentOfExpansionCount) {
  IndexTree tree = TestTree();
  TopoTreeSearch loose = MakeSearch(tree, TopoTreeSearch::BoundKind::kPaperNextSlot);
  TopoTreeSearch tight = MakeSearch(tree, TopoTreeSearch::BoundKind::kPacked);

  // Warm-up: the per-depth arenas grow to their high-water mark once.
  auto warm_loose = loose.FindOptimalDfs();
  auto warm_tight = tight.FindOptimalDfs();
  ASSERT_TRUE(warm_loose.ok() && warm_tight.ok());
  // Same answer; the loose bound cuts far less (this also locks in the
  // premise that the expansion counts genuinely differ).
  ASSERT_EQ(warm_loose->slots, warm_tight->slots);
  ASSERT_GE(warm_loose->stats.nodes_expanded,
            2 * warm_tight->stats.nodes_expanded);

  const uint64_t before_loose = AllocationCount();
  auto run_loose = loose.FindOptimalDfs();
  const uint64_t allocs_loose = AllocationCount() - before_loose;

  const uint64_t before_tight = AllocationCount();
  auto run_tight = tight.FindOptimalDfs();
  const uint64_t allocs_tight = AllocationCount() - before_tight;

  ASSERT_TRUE(run_loose.ok() && run_tight.ok());
  EXPECT_GE(run_loose->stats.nodes_expanded,
            2 * run_tight->stats.nodes_expanded);
  // The zero-allocations-per-expansion contract: identical per-call counts
  // despite wildly different expansion counts.
  EXPECT_EQ(allocs_loose, allocs_tight)
      << "loose-bound expansions: " << run_loose->stats.nodes_expanded
      << ", tight-bound expansions: " << run_tight->stats.nodes_expanded;
  // And the fixed setup cost itself stays small: path reserves plus the
  // winning slot sequence (plus the debug-build verifier pass).
  EXPECT_LE(allocs_tight, 256u);
}

TEST(AllocFreeSearchTest, CountingModesAllocationsAreIndependentOfTreeSize) {
  // Smaller than the optimizer instance: the *unpruned* topological tree is
  // walked in full here, and it explodes combinatorially with data count.
  Rng rng(0xA110C);
  IndexTree tree = MakeRandomTree(&rng, /*num_data=*/7, /*max_fanout=*/3);
  // No pruning on `big`: the raw tree is much larger, so the two searches
  // do different amounts of counting work over the same tree.
  TopoTreeSearch small = MakeSearch(tree, TopoTreeSearch::BoundKind::kPacked);
  TopoTreeSearch::Options raw_options;
  raw_options.num_channels = 2;
  auto big = TopoTreeSearch::Create(tree, raw_options);
  ASSERT_TRUE(big.ok());

  // Warm-up.
  ASSERT_TRUE(small.CountPaths(100'000'000).ok());
  ASSERT_TRUE(big->CountPaths(100'000'000).ok());
  ASSERT_TRUE(small.ReducedTreeStats(100'000'000).ok());
  ASSERT_TRUE(big->ReducedTreeStats(100'000'000).ok());

  const uint64_t before_small = AllocationCount();
  auto paths_small = small.CountPaths(100'000'000);
  const uint64_t allocs_small = AllocationCount() - before_small;

  const uint64_t before_big = AllocationCount();
  auto paths_big = big->CountPaths(100'000'000);
  const uint64_t allocs_big = AllocationCount() - before_big;

  ASSERT_TRUE(paths_small.ok() && paths_big.ok());
  ASSERT_GT(*paths_big, 2 * *paths_small);
  EXPECT_EQ(allocs_small, allocs_big)
      << "paths: " << *paths_small << " vs " << *paths_big;

  const uint64_t before_stats = AllocationCount();
  auto stats = big->ReducedTreeStats(100'000'000);
  const uint64_t allocs_stats = AllocationCount() - before_stats;
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(allocs_stats, 64u);
}

}  // namespace
}  // namespace bcast
