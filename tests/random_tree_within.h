// Random trees sized for the exhaustive oracles of the optimality tests.

#ifndef BCAST_TESTS_RANDOM_TREE_WITHIN_H_
#define BCAST_TESTS_RANDOM_TREE_WITHIN_H_

#include "tree/builders.h"
#include "tree/index_tree.h"
#include "util/rng.h"

namespace bcast {

// MakeRandomTree(rng, num_data, max_fanout) redrawn until it has at most
// `max_nodes` nodes, so every test parameter asserts instead of skipping. A
// first draw that fits is returned unchanged; after every four misses the
// data count drops by one (a fanout-2 tree of n data always has 2n - 1
// nodes, so some shapes can only fit with fewer data).
inline IndexTree RandomTreeWithin(Rng* rng, int num_data, int max_fanout,
                                  int max_nodes) {
  IndexTree tree = MakeRandomTree(rng, num_data, max_fanout);
  for (int miss = 0; tree.num_nodes() > max_nodes; ++miss) {
    const int data = num_data - (miss + 1) / 4;
    tree = MakeRandomTree(rng, data < 1 ? 1 : data, max_fanout);
  }
  return tree;
}

}  // namespace bcast

#endif  // BCAST_TESTS_RANDOM_TREE_WITHIN_H_
