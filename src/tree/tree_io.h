// Text (de)serialization of index trees.
//
// Grammar (whitespace-separated s-expressions):
//   tree  := node
//   node  := LABEL ':' WEIGHT          -- data leaf, e.g.  A:20
//          | '(' LABEL node+ ')'       -- index node, e.g. (2 A:20 B:10)
//
// The paper's Fig. 1 tree is:  (1 (2 A:20 B:10) (3 (4 C:15 D:7) E:18))
//
// Round-trips exactly: ParseTree(FormatTree(t)) reproduces t's shape, labels
// and weights.

#ifndef BCAST_TREE_TREE_IO_H_
#define BCAST_TREE_TREE_IO_H_

#include <string>

#include "tree/index_tree.h"
#include "util/status.h"

namespace bcast {

/// Deepest index nesting ParseTree accepts; deeper input fails with
/// INVALID_ARGUMENT. The parse itself uses no call stack per level, but
/// several tree consumers (sorting, shrinking, program formatting) recurse
/// once per level. In a Release build a 50,000-level chain runs through
/// `bcastctl plan --save` and `popsim` on an 8 MB stack and a 100,000-level
/// one overflows it; the cap leaves headroom for the larger frames of debug
/// and sanitizer builds.
inline constexpr int kMaxTreeNesting = 20000;

/// Serializes a finalized tree to the one-line s-expression format above.
std::string FormatTree(const IndexTree& tree);

/// Parses the s-expression format; returns a finalized tree or a descriptive
/// INVALID_ARGUMENT error (position and reason).
Result<IndexTree> ParseTree(const std::string& text);

}  // namespace bcast

#endif  // BCAST_TREE_TREE_IO_H_
