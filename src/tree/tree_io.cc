#include "tree/tree_io.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "util/check.h"

namespace bcast {

namespace {

// Shortest decimal that round-trips the double exactly.
std::string FormatWeight(double weight) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, weight);
    if (std::strtod(buf, nullptr) == weight) break;
  }
  return buf;
}

void FormatNode(const IndexTree& tree, NodeId id, std::ostringstream* os) {
  const TreeNode& n = tree.node(id);
  if (n.kind == NodeKind::kData) {
    *os << n.label << ':' << FormatWeight(n.weight);
    return;
  }
  *os << '(' << n.label;
  for (NodeId child : n.children) {
    *os << ' ';
    FormatNode(tree, child, os);
  }
  *os << ')';
}

// Parser over the s-expression text.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<IndexTree> Parse() {
    SkipSpace();
    IndexTree tree;
    BCAST_RETURN_IF_ERROR(ParseNodes(&tree));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the tree");
    }
    Status status = tree.Finalize();
    if (!status.ok()) return status;
    return tree;
  }

 private:
  Status Error(const std::string& message) const {
    return InvalidArgumentError("parse error at offset " + std::to_string(pos_) +
                                ": " + message);
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtDelimiter() const {
    if (pos_ >= text_.size()) return true;
    char c = text_[pos_];
    return std::isspace(static_cast<unsigned char>(c)) || c == '(' || c == ')' ||
           c == ':';
  }

  Status ParseLabel(std::string* out) {
    size_t start = pos_;
    while (!AtDelimiter()) ++pos_;
    if (pos_ == start) return Error("expected a label");
    *out = text_.substr(start, pos_ - start);
    return Status::Ok();
  }

  Status ParseWeight(double* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == '-' || text_[pos_] == '+' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a weight");
    std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("bad weight '" + token + "'");
    return Status::Ok();
  }

  // Parses the whole tree with an explicit stack of open index nodes, so
  // nesting depth costs heap, not call stack.
  Status ParseNodes(IndexTree* tree) {
    struct OpenIndex {
      NodeId id;
      std::string label;
      int children;
    };
    std::vector<OpenIndex> open;
    while (true) {
      const NodeId parent = open.empty() ? kInvalidNode : open.back().id;
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unexpected end of input");
      if (text_[pos_] == '(') {
        ++pos_;  // consume '('
        if (open.size() >= static_cast<size_t>(kMaxTreeNesting)) {
          return Error("index nesting deeper than " +
                       std::to_string(kMaxTreeNesting) + " levels");
        }
        SkipSpace();
        std::string label;
        BCAST_RETURN_IF_ERROR(ParseLabel(&label));
        NodeId id = tree->AddIndexNode(parent, label);
        if (!open.empty()) ++open.back().children;
        open.push_back({id, std::move(label), 0});
      } else {
        BCAST_RETURN_IF_ERROR(ParseDataLeaf(tree, parent));
        if (!open.empty()) ++open.back().children;
      }
      // Close every index node whose ')' follows; anything else is the next
      // child of the innermost open one.
      while (!open.empty()) {
        SkipSpace();
        if (pos_ >= text_.size()) return Error("missing ')'");
        if (text_[pos_] != ')') break;
        ++pos_;
        if (open.back().children == 0) {
          return Error("index node '" + open.back().label +
                       "' has no children");
        }
        open.pop_back();
      }
      if (open.empty()) return Status::Ok();
    }
  }

  // Data leaf: LABEL ':' WEIGHT.
  Status ParseDataLeaf(IndexTree* tree, NodeId parent) {
    std::string label;
    BCAST_RETURN_IF_ERROR(ParseLabel(&label));
    if (pos_ >= text_.size() || text_[pos_] != ':') {
      return Error("expected ':' after data label '" + label + "'");
    }
    ++pos_;  // consume ':'
    double weight = 0.0;
    BCAST_RETURN_IF_ERROR(ParseWeight(&weight));
    if (weight < 0.0) return Error("negative weight for '" + label + "'");
    tree->AddDataNode(parent, weight, label);
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string FormatTree(const IndexTree& tree) {
  BCAST_CHECK(tree.finalized());
  std::ostringstream os;
  FormatNode(tree, tree.root(), &os);
  return os.str();
}

Result<IndexTree> ParseTree(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace bcast
