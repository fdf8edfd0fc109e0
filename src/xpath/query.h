#ifndef XEE_XPATH_QUERY_H_
#define XEE_XPATH_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace xee::xpath {

/// Structural axis attaching a query node to its parent query node.
enum class StructAxis {
  kChild,       ///< '/'
  kDescendant,  ///< '//'
};

/// How the first step of the query binds to the document.
enum class RootMode {
  kAbsolute,  ///< '/name'  — the first step must be the document root
  kAnywhere,  ///< '//name' — the first step matches any element
};

/// One node of a normalized query tree. The tree shape encodes '/'-'//'
/// structure; order axes are normalized into constraints between nodes
/// (see Query).
struct QueryNode {
  std::string tag;               ///< element name test; "*" matches any tag
  StructAxis axis = StructAxis::kChild;  ///< axis to parent (unused on node 0)
  int parent = -1;               ///< parent node index, -1 for node 0
  std::vector<int> children;     ///< child node indices, in creation order
  /// Value predicate `[.="..."]`: when set, the bound element's text
  /// content must equal this string (extension; see DESIGN.md §5b).
  std::optional<std::string> value_filter;
};

/// Kind of an order constraint between two query nodes.
enum class OrderKind {
  /// `before` and `after` bind sibling elements (same parent element,
  /// the junction's binding) with before's position smaller. Produced by
  /// following-sibling:: / preceding-sibling:: axes.
  kSibling,
  /// `after`'s binding starts after `before`'s subtree ends in document
  /// order (the XPath following/preceding relation), scoped to
  /// descendants of the junction binding as in the paper's Section 5.
  kDocument,
};

/// An order constraint: the element bound to node `before` must occur
/// before the element bound to node `after`, in the sense of `kind`.
/// Both nodes are children of the same query node (the junction).
struct OrderConstraint {
  OrderKind kind = OrderKind::kSibling;
  int before = -1;  ///< query node index
  int after = -1;   ///< query node index
};

/// A normalized XPath query of the paper's fragment.
///
/// The query is a tree of name-test steps joined by child/descendant
/// axes; order axes are represented as OrderConstraints between branches
/// of a junction node. `target` is the node whose selectivity is
/// estimated / whose bindings are counted (by default the "result" node:
/// the last main-path step).
struct Query {
  std::vector<QueryNode> nodes;  ///< nodes[0] is the query root step
  RootMode root_mode = RootMode::kAnywhere;
  std::vector<OrderConstraint> orders;
  int target = 0;

  size_t size() const { return nodes.size(); }

  /// Appends a node; returns its index. Pass parent = -1 only for the
  /// first node.
  int AddNode(std::string tag, StructAxis axis, int parent);

  /// Renders the query back to XPath-like syntax, marking the target
  /// with "{t}" when it is not the default result node.
  std::string ToString() const;

  /// Derives the sub-query induced by `keep` (which must contain node 0
  /// and be connected upwards), preserving constraints whose endpoints
  /// survive. `old_to_new`, if non-null, receives the index mapping
  /// (-1 for dropped nodes). The target is remapped if kept, else reset
  /// to node 0 — callers dropping the target must set their own.
  Query SubQuery(const std::vector<bool>& keep,
                 std::vector<int>* old_to_new = nullptr) const;

  /// Validates tree-structure invariants (parents before children,
  /// constraint endpoints sharing a junction, target in range).
  Status Validate() const;
};

}  // namespace xee::xpath

#endif  // XEE_XPATH_QUERY_H_
