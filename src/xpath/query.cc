#include "xpath/query.h"

#include <algorithm>

#include "xpath/canonical.h"

namespace xee::xpath {

int Query::AddNode(std::string tag, StructAxis axis, int parent) {
  XEE_CHECK(parent >= -1 && parent < static_cast<int>(nodes.size()));
  XEE_CHECK((parent == -1) == nodes.empty());
  QueryNode n;
  n.tag = std::move(tag);
  n.axis = axis;
  n.parent = parent;
  int idx = static_cast<int>(nodes.size());
  nodes.push_back(std::move(n));
  if (parent >= 0) nodes[parent].children.push_back(idx);
  return idx;
}

Query Query::SubQuery(const std::vector<bool>& keep,
                      std::vector<int>* old_to_new) const {
  XEE_CHECK(keep.size() == nodes.size());
  XEE_CHECK(!nodes.empty() && keep[0]);
  Query out;
  out.root_mode = root_mode;
  std::vector<int> map(nodes.size(), -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!keep[i]) continue;
    int parent = nodes[i].parent;
    XEE_CHECK_MSG(parent == -1 || keep[parent],
                  "keep set must be upward-closed");
    map[i] = out.AddNode(nodes[i].tag, nodes[i].axis,
                         parent == -1 ? -1 : map[parent]);
    out.nodes[map[i]].value_filter = nodes[i].value_filter;
  }
  for (const OrderConstraint& c : orders) {
    if (keep[c.before] && keep[c.after]) {
      out.orders.push_back(
          OrderConstraint{c.kind, map[c.before], map[c.after]});
    }
  }
  out.target = map[target] >= 0 ? map[target] : 0;
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return out;
}

Status Query::Validate() const {
  if (nodes.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty query");
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const QueryNode& n = nodes[i];
    if (i == 0 && n.parent != -1) {
      return Status(StatusCode::kInvalidArgument, "node 0 must be the root");
    }
    if (i > 0 &&
        (n.parent < 0 || n.parent >= static_cast<int>(i))) {
      return Status(StatusCode::kInvalidArgument,
                    "parents must precede children");
    }
    if (n.tag.empty()) {
      return Status(StatusCode::kInvalidArgument, "empty name test");
    }
  }
  if (target < 0 || target >= static_cast<int>(nodes.size())) {
    return Status(StatusCode::kInvalidArgument, "target out of range");
  }
  for (const OrderConstraint& c : orders) {
    if (c.before < 0 || c.after < 0 ||
        c.before >= static_cast<int>(nodes.size()) ||
        c.after >= static_cast<int>(nodes.size()) ||
        c.before == c.after) {
      return Status(StatusCode::kInvalidArgument,
                    "order constraint endpoints out of range");
    }
    if (nodes[c.before].parent != nodes[c.after].parent ||
        nodes[c.before].parent == -1) {
      return Status(StatusCode::kInvalidArgument,
                    "order constraint endpoints must share a junction");
    }
    if (c.kind == OrderKind::kSibling &&
        (nodes[c.before].axis != StructAxis::kChild ||
         nodes[c.after].axis != StructAxis::kChild)) {
      return Status(StatusCode::kInvalidArgument,
                    "sibling constraint endpoints must use the child axis");
    }
  }
  return Status::Ok();
}

std::string Query::ToString() const {
  if (nodes.empty()) return "";
  // Order-linked junction children: the later-created node of a
  // constraint is rendered with the order axis right after its earlier
  // partner step.
  struct Link {
    int partner = -1;  // earlier node this one follows
    OrderKind kind = OrderKind::kSibling;
    bool later_is_after = true;
  };
  std::vector<Link> link(nodes.size());
  std::vector<std::vector<int>> followers(nodes.size());
  for (const OrderConstraint& c : orders) {
    int later = std::max(c.before, c.after);
    int earlier = std::min(c.before, c.after);
    link[later] = Link{earlier, c.kind, later == c.after};
    followers[earlier].push_back(later);
  }

  // Subtree membership of the target, to route the main path through it.
  std::vector<bool> has_target(nodes.size(), false);
  for (int n = target; n != -1; n = nodes[n].parent) has_target[n] = true;

  // Rendering produces a step chain: at each step, one child chain
  // continues the path (preferring the one leading to the target) and
  // the rest become predicates. A step with an order follower keeps all
  // children in predicates so the follower attaches at the right
  // junction. `default_result` tracks the node a fresh parse of the
  // output would pick as its default target.
  int default_result = -1;

  auto axis_str = [this](int child) {
    return nodes[child].axis == StructAxis::kChild ? "/" : "//";
  };
  auto order_axis_str = [](const Link& l) {
    if (l.kind == OrderKind::kSibling) {
      return l.later_is_after ? "/following-sibling::"
                              : "/preceding-sibling::";
    }
    return l.later_is_after ? "/following::" : "/preceding::";
  };

  // Renders the chain starting at node n (its step plus continuations);
  // `outermost` tracks the main path of the whole query.
  auto render_chain = [&](auto&& self, int start, bool outermost)
      -> std::string {
    std::string out;
    int cur = start;
    while (true) {
      out += nodes[cur].tag;
      if (cur == target) out += "{t}";
      if (nodes[cur].value_filter.has_value()) {
        out += "[.=\"" + EscapeValueFilter(*nodes[cur].value_filter) + "\"]";
      }
      if (outermost) default_result = cur;

      // Split children into chain starts (followers render after their
      // partner).
      std::vector<int> starts;
      for (int child : nodes[cur].children) {
        if (link[child].partner == -1) starts.push_back(child);
      }
      const bool has_follower = !followers[cur].empty();
      int main_child = -1;
      if (!has_follower && !starts.empty()) {
        main_child = starts.back();
        for (int s : starts) {
          if (has_target[s]) main_child = s;
        }
      }
      for (int s : starts) {
        if (s == main_child) continue;
        out += "[" + std::string(axis_str(s)) + self(self, s, false) + "]";
      }
      if (has_follower) {
        // Append the follower chain at this junction level.
        int prev = cur;
        while (!followers[prev].empty()) {
          int next = followers[prev].front();
          out += order_axis_str(link[next]);
          out += self(self, next, outermost);
          return out;  // the follower recursion finished the chain
        }
      }
      if (main_child == -1) return out;
      out += axis_str(main_child);
      cur = main_child;
    }
  };

  std::string body = render_chain(render_chain, 0, true);
  std::string out = root_mode == RootMode::kAbsolute ? "/" : "//";
  out += body;
  // Drop the redundant target marker when a reparse would pick the same
  // node by default.
  if (default_result == target) {
    size_t pos = out.find("{t}");
    if (pos != std::string::npos && out.find("{t}", pos + 1) == std::string::npos) {
      out.erase(pos, 3);
    }
  }
  return out;
}

}  // namespace xee::xpath
