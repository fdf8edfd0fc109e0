#ifndef XEE_TESTS_CANONICAL_REFERENCE_H_
#define XEE_TESTS_CANONICAL_REFERENCE_H_

// The string-signature Canonicalize and SerializeKey, kept verbatim as
// the reference the integer-ranked xpath::Canonicalize is tested
// against (canonical_diff_test). Test-only: nothing in src/ includes it.

#include <algorithm>
#include <string>
#include <vector>

#include "xpath/canonical.h"
#include "xpath/query.h"

namespace xee::xpath::reference {

/// One node's header: axis marker, tag, target marker, value predicate.
inline void AppendHeader(const Query& q, int n, std::string* out) {
  out->push_back(q.nodes[n].axis == StructAxis::kChild ? '/' : '%');
  *out += q.nodes[n].tag;
  if (n == q.target) *out += "{t}";
  if (q.nodes[n].value_filter.has_value()) {
    out->push_back('=');
    out->push_back('"');
    *out += EscapeValueFilter(*q.nodes[n].value_filter);
    out->push_back('"');
  }
}

/// Sorts every node's children by a nested signature string of its
/// subtree (refined by order-constraint roles when there are
/// constraints), renumbers in preorder, sorts the constraints.
inline Query Canonicalize(const Query& q) {
  if (q.nodes.empty()) return q;

  // Bottom-up structural signatures (parents precede children in index
  // order, so a reverse sweep sees every child signature before its
  // parent). A node's signature embeds its children's signatures in
  // sorted order — the order the rebuild below will use.
  const size_t n = q.nodes.size();
  std::vector<std::string> sig(n);
  std::vector<std::vector<int>> sorted_kids(n);
  auto sweep = [&](const std::vector<std::string>* profile) {
    std::vector<std::string> next(n);
    for (size_t i = n; i-- > 0;) {
      sorted_kids[i] = q.nodes[i].children;
      std::stable_sort(sorted_kids[i].begin(), sorted_kids[i].end(),
                       [&](int a, int b) { return next[a] < next[b]; });
      std::string s;
      AppendHeader(q, static_cast<int>(i), &s);
      if (profile != nullptr && !(*profile)[i].empty()) {
        s.push_back('<');
        s += (*profile)[i];
        s.push_back('>');
      }
      s.push_back('(');
      for (int c : sorted_kids[i]) s += next[c];
      s.push_back(')');
      next[i] = std::move(s);
    }
    sig = std::move(next);
  };
  sweep(nullptr);

  // Refinement sweep: fold each node's constraint participation — kind,
  // side, and the other endpoint's structural signature — into the
  // sort key.
  if (!q.orders.empty()) {
    std::vector<std::vector<std::string>> entries(n);
    for (const OrderConstraint& c : q.orders) {
      const char kind = c.kind == OrderKind::kSibling ? 's' : 'd';
      entries[c.before].push_back(std::string(1, kind) + 'B' + sig[c.after]);
      entries[c.after].push_back(std::string(1, kind) + 'A' + sig[c.before]);
    }
    std::vector<std::string> profile(n);
    for (size_t i = 0; i < n; ++i) {
      std::sort(entries[i].begin(), entries[i].end());
      for (const std::string& e : entries[i]) {
        profile[i].push_back('|');
        profile[i] += e;
      }
    }
    sweep(&profile);
  }

  // Rebuild in preorder of the sorted tree.
  Query out;
  out.root_mode = q.root_mode;
  std::vector<int> map(n, -1);
  auto build = [&](auto&& self, int node, int parent) -> void {
    map[node] = out.AddNode(q.nodes[node].tag, q.nodes[node].axis, parent);
    out.nodes[map[node]].value_filter = q.nodes[node].value_filter;
    for (int c : sorted_kids[node]) self(self, c, map[node]);
  };
  build(build, 0, -1);
  out.target = map[q.target];

  for (const OrderConstraint& c : q.orders) {
    out.orders.push_back(OrderConstraint{c.kind, map[c.before], map[c.after]});
  }
  std::sort(out.orders.begin(), out.orders.end(),
            [](const OrderConstraint& a, const OrderConstraint& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.before != b.before) return a.before < b.before;
              return a.after < b.after;
            });
  return out;
}

/// The unambiguous key string of a query.
inline std::string SerializeKey(const Query& q) {
  std::string out;
  if (q.nodes.empty()) return out;
  out.push_back(q.root_mode == RootMode::kAbsolute ? 'A' : 'W');
  auto render = [&](auto&& self, int node) -> void {
    AppendHeader(q, node, &out);
    out.push_back('(');
    for (int c : q.nodes[node].children) self(self, c);
    out.push_back(')');
  };
  render(render, 0);
  for (const OrderConstraint& c : q.orders) {
    out.push_back('|');
    out.push_back(c.kind == OrderKind::kSibling ? 's' : 'd');
    out += std::to_string(c.before);
    out.push_back(',');
    out += std::to_string(c.after);
  }
  return out;
}

}  // namespace xee::xpath::reference

#endif  // XEE_TESTS_CANONICAL_REFERENCE_H_
