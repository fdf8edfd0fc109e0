#include "xpath/canonical.h"

#include <algorithm>
#include <cctype>
#include <vector>

namespace xee::xpath {
namespace {

/// Appends one node's header: axis marker ('/' child, '%' descendant),
/// tag, target marker, value predicate. Tags are [A-Za-z0-9_.*-]+, so
/// the markers and parentheses below cannot occur inside one; the value
/// literal is escaped so no unescaped '"' occurs inside it either,
/// keeping the whole serialization injective.
void AppendHeader(const Query& q, int n, std::string* out) {
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

}  // namespace

std::string StripWhitespace(std::string_view xpath) {
  std::string out;
  AppendStripped(xpath, &out);
  return out;
}

void AppendStripped(std::string_view xpath, std::string* out) {
  out->reserve(out->size() + xpath.size());
  bool in_quote = false;
  for (size_t i = 0; i < xpath.size(); ++i) {
    const char c = xpath[i];
    if (in_quote && c == '\\' && i + 1 < xpath.size()) {
      // Escaped character inside a literal: copy both bytes verbatim so
      // \" neither ends the quoted region nor loses inner whitespace.
      out->push_back(c);
      out->push_back(xpath[i + 1]);
      ++i;
      continue;
    }
    if (c == '"') in_quote = !in_quote;
    if (!in_quote && std::isspace(static_cast<unsigned char>(c))) continue;
    out->push_back(c);
  }
}

std::string EscapeValueFilter(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

Query Canonicalize(const Query& q) {
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
      // Stable: subtrees the signature cannot distinguish keep their
      // original relative order.
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

  // Refinement sweep: structure alone cannot order identical twin
  // subtrees whose roles differ only through order constraints (e.g.
  // title[X/following::p][p/preceding::Y] has two structurally equal p
  // descendants). Fold each node's constraint participation — kind,
  // side, and the other endpoint's structural signature — into the sort
  // key so isomorphic spellings agree on which twin comes first. (Ties
  // surviving this round are constraint-symmetric, where either order
  // yields the same serialized key.)
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

std::string SerializeKey(const Query& q) {
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

std::string CanonicalKey(const Query& q) {
  return SerializeKey(Canonicalize(q));
}

uint64_t StableHash64(std::string_view s) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

uint64_t CanonicalHash(const Query& q) { return StableHash64(CanonicalKey(q)); }

}  // namespace xee::xpath
