#include "xpath/canonical.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <vector>

namespace xee::xpath {
namespace {

/// Appends `value` escaped as EscapeValueFilter does.
void AppendEscaped(std::string_view value, std::string* out) {
  for (char c : value) {
    if (c == '\\' || c == '"') out->push_back('\\');
    out->push_back(c);
  }
}

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
    AppendEscaped(*q.nodes[n].value_filter, out);
    out->push_back('"');
  }
}

/// Canonicalize's working state, reused across calls on one thread.
///
/// The canonical child order is the byte order of each subtree's
/// *signature*: its header (AppendHeader), then — in the refinement
/// sweep, when it takes part in order constraints — its profile
/// "<|k s sig|k s sig...>" (constraint kind 's'/'d', side 'B'/'A', the
/// other endpoint's structural signature), then "(" + the sorted
/// children's signatures + ")". No signature is built: Compare decides
/// the order of two signatures from the header bytes, the profiles'
/// integer ranks and the children, recursively. Signatures form a
/// prefix-free code (balanced parentheses, escaped literals), so two
/// concatenations compare as their first differing signatures do, and
/// where one child list ends first its ')' meets the other's next axis
/// marker.
struct Canon {
  /// One constraint endpoint's view of its constraint.
  struct Entry {
    char kind;  // 's' sibling, 'd' document
    char side;  // 'B' this node is before, 'A' after
    int other;  // the other endpoint
  };

  const Query* q = nullptr;
  std::vector<uint32_t> kid_at;   // n + 1 offsets into kids
  std::vector<int> kids;          // each node's children, sorted
  std::vector<uint32_t> entry_at;  // n + 1 offsets into entries
  std::vector<Entry> entries;      // each node's profile, sorted
  std::vector<int> rank;  // endpoints' structural signature rank
  bool refined = false;   // comparing with profiles
  std::vector<int> order;   // scratch: nodes by signature; preorder
  std::vector<int> map;     // old index -> canonical index
  std::vector<int> stack;
  mutable std::string value_a, value_b;  // escaped literals being compared

  bool HasProfile(int i) const {
    return refined && entry_at[i + 1] != entry_at[i];
  }

  /// Sign of (header(a) + ta) <=> (header(b) + tb), read off the nodes
  /// without building either header: the axis marker, the tag, then the
  /// byte after the tag — '{' of the target marker, '=' of a value
  /// literal, or the terminator — then the escaped literals. A tag that
  /// is a prefix of the other meets a tag byte with one of those three.
  int CompareHeaders(int a, unsigned char ta, int b, unsigned char tb) const {
    const QueryNode& na = q->nodes[a];
    const QueryNode& nb = q->nodes[b];
    const unsigned char xa = na.axis == StructAxis::kChild ? '/' : '%';
    const unsigned char xb = nb.axis == StructAxis::kChild ? '/' : '%';
    if (xa != xb) return xa < xb ? -1 : 1;
    const std::string_view ga = na.tag;
    const std::string_view gb = nb.tag;
    const size_t m = std::min(ga.size(), gb.size());
    if (int c = ga.substr(0, m).compare(gb.substr(0, m)); c != 0) return c;
    auto after_tag = [this](int i, const QueryNode& n, unsigned char t) {
      return static_cast<unsigned char>(
          i == q->target ? '{' : n.value_filter.has_value() ? '=' : t);
    };
    const unsigned char fa = after_tag(a, na, ta);
    const unsigned char fb = after_tag(b, nb, tb);
    if (ga.size() < gb.size()) {
      return fa < static_cast<unsigned char>(gb[m]) ? -1 : 1;
    }
    if (gb.size() < ga.size()) {
      return static_cast<unsigned char>(ga[m]) < fb ? -1 : 1;
    }
    if (fa != fb) return fa < fb ? -1 : 1;
    // Both '=' (only one node is the target), or both the terminator.
    if (fa != '=') return 0;
    value_a.clear();
    AppendEscaped(*na.value_filter, &value_a);
    value_a.push_back('"');
    value_a.push_back(static_cast<char>(ta));
    value_b.clear();
    AppendEscaped(*nb.value_filter, &value_b);
    value_b.push_back('"');
    value_b.push_back(static_cast<char>(tb));
    const int c = value_a.compare(value_b);
    return c < 0 ? -1 : c > 0 ? 1 : 0;
  }

  /// Sign of sig(a) <=> sig(b) in std::string (unsigned byte) order.
  int Compare(int a, int b) const {
    if (a == b) return 0;
    // Header plus the byte after it: '<' opens a profile, '(' the
    // children.
    const unsigned char ta = HasProfile(a) ? '<' : '(';
    const unsigned char tb = HasProfile(b) ? '<' : '(';
    if (int c = CompareHeaders(a, ta, b, tb); c != 0) return c;
    if (ta == '<') {
      // Entries "|" kind side sig, then '>' — which sorts below the '|'
      // of a longer profile.
      const uint32_t na = entry_at[a + 1] - entry_at[a];
      const uint32_t nb = entry_at[b + 1] - entry_at[b];
      for (uint32_t k = 0; k < std::min(na, nb); ++k) {
        const Entry& ea = entries[entry_at[a] + k];
        const Entry& eb = entries[entry_at[b] + k];
        if (ea.kind != eb.kind) return ea.kind < eb.kind ? -1 : 1;
        if (ea.side != eb.side) return ea.side < eb.side ? -1 : 1;
        if (rank[ea.other] != rank[eb.other]) {
          return rank[ea.other] < rank[eb.other] ? -1 : 1;
        }
      }
      if (na != nb) return na < nb ? -1 : 1;
    }
    const uint32_t na = kid_at[a + 1] - kid_at[a];
    const uint32_t nb = kid_at[b + 1] - kid_at[b];
    for (uint32_t k = 0; k < std::min(na, nb); ++k) {
      if (int c = Compare(kids[kid_at[a] + k], kids[kid_at[b] + k]); c != 0) {
        return c;
      }
    }
    if (na == nb) return 0;
    // The shorter list's ')' against the longer's next axis marker:
    // '%' (descendant) < ')' < '/' (child).
    const auto next_is_child = [this](int node, uint32_t k) {
      return q->nodes[kids[kid_at[node] + k]].axis == StructAxis::kChild;
    };
    if (na < nb) return next_is_child(b, na) ? -1 : 1;
    return next_is_child(a, nb) ? 1 : -1;
  }

  /// Bottom-up: every node's children, from their original order,
  /// stable-sorted by signature (children follow their parents in index
  /// order, so each child's own list is sorted first).
  void SortChildren() {
    const size_t n = q->nodes.size();
    for (size_t i = n; i-- > 0;) {
      const std::vector<int>& c = q->nodes[i].children;
      int* first = kids.data() + kid_at[i];
      std::copy(c.begin(), c.end(), first);
      std::stable_sort(first, first + c.size(),
                       [this](int a, int b) { return Compare(a, b) < 0; });
    }
  }
};

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
  AppendEscaped(value, &out);
  return out;
}

Query Canonicalize(const Query& q) { return Canonicalize(Query(q)); }

Query Canonicalize(Query&& q) {
  if (q.nodes.empty()) return std::move(q);
  thread_local Canon x;
  x.q = &q;
  const size_t n = q.nodes.size();

  x.kid_at.resize(n + 1);
  for (size_t i = 0; i < n; ++i) {
    x.kid_at[i + 1] = static_cast<uint32_t>(q.nodes[i].children.size());
  }
  x.kid_at[0] = 0;
  for (size_t i = 0; i < n; ++i) x.kid_at[i + 1] += x.kid_at[i];
  x.kids.resize(x.kid_at[n]);
  x.refined = false;
  x.SortChildren();

  // Refinement sweep: structure alone cannot order identical twin
  // subtrees whose roles differ only through order constraints (e.g.
  // title[X/following::p][p/preceding::Y] has two structurally equal p
  // descendants). Fold each node's constraint participation — kind,
  // side, and the other endpoint's structural signature, as its rank
  // among the endpoints' — into the sort key so isomorphic spellings agree
  // on which twin comes first. (Ties surviving this round are
  // constraint-symmetric, where either order yields the same serialized
  // key.)
  if (!q.orders.empty()) {
    // Profiles compare only constraint endpoints' signatures, so only
    // the endpoints are ranked (ranking every node would cost n log n
    // signature comparisons on a large query).
    x.order.clear();
    for (const OrderConstraint& c : q.orders) {
      x.order.push_back(c.before);
      x.order.push_back(c.after);
    }
    std::sort(x.order.begin(), x.order.end());
    x.order.erase(std::unique(x.order.begin(), x.order.end()), x.order.end());
    std::sort(x.order.begin(), x.order.end(),
              [](int a, int b) { return x.Compare(a, b) < 0; });
    x.rank.assign(n, 0);
    for (size_t k = 1; k < x.order.size(); ++k) {
      x.rank[x.order[k]] = x.rank[x.order[k - 1]] +
                           (x.Compare(x.order[k - 1], x.order[k]) != 0);
    }
    x.entry_at.assign(n + 1, 0);
    for (const OrderConstraint& c : q.orders) {
      ++x.entry_at[c.before + 1];
      ++x.entry_at[c.after + 1];
    }
    for (size_t i = 0; i < n; ++i) x.entry_at[i + 1] += x.entry_at[i];
    x.entries.resize(x.entry_at[n]);
    x.stack.assign(x.entry_at.begin(), x.entry_at.end() - 1);  // fill cursors
    for (const OrderConstraint& c : q.orders) {
      const char kind = c.kind == OrderKind::kSibling ? 's' : 'd';
      x.entries[x.stack[c.before]++] = {kind, 'B', c.after};
      x.entries[x.stack[c.after]++] = {kind, 'A', c.before};
    }
    for (size_t i = 0; i < n; ++i) {
      std::sort(x.entries.begin() + x.entry_at[i],
                x.entries.begin() + x.entry_at[i + 1],
                [](const Canon::Entry& a, const Canon::Entry& b) {
                  if (a.kind != b.kind) return a.kind < b.kind;
                  if (a.side != b.side) return a.side < b.side;
                  return x.rank[a.other] < x.rank[b.other];
                });
    }
    x.refined = true;
    x.SortChildren();
  }

  // Renumber in preorder of the sorted tree: permute the nodes in place
  // (following each cycle of the permutation), then rewrite parents and
  // children to the new indices.
  x.order.clear();
  x.stack.assign(1, 0);
  while (!x.stack.empty()) {
    const int node = x.stack.back();
    x.stack.pop_back();
    x.order.push_back(node);
    for (uint32_t k = x.kid_at[node + 1]; k-- > x.kid_at[node];) {
      x.stack.push_back(x.kids[k]);
    }
  }
  x.map.resize(n);
  for (size_t k = 0; k < n; ++k) x.map[x.order[k]] = static_cast<int>(k);
  for (size_t k = 0; k < n; ++k) {
    // The node now at k is old node order[k]; its sorted children are
    // still addressed by their old indices in `kids`.
    const int node = x.order[k];
    std::vector<int>& children = q.nodes[node].children;
    for (uint32_t c = x.kid_at[node]; c < x.kid_at[node + 1]; ++c) {
      children[c - x.kid_at[node]] = x.map[x.kids[c]];
    }
    if (q.nodes[node].parent != -1) {
      q.nodes[node].parent = x.map[q.nodes[node].parent];
    }
  }
  for (size_t start = 0; start < n; ++start) {
    // Cycle leaders are the smallest index of their cycle; map marks
    // placed slots with -1.
    if (x.map[start] == -1 || x.order[start] == static_cast<int>(start)) {
      continue;
    }
    QueryNode held = std::move(q.nodes[start]);
    size_t k = start;
    while (true) {
      const size_t from = static_cast<size_t>(x.order[k]);
      x.map[k] = -1;
      if (from == start) {
        q.nodes[k] = std::move(held);
        break;
      }
      q.nodes[k] = std::move(q.nodes[from]);
      k = from;
    }
  }
  Query out;
  out.root_mode = q.root_mode;
  out.nodes = std::move(q.nodes);
  out.orders = std::move(q.orders);
  for (size_t k = 0; k < n; ++k) x.map[x.order[k]] = static_cast<int>(k);
  out.target = x.map[q.target];
  for (OrderConstraint& c : out.orders) {
    c.before = x.map[c.before];
    c.after = x.map[c.after];
  }
  std::sort(out.orders.begin(), out.orders.end(),
            [](const OrderConstraint& a, const OrderConstraint& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.before != b.before) return a.before < b.before;
              return a.after < b.after;
            });
  x.q = nullptr;
  return out;
}

void AppendSerializedKey(const Query& q, std::string* out) {
  if (q.nodes.empty()) return;
  out->push_back(q.root_mode == RootMode::kAbsolute ? 'A' : 'W');
  auto render = [&](auto&& self, int node) -> void {
    AppendHeader(q, node, out);
    out->push_back('(');
    for (int c : q.nodes[node].children) self(self, c);
    out->push_back(')');
  };
  render(render, 0);
  char digits[12];
  for (const OrderConstraint& c : q.orders) {
    out->push_back('|');
    out->push_back(c.kind == OrderKind::kSibling ? 's' : 'd');
    out->append(digits, std::to_chars(digits, digits + sizeof digits,
                                      c.before).ptr);
    out->push_back(',');
    out->append(digits,
                std::to_chars(digits, digits + sizeof digits, c.after).ptr);
  }
}

std::string SerializeKey(const Query& q) {
  std::string out;
  AppendSerializedKey(q, &out);
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
