#include "estimator/estimator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <deque>

#include "encoding/containment.h"
#include "obs/metrics.h"
#include "stats/path_order.h"

namespace xee::estimator {
namespace {

using xpath::OrderConstraint;
using xpath::OrderKind;
using xpath::Query;
using xpath::RootMode;
using xpath::StructAxis;

encoding::AxisKind ToAxisKind(StructAxis axis) {
  return axis == StructAxis::kChild ? encoding::AxisKind::kChild
                                    : encoding::AxisKind::kDescendant;
}

bool Intersects(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

bool TestBit(const uint64_t* words, size_t i) {
  return ((words[i >> 6] >> (i & 63)) & 1) != 0;
}

void SetBit(uint64_t* words, size_t i) {
  words[i >> 6] |= uint64_t{1} << (i & 63);
}

Status DeadlineError(const char* when) {
  return Status(StatusCode::kDeadlineExceeded,
                std::string("deadline expired ") + when);
}

}  // namespace

struct Estimator::Plan {
  struct Node {
    xml::TagId tag;
    int parent;  // -1 for node 0
    StructAxis axis;
  };

  /// The query the plan resolves: its value predicates, target and
  /// constraints are read from here.
  const Query* query = nullptr;
  RootMode root_mode = RootMode::kAnywhere;
  /// Nodes 0 .. base - 1 are the query's own, with its indices; the
  /// document-order rewrite appends chain nodes and subtree copies after
  /// them. Parents always precede children.
  size_t base = 0;
  std::vector<Node> nodes;
  std::vector<uint32_t> kid_at;  // nodes.size() + 1 offsets into kids
  std::vector<int> kids;         // children of each node, ascending

  size_t size() const { return nodes.size(); }
  std::span<const int> Kids(int i) const {
    return std::span<const int>(kids).subspan(kid_at[i],
                                              kid_at[i + 1] - kid_at[i]);
  }
  int AddNode(xml::TagId tag, int parent, StructAxis axis) {
    nodes.push_back(Node{tag, parent, axis});
    return static_cast<int>(nodes.size()) - 1;
  }
  /// Rebuilds the children ranges after nodes were added.
  void IndexChildren() {
    kid_at.assign(nodes.size() + 1, 0);
    for (const Node& n : nodes) {
      if (n.parent >= 0) ++kid_at[n.parent + 1];
    }
    for (size_t i = 0; i < nodes.size(); ++i) kid_at[i + 1] += kid_at[i];
    kids.resize(kid_at[nodes.size()]);
    std::vector<uint32_t> fill(kid_at.begin(), kid_at.end() - 1);
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].parent >= 0) {
        kids[fill[nodes[i].parent]++] = static_cast<int>(i);
      }
    }
  }
  /// True iff `node` is a strict descendant of `anc`.
  bool IsDescendant(int anc, int node) const {
    for (int n = nodes[node].parent; n != -1; n = nodes[n].parent) {
      if (n == anc) return true;
    }
    return false;
  }
};

class Estimator::NodeMask {
 public:
  /// Nodes 0 .. n - 1.
  static NodeMask FirstN(size_t n) {
    NodeMask m;
    for (size_t i = 0; i < n; ++i) m.Add(i);
    return m;
  }

  bool Has(size_t i) const {
    const size_t w = i >> 6;
    return w < words() && ((Word(w) >> (i & 63)) & 1) != 0;
  }
  void Add(size_t i) {
    const size_t w = i >> 6;
    if (w >= kInline && heap_.size() <= w - kInline) {
      heap_.resize(w - kInline + 1, 0);
    }
    MutableWord(w) |= uint64_t{1} << (i & 63);
  }
  void Remove(size_t i) {
    const size_t w = i >> 6;
    if (w < words()) MutableWord(w) &= ~(uint64_t{1} << (i & 63));
  }
  /// Removes `node` and every plan descendant of it.
  void RemoveSubtree(const Plan& plan, int node) {
    Remove(node);
    for (int c : plan.Kids(node)) RemoveSubtree(plan, c);
  }
  /// Calls f(i) for every node in the mask, ascending.
  template <typename F>
  void ForEach(F f) const {
    for (size_t w = 0; w < words(); ++w) {
      for (uint64_t bits = Word(w); bits != 0; bits &= bits - 1) {
        f(static_cast<int>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

  friend bool operator==(const NodeMask& a, const NodeMask& b) {
    if (a.inline_ != b.inline_) return false;
    const std::vector<uint64_t>& lo = a.heap_.size() < b.heap_.size()
                                          ? a.heap_
                                          : b.heap_;
    const std::vector<uint64_t>& hi = &lo == &a.heap_ ? b.heap_ : a.heap_;
    for (size_t w = 0; w < hi.size(); ++w) {
      if (hi[w] != (w < lo.size() ? lo[w] : 0)) return false;
    }
    return true;
  }

 private:
  /// Plans up to 128 nodes keep their mask inline.
  static constexpr size_t kInline = 2;
  size_t words() const { return kInline + heap_.size(); }
  uint64_t Word(size_t w) const {
    return w < kInline ? inline_[w] : heap_[w - kInline];
  }
  uint64_t& MutableWord(size_t w) {
    return w < kInline ? inline_[w] : heap_[w - kInline];
  }

  std::array<uint64_t, kInline> inline_{};
  std::vector<uint64_t> heap_;
};

struct Estimator::JoinLists {
  /// Every node's list, back to back; node i's is the `size[i]`
  /// candidates from `begin[i]` (none for nodes outside the join's mask).
  std::vector<Cand> cands;
  std::vector<uint32_t> begin;
  std::vector<uint32_t> size;

  Cand* List(int i) { return cands.data() + begin[i]; }
  std::span<const Cand> List(int i) const {
    return std::span<const Cand>(cands).subspan(begin[i], size[i]);
  }
  double FreqSum(int i) const {
    double s = 0;
    for (const Cand& c : List(i)) s += c.freq;
    return s;
  }
};

struct Estimator::JoinMemo {
  struct Entry {
    /// The joined subquery. Everything else a join reads (tags, parents,
    /// axes, root mode) is the call's plan; orders, target and value
    /// filters do not influence the join, so subqueries differing only
    /// there share an entry.
    NodeMask key;
    bool ok = false;
    JoinLists lists;
  };
  /// A handful of entries per call, so a linear scan finds them; a deque
  /// keeps handed-out survivor lists in place as entries are appended.
  std::deque<Entry> entries;
  /// Buffers of the join's half-sweeps, reused across the call's sweeps.
  struct Scratch {
    std::vector<int> kept;          // the joined mask's nodes, ascending
    std::vector<size_t> group_end;  // end index of each parent-tag group
    std::vector<uint8_t> passed;    // per child: kept by the half-sweep
    std::vector<uint64_t> ok_pids;  // pids of children passing one group
    std::vector<uint64_t> alive;    // per group: OR of parents' cover rows
  } scratch;
};

bool Estimator::RunCtx::CheckCoarse() {
  if (expired) return true;
  if (deadline.infinite()) return false;
  expired = deadline.HasExpired();
  return expired;
}

Result<double> Estimator::Estimate(const Query& query,
                                   const EstimateLimits& limits) const {
  Plan plan;
  JoinMemo memo;
  RunCtx ctx{limits.deadline};
  ctx.plan = &plan;
  ctx.join_memo = &memo;
  ctx.timed = limits.timed && limits.trace != nullptr;
  if (ctx.CheckCoarse()) return DeadlineError("before estimation began");
  Status s = query.Validate();
  if (!s.ok()) return s;  // nothing counted yet
  // Tags resolve once per call, into the plan every subquery masks.
  Result<double> r = ResolvePlan(query, &plan)
                         ? EstimateImpl(query.orders, /*filters=*/true, &ctx)
                         : 0.0;
  FlushCounters(ctx, limits);
  // Partial values computed under an expired deadline are garbage; the
  // latched flag wins over whatever bubbled up.
  if (ctx.expired) return DeadlineError("during estimation");
  return r;
}

void Estimator::FlushCounters(const RunCtx& ctx,
                              const EstimateLimits& limits) const {
  if (ctx.containment_tests == 0 && ctx.join_probes == 0 &&
      ctx.fixpoint_rounds == 0 && ctx.join_ns == 0) {
    return;
  }
  containment_tests_.fetch_add(ctx.containment_tests,
                               std::memory_order_relaxed);
  // Handles resolved once per process; the registry guarantees the
  // references stay valid forever.
  static obs::Counter& tests =
      obs::Registry::Global().GetCounter("estimator.containment_tests");
  static obs::Counter& probes =
      obs::Registry::Global().GetCounter("estimator.join_probes");
  static obs::Counter& rounds =
      obs::Registry::Global().GetCounter("estimator.fixpoint_rounds");
  tests.Add(ctx.containment_tests);
  probes.Add(ctx.join_probes);
  rounds.Add(ctx.fixpoint_rounds);
  if (limits.trace != nullptr) {
    limits.trace->containment_tests += ctx.containment_tests;
    limits.trace->join_probes += ctx.join_probes;
    limits.trace->fixpoint_rounds += ctx.fixpoint_rounds;
    limits.trace->stage_ns[static_cast<size_t>(obs::Stage::kJoin)] +=
        ctx.join_ns;
  }
}

Result<double> Estimator::EstimateImpl(std::span<const OrderConstraint> orders,
                                       bool filters, RunCtx* ctx) const {
  const Plan& plan = *ctx->plan;
  const Query& query = *plan.query;
  const NodeMask base = NodeMask::FirstN(plan.base);
  // Value predicates (extension): estimate the structure-only query and
  // scale by the per-node text selectivities under independence. Built
  // without value statistics, filters are ignored (factor 1).
  if (filters) {
    bool any_filter = false;
    for (const auto& n : query.nodes) any_filter |= n.value_filter.has_value();
    if (any_filter) {
      double factor = 1;
      if (const stats::ValueStats* vs = syn_.value_stats()) {
        // Multiply the per-node selectivities in sorted order, not node
        // order: canonicalization renumbers nodes, and a fixed
        // multiplication order keeps Estimate(q) bit-identical across
        // query-tree isomorphisms (the fuzz harness asserts this).
        std::vector<double> sels;
        for (size_t i = 0; i < query.nodes.size(); ++i) {
          if (!query.nodes[i].value_filter.has_value()) continue;
          const xml::TagId tag = plan.nodes[i].tag;
          sels.push_back(
              tag == encoding::kWildcardTag
                  ? vs->GlobalSelectivity(*query.nodes[i].value_filter)
                  : vs->Selectivity(tag, *query.nodes[i].value_filter));
        }
        std::sort(sels.begin(), sels.end());
        for (double s : sels) factor *= s;
      }
      if (factor <= 0) return 0.0;
      Result<double> base_value = EstimateImpl(orders, /*filters=*/false, ctx);
      if (!base_value.ok()) return base_value;
      return base_value.value() * factor;
    }
  }

  if (orders.empty()) {
    return EstimateNoOrder(base, query.target, ctx);
  }
  if (orders.size() > 1) {
    // Extension beyond the paper (which evaluates one order axis per
    // query): assume constraints filter independently and compose the
    // per-constraint ratios S_arrow(Q | c_i) / S(Q).
    const double s_q = EstimateNoOrder(base, query.target, ctx);
    if (s_q <= 0) return 0.0;
    // Sorted multiplication: canonicalization reorders the constraint
    // list, and the ratio product must not depend on that order (see the
    // value-predicate path above).
    std::vector<double> ratios;
    ratios.reserve(orders.size());
    for (size_t k = 0; k < orders.size(); ++k) {
      Result<double> r = EstimateImpl(orders.subspan(k, 1), false, ctx);
      if (!r.ok()) return r;
      ratios.push_back(r.value() / s_q);
    }
    std::sort(ratios.begin(), ratios.end());
    double result = s_q;
    for (double ratio : ratios) result *= ratio;
    return std::max(0.0, result);
  }
  // Order estimation needs concrete tags for the path-order tables (the
  // constraint endpoints) and, for the following/preceding chain
  // rewrite, the junction.
  const OrderConstraint& c = orders[0];
  for (int n : {c.before, c.after}) {
    if (plan.nodes[n].tag == encoding::kWildcardTag) {
      return Status(StatusCode::kUnsupported,
                    "wildcard steps cannot carry order constraints");
    }
  }
  const int junction = plan.nodes[c.before].parent;
  if (c.kind == OrderKind::kDocument &&
      plan.nodes[junction].tag == encoding::kWildcardTag) {
    return Status(StatusCode::kUnsupported,
                  "following/preceding under a wildcard junction is not "
                  "supported");
  }
  if (!syn_.has_order()) {
    return Status(StatusCode::kUnsupported,
                  "synopsis was built without order statistics");
  }
  if (c.kind == OrderKind::kSibling) {
    return EstimateSiblingOrder(base, c, query.target, ctx);
  }
  return EstimateDocOrder(c, ctx);
}

bool Estimator::ResolvePlan(const Query& q, Plan* plan) const {
  plan->query = &q;
  plan->root_mode = q.root_mode;
  plan->base = q.nodes.size();
  plan->nodes.clear();
  plan->nodes.reserve(q.nodes.size());
  for (const auto& n : q.nodes) {
    xml::TagId tag = encoding::kWildcardTag;
    if (n.tag != "*") {
      auto id = syn_.FindTag(n.tag);
      if (!id.has_value()) return false;
      tag = *id;
    }
    plan->AddNode(tag, n.parent, n.axis);
  }
  plan->IndexChildren();
  return true;
}

const Estimator::JoinLists* Estimator::PathJoin(const NodeMask& mask,
                                                RunCtx* ctx) const {
  // The join is a pure function of (mask, plan, synopsis); orders,
  // target, and value filters play no part. Never cache a join cut short
  // by an expired deadline — its survivor lists are partial.
  JoinMemo& memo = *ctx->join_memo;
  for (const JoinMemo::Entry& e : memo.entries) {
    if (e.key == mask) return e.ok ? &e.lists : nullptr;
  }
  JoinMemo::Entry& entry = memo.entries.emplace_back();
  entry.key = mask;
  const auto start = ctx->timed ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
  entry.ok = PathJoinImpl(mask, &entry.lists, ctx);
  if (ctx->timed) {
    ctx->join_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  if (ctx->expired) {
    memo.entries.pop_back();
    return nullptr;
  }
  return entry.ok ? &entry.lists : nullptr;
}

bool Estimator::PathJoinImpl(const NodeMask& mask, JoinLists* lists,
                             RunCtx* ctx) const {
  if (ctx->CheckCoarse()) return false;
  const Plan& plan = *ctx->plan;
  // An absolute first step must be the document root: same tag, and the
  // root's path id (the id covering every path).
  if (plan.root_mode == RootMode::kAbsolute &&
      plan.nodes[0].tag != syn_.root_tag() &&
      plan.nodes[0].tag != encoding::kWildcardTag) {
    return false;
  }
  JoinMemo::Scratch& x = ctx->join_memo->scratch;
  x.kept.clear();
  mask.ForEach([&x](int i) { x.kept.push_back(i); });

  // Candidates in p-histogram bucket order, each carrying its bucket's
  // average: the pids and doubles PidsInOrder() and Frequency() give,
  // without a per-pid lookup. "*" lists hold one entry per (tag, pid)
  // pair, keeping the tag so the join tests relationships per concrete
  // tag.
  size_t total = 0;
  for (int i : x.kept) {
    const xml::TagId tag = plan.nodes[i].tag;
    if (tag != encoding::kWildcardTag) {
      total += syn_.PHisto(tag).PidsInOrder().size();
      continue;
    }
    for (size_t t = 0; t < syn_.TagCount(); ++t) {
      total += syn_.PHisto(static_cast<xml::TagId>(t)).PidsInOrder().size();
    }
  }
  std::vector<Cand>& all = lists->cands;
  all.clear();
  all.reserve(total);
  lists->begin.assign(plan.size(), 0);
  lists->size.assign(plan.size(), 0);
  auto append = [this, &all](xml::TagId tag) {
    for (const histogram::PHistogram::Bucket& b : syn_.PHisto(tag).buckets()) {
      for (encoding::PidRef pid : b.pids) {
        all.push_back(Cand{tag, pid, b.avg_freq});
      }
    }
  };
  for (int i : x.kept) {
    lists->begin[i] = static_cast<uint32_t>(all.size());
    if (plan.nodes[i].tag == encoding::kWildcardTag) {
      for (size_t t = 0; t < syn_.TagCount(); ++t) {
        append(static_cast<xml::TagId>(t));
      }
    } else {
      append(plan.nodes[i].tag);
    }
    lists->size[i] = static_cast<uint32_t>(all.size()) - lists->begin[i];
  }
  if (plan.root_mode == RootMode::kAbsolute) {
    Cand* root = lists->List(0);
    uint32_t kept = 0;
    for (uint32_t k = 0; k < lists->size[0]; ++k) {
      if (root[k].pid == syn_.root_pid()) root[kept++] = root[k];
    }
    lists->size[0] = kept;
  }

  // Word-parallel semi-join reduction over the query edges (DESIGN.md
  // §13), as two half-sweeps per edge i (child list i, parent list
  // parent(i)). Survivors are compacted in place, so every list keeps
  // its relative order. Each half returns true if it removed something.
  const encoding::PidJoinIndex& index = syn_.join_index();
  const size_t pid_words = index.pid_words();
  const size_t path_words = index.path_words();

  // Parent-tag groups: runs of equal tag in the list (one run unless it
  // is a "*" list, whose equal tags are adjacent).
  auto split_groups = [&x](const Cand* pl, size_t n) {
    x.group_end.clear();
    for (size_t k = 1; k <= n; ++k) {
      if (k == n || pl[k].tag != pl[k - 1].tag) x.group_end.push_back(k);
    }
  };
  // The tag test of child candidate `c` under a parent of tag `above`:
  // does c's pid hold a path on which c's tag sits below `above`?
  // `below` caches BelowPaths across a run of equal child tags.
  struct BelowCache {
    xml::TagId tag = encoding::kWildcardTag;  // no candidate carries it
    const uint64_t* below = nullptr;
  };
  auto tag_test = [&](xml::TagId above, const Cand& c,
                      encoding::AxisKind axis, BelowCache* cache) {
    if (c.tag != cache->tag) {
      cache->tag = c.tag;
      cache->below = index.BelowPaths(above, c.tag, axis);
    }
    ++ctx->containment_tests;
    return cache->below != nullptr &&
           Intersects(cache->below, syn_.PidBits(c.pid).words().data(),
                      path_words);
  };

  // Bottom-up half: keep a parent iff its cover row meets its group's
  // ok_pids, the pids of the children passing the group's tag test. A
  // child that fails the tag test against every group goes too: the
  // groups only ever shrink, so no parent can keep it later, and the
  // reduced lists do not change — but the top-down half under a
  // concrete parent tag may then skip the test.
  auto reduce_parent = [&](int i) {
    ++ctx->join_probes;
    const int p = plan.nodes[i].parent;
    const encoding::AxisKind axis = ToAxisKind(plan.nodes[i].axis);
    Cand* pl = lists->List(p);
    Cand* cl = lists->List(i);
    const size_t pn = lists->size[p];
    const size_t n = lists->size[i];
    split_groups(pl, pn);
    const size_t groups = x.group_end.size();
    x.passed.assign(n, 0);
    size_t kept = 0;
    for (size_t g = 0, k = 0; g < groups; ++g) {
      const xml::TagId tag = pl[k].tag;
      x.ok_pids.assign(pid_words, 0);
      uint64_t* ok_pids = x.ok_pids.data();
      BelowCache cache;
      for (size_t c = 0; c < n; ++c) {
        if (!tag_test(tag, cl[c], axis, &cache)) continue;
        x.passed[c] = 1;
        SetBit(ok_pids, cl[c].pid - 1);
      }
      for (; k < x.group_end[g]; ++k) {
        if (Intersects(index.CoverRow(pl[k].pid), ok_pids, pid_words)) {
          pl[kept++] = pl[k];
        }
      }
    }
    lists->size[p] = static_cast<uint32_t>(kept);
    size_t ckept = 0;
    for (size_t c = 0; c < n; ++c) {
      if (x.passed[c] != 0) cl[ckept++] = cl[c];
    }
    lists->size[i] = static_cast<uint32_t>(ckept);
    return kept + ckept != pn + n;
  };

  // Top-down half: keep a child iff some surviving parent's cover row
  // holds its pid — for a "*" parent, one of the same group, whose tag
  // test it must then pass. Under a concrete parent tag every child left
  // already passed that one test in reduce_parent(i), so the cover rows
  // alone decide.
  auto reduce_child = [&](int i) {
    ++ctx->join_probes;
    const int p = plan.nodes[i].parent;
    const encoding::AxisKind axis = ToAxisKind(plan.nodes[i].axis);
    const Cand* pl = lists->List(p);
    const size_t pn = lists->size[p];
    Cand* cl = lists->List(i);
    const size_t before = lists->size[i];
    if (pn == 0) {
      lists->size[i] = 0;
      return before != 0;
    }
    split_groups(pl, pn);
    const size_t groups = x.group_end.size();
    x.alive.assign(groups * pid_words, 0);
    for (size_t g = 0, k = 0; g < groups; ++g) {
      uint64_t* alive = x.alive.data() + g * pid_words;
      for (; k < x.group_end[g]; ++k) {
        bitkernel::OrWords(alive, index.CoverRow(pl[k].pid), pid_words);
      }
    }
    size_t kept = 0;
    if (plan.nodes[p].tag != encoding::kWildcardTag) {
      for (size_t c = 0; c < before; ++c) {
        if (TestBit(x.alive.data(), cl[c].pid - 1)) cl[kept++] = cl[c];
      }
    } else {
      x.passed.assign(before, 0);
      for (size_t g = 0, begin = 0; g < groups; begin = x.group_end[g++]) {
        const uint64_t* alive = x.alive.data() + g * pid_words;
        BelowCache cache;
        for (size_t c = 0; c < before; ++c) {
          if (x.passed[c] == 0 && TestBit(alive, cl[c].pid - 1) &&
              tag_test(pl[begin].tag, cl[c], axis, &cache)) {
            x.passed[c] = 1;
          }
        }
      }
      for (size_t c = 0; c < before; ++c) {
        if (x.passed[c] != 0) cl[kept++] = cl[c];
      }
    }
    lists->size[i] = static_cast<uint32_t>(kept);
    return kept != before;
  };

  // x.kept[0] is node 0, the root of every subquery; the rest each have
  // their parent in the mask and an index above it.
  const size_t kept_count = x.kept.size();
  if (join_to_fixpoint_) {
    // Round-robin to a fixpoint (ablation A2, and the reference the
    // reducer is tested against): both halves per edge, edges in index
    // order, until a round removes nothing.
    bool changed = true;
    while (changed) {
      ++ctx->fixpoint_rounds;
      changed = false;
      for (size_t k = 1; k < kept_count; ++k) {
        if (ctx->CheckCoarse()) return false;
        changed |= reduce_parent(x.kept[k]);
        changed |= reduce_child(x.kept[k]);
      }
    }
  } else {
    // The two-pass full reducer: for a tree query, one bottom-up pass
    // (children before parents, i.e. decreasing index) and one top-down
    // pass reach the fixpoint's survivors. After the bottom-up pass
    // every parent has a partner in each child list, so a list emptied
    // there empties the join, and none empties top-down.
    ctx->fixpoint_rounds += 2;
    for (size_t k = kept_count; k-- > 1;) {
      if (ctx->CheckCoarse()) return false;
      const int i = x.kept[k];
      reduce_parent(i);
      if (lists->size[plan.nodes[i].parent] == 0) return false;
    }
    for (size_t k = 1; k < kept_count; ++k) {
      if (ctx->CheckCoarse()) return false;
      reduce_child(x.kept[k]);
    }
  }

  for (int i : x.kept) {
    if (lists->size[i] == 0) return false;
  }
  return true;
}

double Estimator::EstimateNoOrder(const NodeMask& mask, int target,
                                  RunCtx* ctx) const {
  const JoinLists* join = PathJoin(mask, ctx);
  if (join == nullptr) return 0;
  return NodeSelectivity(mask, *join, target, ctx);
}

double Estimator::NodeSelectivity(const NodeMask& mask, const JoinLists& join,
                                  int node, RunCtx* ctx) const {
  if (ctx->CheckCoarse()) return 0;
  const Plan& plan = *ctx->plan;

  // Deepest node strictly above `node` (on its spine) with off-spine
  // branches in the subquery.
  int ni = -1;
  int ni_spine_child = -1;
  for (int child = node, n = plan.nodes[node].parent; n != -1 && ni == -1;
       child = n, n = plan.nodes[n].parent) {
    int kids = 0;
    for (int k : plan.Kids(n)) kids += mask.Has(k) ? 1 : 0;
    if (kids > 1) {
      ni = n;
      ni_spine_child = child;
    }
  }
  // Trunk target (no branching strictly above): Theorem 4.1 — the joined
  // frequency sum is the selectivity.
  if (ni == -1) return join.FreqSum(node);

  // Branch target: Eq. 2. Q' drops the off-spine branches at ni; the
  // selectivity of ni itself is computed recursively (it is strictly
  // higher up, so this terminates).
  NodeMask qp = mask;
  for (int k : plan.Kids(ni)) {
    if (k != ni_spine_child) qp.RemoveSubtree(plan, k);
  }
  const JoinLists* join_p = PathJoin(qp, ctx);
  if (join_p == nullptr) return 0;

  const double s_q_ni = NodeSelectivity(mask, join, ni, ctx);
  const double s_qp_ni = NodeSelectivity(qp, *join_p, ni, ctx);
  const double s_qp_n = NodeSelectivity(qp, *join_p, node, ctx);
  if (s_qp_ni <= 0) return 0;
  return s_qp_n * s_q_ni / s_qp_ni;
}

double Estimator::OrderCellSum(const NodeMask& q_prime, int x,
                               xml::TagId other_tag, bool x_is_after,
                               RunCtx* ctx) const {
  if (ctx->CheckCoarse()) return 0;
  const JoinLists* join = PathJoin(q_prime, ctx);
  if (join == nullptr) return 0;

  const histogram::OHistogram& oh = syn_.OHisto(ctx->plan->nodes[x].tag);
  const stats::OrderRegion region =
      x_is_after ? stats::OrderRegion::kAfter : stats::OrderRegion::kBefore;
  const std::span<const Cand> cands = join->List(x);
  return oh.RowSum(region, other_tag, cands.begin(), cands.end(),
                   [](const Cand& c) { return c.pid; });
}

double Estimator::EstimateSiblingOrder(const NodeMask& mask,
                                       const OrderConstraint& c, int target,
                                       RunCtx* ctx) const {
  const Plan& plan = *ctx->plan;
  const int a = c.before;
  const int b = c.after;

  // Evaluates one sibling endpoint x (the other endpoint's branch is
  // truncated to its head to form Q'). Returns the three quantities of
  // Eq. 3: the o-histogram sum S_arrowQ'(x), the plain estimates
  // S_Q'(x) and S_arrowQ(x).
  struct Side {
    double s_oh = 0;     // S_arrowQ'(x), exact w.r.t. the order tables
    double s_qp = 0;     // S_Q'(x)
    double s_arrow = 0;  // Eq. 3 estimate of S_arrowQ(x)
  };
  auto eval_side = [&](int x, int other, bool x_is_after) {
    Side side;
    if (ctx->CheckCoarse()) return side;
    // Q': truncate the other endpoint's branch to its head node.
    NodeMask qp = mask;
    for (int k : plan.Kids(other)) qp.RemoveSubtree(plan, k);
    side.s_oh = OrderCellSum(qp, x, plan.nodes[other].tag, x_is_after, ctx);
    side.s_qp = EstimateNoOrder(qp, x, ctx);
    const double s_q_x = EstimateNoOrder(mask, x, ctx);
    side.s_arrow = side.s_qp > 0 ? side.s_oh * s_q_x / side.s_qp : 0;
    return side;
  };

  const int t = target;
  if (t == b) return eval_side(b, a, /*x_is_after=*/true).s_arrow;
  if (t == a) return eval_side(a, b, /*x_is_after=*/false).s_arrow;

  if (plan.IsDescendant(b, t)) {
    // Eq. 4: scale the no-order estimate by the order ratio of b.
    const Side side = eval_side(b, a, /*x_is_after=*/true);
    const double s_q_t = EstimateNoOrder(mask, t, ctx);
    return side.s_qp > 0 ? s_q_t * side.s_oh / side.s_qp : 0;
  }
  if (plan.IsDescendant(a, t)) {
    const Side side = eval_side(a, b, /*x_is_after=*/false);
    const double s_q_t = EstimateNoOrder(mask, t, ctx);
    return side.s_qp > 0 ? s_q_t * side.s_oh / side.s_qp : 0;
  }

  // Trunk target: Eq. 5.
  const Side sa = eval_side(a, b, /*x_is_after=*/false);
  const Side sb = eval_side(b, a, /*x_is_after=*/true);
  const double s_q_t = EstimateNoOrder(mask, t, ctx);
  return std::min(s_q_t, std::min(sa.s_arrow, sb.s_arrow));
}

Result<double> Estimator::EstimateDocOrder(const OrderConstraint& c,
                                           RunCtx* ctx) const {
  Plan& plan = *ctx->plan;
  const int target = plan.query->target;
  const NodeMask base = NodeMask::FirstN(plan.base);
  // The rewrite targets the endpoint attached via the descendant axis
  // (created by a following::/preceding:: step). If both endpoints are
  // child-attached, the document-order constraint between siblings is
  // the sibling constraint.
  int d;
  if (plan.nodes[c.after].axis == StructAxis::kDescendant) {
    d = c.after;
  } else if (plan.nodes[c.before].axis == StructAxis::kDescendant) {
    d = c.before;
  } else {
    OrderConstraint sib = c;
    sib.kind = OrderKind::kSibling;
    return EstimateSiblingOrder(base, sib, target, ctx);
  }
  const int ctx_node = d == c.after ? c.before : c.after;
  const int junction = plan.nodes[d].parent;
  XEE_CHECK(junction >= 0);
  if (plan.nodes[ctx_node].axis != StructAxis::kChild) {
    return Status(StatusCode::kUnsupported,
                  "document-order context step must be child-attached");
  }

  const JoinLists* join = PathJoin(base, ctx);
  if (join == nullptr) return 0.0;

  // Decode the surviving pids of d into tag chains below the junction
  // (Example 5.3): every run of a path from just below an occurrence of
  // the junction's tag to a later occurrence of d's tag. The chains go
  // into a trie under the junction whose children stay sorted by tag,
  // so its preorder lists each distinct chain once, in lexicographic
  // order.
  struct TrieNode {
    xml::TagId tag;
    int parent;
    int first_child = -1;
    int next_sibling = -1;
    bool chain_end = false;
  };
  std::vector<TrieNode> trie(1, TrieNode{encoding::kWildcardTag, -1});
  const xml::TagId above = plan.nodes[junction].tag;
  const xml::TagId below = plan.nodes[d].tag;
  for (const Cand& cand : join->List(d)) {
    syn_.PidBits(cand.pid).ForEachSetBit([&](size_t enc) {
      const encoding::TagPath& p =
          syn_.table().Path(static_cast<uint32_t>(enc));
      size_t last = p.size();  // the last occurrence of d's tag
      while (last > 0 && p[last - 1] != below) --last;
      for (size_t i = 0; i + 1 < last; ++i) {
        if (p[i] != above) continue;
        int at = 0;
        for (size_t j = i + 1; j < last; ++j) {
          // Descend to (or insert, in tag order) the child for p[j].
          int link = trie[at].first_child;
          int prev = -1;
          while (link != -1 && trie[link].tag < p[j]) {
            prev = link;
            link = trie[link].next_sibling;
          }
          if (link == -1 || trie[link].tag != p[j]) {
            const int fresh = static_cast<int>(trie.size());
            trie.push_back(TrieNode{p[j], at});
            trie[fresh].next_sibling = link;
            (prev == -1 ? trie[at].first_child : trie[prev].next_sibling) =
                fresh;
            link = fresh;
          }
          at = link;
          if (p[j] == below) trie[at].chain_end = true;
        }
      }
    });
  }

  // Append the chains to the plan in trie preorder, and under each
  // chain's end a copy of d's subtree (d's strict descendants, which
  // the rewrite hangs below the chain's last step in d's place).
  std::vector<int> desc;  // d's strict descendants, ascending
  std::vector<int> copy_slot(plan.base, -1);
  for (int i = d + 1; i < static_cast<int>(plan.base); ++i) {
    const int p = plan.nodes[i].parent;
    if (p == d || (p > d && copy_slot[p] >= 0)) {
      copy_slot[i] = static_cast<int>(desc.size());
      desc.push_back(i);
    }
  }
  struct Chain {
    int end;     // plan node of the chain's last step (d's stand-in)
    int copies;  // plan node of the copy of desc[0]
  };
  std::vector<Chain> chains;
  std::vector<int> plan_of(trie.size(), -1);
  plan_of[0] = junction;
  std::vector<int> stack;
  for (int k = trie[0].first_child; k != -1; k = trie[k].next_sibling) {
    stack.push_back(k);
  }
  std::reverse(stack.begin(), stack.end());
  while (!stack.empty()) {
    const int t = stack.back();
    stack.pop_back();
    // Preorder: the parent's plan node is already set.
    plan_of[t] = plan.AddNode(trie[t].tag, plan_of[trie[t].parent],
                              StructAxis::kChild);
    if (trie[t].chain_end) {
      const int copies = static_cast<int>(plan.size());
      for (int i : desc) {
        const int p = plan.nodes[i].parent;
        plan.AddNode(plan.nodes[i].tag,
                     p == d ? plan_of[t] : copies + copy_slot[p],
                     plan.nodes[i].axis);
      }
      chains.push_back(Chain{plan_of[t], copies});
    }
    const size_t mark = stack.size();
    for (int k = trie[t].first_child; k != -1; k = trie[k].next_sibling) {
      stack.push_back(k);
    }
    std::reverse(stack.begin() + static_cast<ptrdiff_t>(mark), stack.end());
  }
  if (chains.empty()) return 0.0;
  plan.IndexChildren();

  const bool target_in_d = target == d || plan.IsDescendant(d, target);
  NodeMask rest = base;
  rest.RemoveSubtree(plan, d);
  double total = 0;
  for (const Chain& chain : chains) {
    if (ctx->CheckCoarse()) break;
    // The query with d replaced by the explicit child chain, and a
    // sibling constraint between the context step and the chain head.
    NodeMask rw = rest;
    int head = chain.end;
    for (int n = chain.end; n != junction; n = plan.nodes[n].parent) {
      rw.Add(n);
      head = n;
    }
    for (size_t k = 0; k < desc.size(); ++k) rw.Add(chain.copies + k);
    OrderConstraint sc;
    sc.kind = OrderKind::kSibling;
    sc.before = d == c.after ? ctx_node : head;
    sc.after = d == c.after ? head : ctx_node;
    const int rw_target = target == d        ? chain.end
                          : copy_slot[target] >= 0
                              ? chain.copies + copy_slot[target]
                              : target;
    total += EstimateSiblingOrder(rw, sc, rw_target, ctx);
  }

  if (target_in_d) return total;
  // Target elsewhere: the chains partition d's possibilities, so the sum
  // bounds the union; clamp by the no-order estimate.
  return std::min(EstimateNoOrder(base, target, ctx), total);
}

}  // namespace xee::estimator
