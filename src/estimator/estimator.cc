#include "estimator/estimator.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>

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

/// True iff `node` is a strict descendant of `anc` in the query tree.
bool IsQueryDescendant(const Query& q, int anc, int node) {
  for (int n = q.nodes[node].parent; n != -1; n = q.nodes[n].parent) {
    if (n == anc) return true;
  }
  return false;
}

/// Propagates a node mask downwards: any descendant of a marked node
/// becomes marked. Parents precede children in index order.
void PropagateDown(const Query& q, std::vector<bool>* mask) {
  for (size_t i = 0; i < q.nodes.size(); ++i) {
    int p = q.nodes[i].parent;
    if (p >= 0 && (*mask)[p]) (*mask)[i] = true;
  }
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

/// The tag ids of `sub`'s nodes, carried over from `tags` (its parent
/// query's) through the old-to-new node map SubQuery returned.
std::vector<xml::TagId> SubTags(const std::vector<xml::TagId>& tags,
                                const std::vector<int>& map,
                                const Query& sub) {
  std::vector<xml::TagId> out(sub.nodes.size());
  for (size_t i = 0; i < map.size(); ++i) {
    if (map[i] >= 0) out[map[i]] = tags[i];
  }
  return out;
}

}  // namespace

struct Estimator::JoinMemo {
  struct Entry {
    /// Everything PathJoin reads from a query: the root mode, then one
    /// word per node packing (resolved tag id, parent + 1, axis). Orders,
    /// target and value filters do not influence the join, so subqueries
    /// differing only there share an entry.
    std::vector<uint64_t> key;
    bool ok = false;
    std::vector<CandList> cands;
  };
  /// A handful of entries per call, so a linear scan finds them; a deque
  /// keeps handed-out survivor lists in place as entries are appended.
  std::deque<Entry> entries;
  /// The key being looked up, reused across the call's PathJoins.
  std::vector<uint64_t> key;
  /// Buffers of the join's half-sweeps, reused across the call's sweeps.
  struct Scratch {
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
  JoinMemo memo;
  RunCtx ctx{limits.deadline};
  ctx.join_memo = &memo;
  ctx.timed = limits.timed && limits.trace != nullptr;
  if (ctx.CheckCoarse()) return DeadlineError("before estimation began");
  Status s = query.Validate();
  if (!s.ok()) return s;  // nothing counted yet
  // Tags resolve once per call; every subquery the formula walk derives
  // carries its ids over from here.
  std::vector<xml::TagId> tags;
  Result<double> r =
      ResolveTags(query, &tags) ? EstimateImpl(query, tags, &ctx) : 0.0;
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

Result<double> Estimator::EstimateImpl(const Query& query,
                                       const std::vector<xml::TagId>& tags,
                                       RunCtx* ctx) const {
  // Value predicates (extension): estimate the structure-only query and
  // scale by the per-node text selectivities under independence. Built
  // without value statistics, filters are ignored (factor 1).
  {
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
          sels.push_back(
              tags[i] == encoding::kWildcardTag
                  ? vs->GlobalSelectivity(*query.nodes[i].value_filter)
                  : vs->Selectivity(tags[i], *query.nodes[i].value_filter));
        }
        std::sort(sels.begin(), sels.end());
        for (double s : sels) factor *= s;
      }
      if (factor <= 0) return 0.0;
      Query structural = query;
      for (auto& n : structural.nodes) n.value_filter.reset();
      Result<double> base = EstimateImpl(structural, tags, ctx);
      if (!base.ok()) return base;
      return base.value() * factor;
    }
  }

  if (query.orders.empty()) {
    return EstimateNoOrder(query, tags, query.target, ctx);
  }
  if (query.orders.size() > 1) {
    // Extension beyond the paper (which evaluates one order axis per
    // query): assume constraints filter independently and compose the
    // per-constraint ratios S_arrow(Q | c_i) / S(Q).
    const double s_q = EstimateNoOrder(query, tags, query.target, ctx);
    if (s_q <= 0) return 0.0;
    // Sorted multiplication: canonicalization reorders the constraint
    // list, and the ratio product must not depend on that order (see the
    // value-predicate path above).
    std::vector<double> ratios;
    ratios.reserve(query.orders.size());
    for (const OrderConstraint& c : query.orders) {
      Query one = query;
      one.orders = {c};
      Result<double> r = EstimateImpl(one, tags, ctx);
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
  {
    const OrderConstraint& oc = query.orders[0];
    for (int n : {oc.before, oc.after}) {
      if (query.nodes[n].tag == "*") {
        return Status(StatusCode::kUnsupported,
                      "wildcard steps cannot carry order constraints");
      }
    }
    const int junction = query.nodes[oc.before].parent;
    if (oc.kind == OrderKind::kDocument &&
        query.nodes[junction].tag == "*") {
      return Status(StatusCode::kUnsupported,
                    "following/preceding under a wildcard junction is not "
                    "supported");
    }
  }
  if (!syn_.has_order()) {
    return Status(StatusCode::kUnsupported,
                  "synopsis was built without order statistics");
  }
  const OrderConstraint& c = query.orders[0];
  if (c.kind == OrderKind::kSibling) {
    return EstimateSiblingOrder(query, tags, ctx);
  }
  return EstimateDocOrder(query, tags, ctx);
}

bool Estimator::ResolveTags(const Query& q,
                            std::vector<xml::TagId>* tags) const {
  tags->clear();
  tags->reserve(q.nodes.size());
  for (const auto& n : q.nodes) {
    if (n.tag == "*") {
      tags->push_back(encoding::kWildcardTag);
      continue;
    }
    auto id = syn_.FindTag(n.tag);
    if (!id.has_value()) return false;
    tags->push_back(*id);
  }
  return true;
}

const std::vector<Estimator::CandList>* Estimator::PathJoin(
    const Query& q, const std::vector<xml::TagId>& tags, RunCtx* ctx) const {
  // The join is a pure function of (node structure, synopsis); orders,
  // target, and value filters play no part. Never cache a join cut short
  // by an expired deadline — its survivor lists are partial.
  JoinMemo& memo = *ctx->join_memo;
  memo.key.clear();
  memo.key.push_back(q.root_mode == RootMode::kAbsolute ? 1 : 0);
  for (size_t i = 0; i < q.nodes.size(); ++i) {
    const auto& n = q.nodes[i];
    memo.key.push_back(uint64_t{tags[i]} << 32 |
                       static_cast<uint64_t>(n.parent + 1) << 1 |
                       (n.axis == StructAxis::kChild ? 0 : 1));
  }
  for (const JoinMemo::Entry& e : memo.entries) {
    if (e.key == memo.key) return e.ok ? &e.cands : nullptr;
  }
  JoinMemo::Entry& entry = memo.entries.emplace_back();
  entry.key = memo.key;
  const auto start = ctx->timed ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
  entry.ok = PathJoinImpl(q, tags, &entry.cands, ctx);
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
  return entry.ok ? &entry.cands : nullptr;
}

bool Estimator::PathJoinImpl(const Query& q,
                             const std::vector<xml::TagId>& tags,
                             std::vector<CandList>* cands, RunCtx* ctx) const {
  if (ctx->CheckCoarse()) return false;
  // An absolute first step must be the document root: same tag, and the
  // root's path id (the id covering every path).
  if (q.root_mode == RootMode::kAbsolute && tags[0] != syn_.root_tag() &&
      tags[0] != encoding::kWildcardTag) {
    return false;
  }
  // Candidates in p-histogram bucket order, each carrying its bucket's
  // average: the pids and doubles PidsInOrder() and Frequency() give,
  // without a per-pid lookup. "*" lists hold one entry per (tag, pid)
  // pair, keeping the tag so the join tests relationships per concrete
  // tag.
  auto append = [this](xml::TagId tag, CandList* list) {
    for (const histogram::PHistogram::Bucket& b : syn_.PHisto(tag).buckets()) {
      for (encoding::PidRef pid : b.pids) {
        list->push_back(Cand{tag, pid, b.avg_freq});
      }
    }
  };
  cands->assign(q.nodes.size(), CandList{});
  for (size_t i = 0; i < q.nodes.size(); ++i) {
    CandList& list = (*cands)[i];
    if (tags[i] == encoding::kWildcardTag) {
      for (size_t t = 0; t < syn_.TagCount(); ++t) {
        append(static_cast<xml::TagId>(t), &list);
      }
    } else {
      list.reserve(syn_.PHisto(tags[i]).PidsInOrder().size());
      append(tags[i], &list);
    }
  }
  if (q.root_mode == RootMode::kAbsolute) {
    std::erase_if((*cands)[0],
                  [this](const Cand& c) { return c.pid != syn_.root_pid(); });
  }

  // Word-parallel semi-join reduction over the query edges (DESIGN.md
  // §13), as two half-sweeps per edge i (child list i, parent list
  // parent(i)). Survivors are compacted in place, so every list keeps
  // its relative order. Each half returns true if it removed something.
  const encoding::PidJoinIndex& index = syn_.join_index();
  const size_t pid_words = index.pid_words();
  const size_t path_words = index.path_words();
  JoinMemo::Scratch& x = ctx->join_memo->scratch;

  // Parent-tag groups: runs of equal tag in `pl` (one run unless pl is a
  // "*" list, whose equal tags are adjacent).
  auto split_groups = [&x](const CandList& pl) {
    x.group_end.clear();
    for (size_t k = 1; k <= pl.size(); ++k) {
      if (k == pl.size() || pl[k].tag != pl[k - 1].tag) {
        x.group_end.push_back(k);
      }
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
  auto reduce_parent = [&](size_t i) {
    ++ctx->join_probes;
    const encoding::AxisKind axis = ToAxisKind(q.nodes[i].axis);
    CandList& pl = (*cands)[q.nodes[i].parent];
    CandList& cl = (*cands)[i];
    const size_t before = pl.size() + cl.size();
    split_groups(pl);
    const size_t groups = x.group_end.size();
    const size_t n = cl.size();
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
    pl.resize(kept);
    kept = 0;
    for (size_t c = 0; c < n; ++c) {
      if (x.passed[c] != 0) cl[kept++] = cl[c];
    }
    cl.resize(kept);
    return pl.size() + cl.size() != before;
  };

  // Top-down half: keep a child iff some surviving parent's cover row
  // holds its pid — for a "*" parent, one of the same group, whose tag
  // test it must then pass. Under a concrete parent tag every child left
  // already passed that one test in reduce_parent(i), so the cover rows
  // alone decide.
  auto reduce_child = [&](size_t i) {
    ++ctx->join_probes;
    const int p = q.nodes[i].parent;
    const encoding::AxisKind axis = ToAxisKind(q.nodes[i].axis);
    const CandList& pl = (*cands)[p];
    CandList& cl = (*cands)[i];
    const size_t before = cl.size();
    if (pl.empty()) {
      cl.clear();
      return before != 0;
    }
    split_groups(pl);
    const size_t groups = x.group_end.size();
    x.alive.assign(groups * pid_words, 0);
    for (size_t g = 0, k = 0; g < groups; ++g) {
      uint64_t* alive = x.alive.data() + g * pid_words;
      for (; k < x.group_end[g]; ++k) {
        bitkernel::OrWords(alive, index.CoverRow(pl[k].pid), pid_words);
      }
    }
    size_t kept = 0;
    if (tags[p] != encoding::kWildcardTag) {
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
    cl.resize(kept);
    return kept != before;
  };

  const size_t node_count = q.nodes.size();
  if (join_to_fixpoint_) {
    // Round-robin to a fixpoint (ablation A2, and the reference the
    // reducer is tested against): both halves per edge, edges in index
    // order, until a round removes nothing.
    bool changed = true;
    while (changed) {
      ++ctx->fixpoint_rounds;
      changed = false;
      for (size_t i = 1; i < node_count; ++i) {
        if (ctx->CheckCoarse()) return false;
        changed |= reduce_parent(i);
        changed |= reduce_child(i);
      }
    }
  } else {
    // The two-pass full reducer: for a tree query, one bottom-up pass
    // (children before parents, i.e. decreasing index) and one top-down
    // pass reach the fixpoint's survivors. After the bottom-up pass
    // every parent has a partner in each child list, so a list emptied
    // there empties the join, and none empties top-down.
    ctx->fixpoint_rounds += 2;
    for (size_t i = node_count; i-- > 1;) {
      if (ctx->CheckCoarse()) return false;
      reduce_parent(i);
      if ((*cands)[q.nodes[i].parent].empty()) return false;
    }
    for (size_t i = 1; i < node_count; ++i) {
      if (ctx->CheckCoarse()) return false;
      reduce_child(i);
    }
  }

  for (const CandList& l : *cands) {
    if (l.empty()) return false;
  }
  return true;
}

double Estimator::FreqSum(const CandList& l) {
  double s = 0;
  for (const Cand& c : l) s += c.freq;
  return s;
}

double Estimator::EstimateNoOrder(const Query& q,
                                  const std::vector<xml::TagId>& tags,
                                  int target, RunCtx* ctx) const {
  const std::vector<CandList>* join = PathJoin(q, tags, ctx);
  if (join == nullptr) return 0;
  return NodeSelectivity(q, tags, *join, target, ctx);
}

double Estimator::NodeSelectivity(const Query& q,
                                  const std::vector<xml::TagId>& tags,
                                  const std::vector<CandList>& join, int node,
                                  RunCtx* ctx) const {
  if (ctx->CheckCoarse()) return 0;
  const std::vector<int> spine = q.SpineOf(node);

  // Deepest spine node strictly above `node` with off-spine branches.
  int ni = -1;
  int ni_spine_child = -1;
  for (size_t i = 0; i + 1 < spine.size(); ++i) {
    const int sn = spine[i];
    const int next = spine[i + 1];
    if (q.nodes[sn].children.size() > 1) {
      ni = sn;
      ni_spine_child = next;
    }
  }
  // Trunk target (no branching strictly above): Theorem 4.1 — the joined
  // frequency sum is the selectivity.
  if (ni == -1) return FreqSum(join[node]);

  // Branch target: Eq. 2. Q' drops the off-spine branches at ni; the
  // selectivity of ni itself is computed recursively (it is strictly
  // higher up, so this terminates).
  std::vector<bool> keep(q.nodes.size(), true);
  {
    std::vector<bool> off(q.nodes.size(), false);
    for (int child : q.nodes[ni].children) {
      if (child != ni_spine_child) off[child] = true;
    }
    PropagateDown(q, &off);
    for (size_t i = 0; i < q.nodes.size(); ++i) keep[i] = !off[i];
  }

  std::vector<int> map;
  Query qp = q.SubQuery(keep, &map);
  qp.orders.clear();
  qp.target = map[node];
  XEE_CHECK(map[node] >= 0 && map[ni] >= 0);

  const std::vector<xml::TagId> tags_p = SubTags(tags, map, qp);
  const std::vector<CandList>* join_p = PathJoin(qp, tags_p, ctx);
  if (join_p == nullptr) return 0;

  const double s_q_ni = NodeSelectivity(q, tags, join, ni, ctx);
  const double s_qp_ni = NodeSelectivity(qp, tags_p, *join_p, map[ni], ctx);
  const double s_qp_n = NodeSelectivity(qp, tags_p, *join_p, map[node], ctx);
  if (s_qp_ni <= 0) return 0;
  return s_qp_n * s_q_ni / s_qp_ni;
}

double Estimator::OrderCellSum(const Query& q_prime,
                               const std::vector<xml::TagId>& tags,
                               int x_in_prime, xml::TagId other_tag,
                               bool x_is_after, RunCtx* ctx) const {
  if (ctx->CheckCoarse()) return 0;
  const std::vector<CandList>* join = PathJoin(q_prime, tags, ctx);
  if (join == nullptr) return 0;

  const histogram::OHistogram& oh = syn_.OHisto(tags[x_in_prime]);
  const stats::OrderRegion region =
      x_is_after ? stats::OrderRegion::kAfter : stats::OrderRegion::kBefore;
  double sum = 0;
  for (const Cand& c : (*join)[x_in_prime]) {
    sum += oh.Get(region, other_tag, c.pid);
  }
  return sum;
}

double Estimator::EstimateSiblingOrder(const Query& q,
                                       const std::vector<xml::TagId>& tags,
                                       RunCtx* ctx) const {
  const OrderConstraint& c = q.orders[0];
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
    std::vector<bool> keep(q.nodes.size(), true);
    {
      std::vector<bool> off(q.nodes.size(), false);
      for (int child : q.nodes[other].children) off[child] = true;
      PropagateDown(q, &off);
      for (size_t i = 0; i < q.nodes.size(); ++i) keep[i] = !off[i];
    }
    std::vector<int> map;
    const Query qp = q.SubQuery(keep, &map);
    XEE_CHECK(map[x] >= 0);
    const std::vector<xml::TagId> tags_p = SubTags(tags, map, qp);
    side.s_oh = OrderCellSum(qp, tags_p, map[x], tags[other], x_is_after, ctx);
    side.s_qp = EstimateNoOrder(qp, tags_p, map[x], ctx);
    const double s_q_x = EstimateNoOrder(q, tags, x, ctx);
    side.s_arrow = side.s_qp > 0 ? side.s_oh * s_q_x / side.s_qp : 0;
    return side;
  };

  const int t = q.target;
  if (t == b) return eval_side(b, a, /*x_is_after=*/true).s_arrow;
  if (t == a) return eval_side(a, b, /*x_is_after=*/false).s_arrow;

  if (IsQueryDescendant(q, b, t)) {
    // Eq. 4: scale the no-order estimate by the order ratio of b.
    const Side side = eval_side(b, a, /*x_is_after=*/true);
    const double s_q_t = EstimateNoOrder(q, tags, t, ctx);
    return side.s_qp > 0 ? s_q_t * side.s_oh / side.s_qp : 0;
  }
  if (IsQueryDescendant(q, a, t)) {
    const Side side = eval_side(a, b, /*x_is_after=*/false);
    const double s_q_t = EstimateNoOrder(q, tags, t, ctx);
    return side.s_qp > 0 ? s_q_t * side.s_oh / side.s_qp : 0;
  }

  // Trunk target: Eq. 5.
  const Side sa = eval_side(a, b, /*x_is_after=*/false);
  const Side sb = eval_side(b, a, /*x_is_after=*/true);
  const double s_q_t = EstimateNoOrder(q, tags, t, ctx);
  return std::min(s_q_t, std::min(sa.s_arrow, sb.s_arrow));
}

Result<double> Estimator::EstimateDocOrder(const Query& q,
                                           const std::vector<xml::TagId>& tags,
                                           RunCtx* ctx) const {
  const OrderConstraint& c = q.orders[0];
  // The rewrite targets the endpoint attached via the descendant axis
  // (created by a following::/preceding:: step). If both endpoints are
  // child-attached, the document-order constraint between siblings is
  // the sibling constraint.
  int d;
  if (q.nodes[c.after].axis == StructAxis::kDescendant) {
    d = c.after;
  } else if (q.nodes[c.before].axis == StructAxis::kDescendant) {
    d = c.before;
  } else {
    Query sib = q;
    sib.orders[0].kind = OrderKind::kSibling;
    return EstimateSiblingOrder(sib, tags, ctx);
  }
  const int ctx_node = d == c.after ? c.before : c.after;
  const int junction = q.nodes[d].parent;
  XEE_CHECK(junction >= 0);
  if (q.nodes[ctx_node].axis != StructAxis::kChild) {
    return Status(StatusCode::kUnsupported,
                  "document-order context step must be child-attached");
  }

  const std::vector<CandList>* join = PathJoin(q, tags, ctx);
  if (join == nullptr) return 0.0;

  // Decode the surviving pids of d into tag chains below the junction
  // (Example 5.3).
  std::set<encoding::TagPath> chains;
  for (const Cand& cand : (*join)[d]) {
    syn_.PidBits(cand.pid).ForEachSetBit([&](size_t enc) {
      for (encoding::TagPath& chain : syn_.table().ChainsBelow(
               static_cast<uint32_t>(enc), tags[junction], tags[d])) {
        chains.insert(std::move(chain));
      }
    });
  }
  if (chains.empty()) return 0.0;

  const bool target_in_d = q.target == d || IsQueryDescendant(q, d, q.target);
  double total = 0;
  for (const encoding::TagPath& chain : chains) {
    if (ctx->CheckCoarse()) break;
    // Rebuild the query with d replaced by an explicit child chain and a
    // sibling constraint between the context step and the chain head.
    Query rw;
    std::vector<xml::TagId> rw_tags;
    rw.root_mode = q.root_mode;
    std::vector<int> map(q.nodes.size(), -1);
    int head = -1;
    for (size_t i = 0; i < q.nodes.size(); ++i) {
      if (static_cast<int>(i) == d) {
        int cur = map[junction];
        for (size_t s = 0; s < chain.size(); ++s) {
          cur = rw.AddNode(syn_.TagName(chain[s]), StructAxis::kChild, cur);
          rw_tags.push_back(chain[s]);
          if (s == 0) head = cur;
        }
        map[i] = cur;
      } else {
        const auto& n = q.nodes[i];
        map[i] = rw.AddNode(n.tag, n.axis,
                            n.parent == -1 ? -1 : map[n.parent]);
        rw_tags.push_back(tags[i]);
      }
    }
    OrderConstraint sc;
    sc.kind = OrderKind::kSibling;
    sc.before = d == c.after ? map[ctx_node] : head;
    sc.after = d == c.after ? head : map[ctx_node];
    rw.orders.push_back(sc);
    rw.target = map[q.target];
    XEE_CHECK(rw.target >= 0);
    total += EstimateSiblingOrder(rw, rw_tags, ctx);
  }

  if (target_in_d) return total;
  // Target elsewhere: the chains partition d's possibilities, so the sum
  // bounds the union; clamp by the no-order estimate.
  return std::min(EstimateNoOrder(q, tags, q.target, ctx), total);
}

}  // namespace xee::estimator
