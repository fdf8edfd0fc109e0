#ifndef XEE_ESTIMATOR_ESTIMATOR_H_
#define XEE_ESTIMATOR_ESTIMATOR_H_

#include <atomic>
#include <cstddef>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "estimator/synopsis.h"
#include "obs/trace.h"
#include "xpath/query.h"

namespace xee::estimator {

/// Per-call resource limits for estimation entry points. Default is
/// unlimited — the historical behavior.
struct EstimateLimits {
  /// Checked cooperatively at step and join boundaries; once passed,
  /// the call abandons its work and returns kDeadlineExceeded. An
  /// already-expired deadline is rejected before any join work runs.
  Deadline deadline;
  /// Optional trace sink: when set, the call's containment tests, join
  /// probes, and fixpoint rounds are added to it on return (the service
  /// layer threads its per-request span here).
  obs::TraceSpans* trace = nullptr;
  /// With `trace` set, also time the path-id joins the call runs (join
  /// memo hits excluded) into trace's join stage. Off, no clock is read.
  bool timed = false;
};

/// Selectivity estimator for XPath expressions with and without order
/// axes (paper Sections 4 and 5), driven entirely by a Synopsis.
///
/// Supported queries: trees of child/descendant name-test steps (with
/// "*" wildcards) and branches, plus order constraints (sibling or
/// scoped document order). One order constraint is the paper's query
/// class (Eqs. 3-5); several constraints compose their correction
/// ratios under an independence assumption (extension, DESIGN.md §5b).
/// Queries mentioning tags absent from the document estimate to 0;
/// wildcards on order-constraint endpoints return kUnsupported.
///
/// Thread-safety: Estimate is const and reentrant — one Estimator over
/// an immutable Synopsis may be shared by any number of threads. The
/// only mutated member is the relaxed-atomic containment-test counter.
/// set_join_to_fixpoint() is configuration and must happen-before
/// concurrent estimation.
class Estimator {
 public:
  /// One surviving candidate: the element tag it stands for (equal to
  /// the query node's tag except under "*" name tests, where one list
  /// mixes tags), its path id, and its summarized frequency.
  struct Cand {
    xml::TagId tag;
    encoding::PidRef pid;
    double freq;
  };
  using CandList = std::vector<Cand>;

  /// The synopsis must outlive the estimator.
  explicit Estimator(const Synopsis& synopsis) : syn_(synopsis) {}
  /// Binding a temporary synopsis would dangle.
  explicit Estimator(Synopsis&&) = delete;

  /// Estimates the selectivity (result cardinality) of `query.target`.
  /// With a finite `limits.deadline`, returns kDeadlineExceeded instead
  /// of an estimate once the deadline passes mid-computation. Each call
  /// runs with its own join memo: the formula walk's subqueries (Q', Q_x,
  /// Q_t of Eqs. 2-5) share one join per distinct structure.
  Result<double> Estimate(const xpath::Query& query,
                          const EstimateLimits& limits = {}) const;

  /// Fault site (common/fault.h) of an estimator allocation failure.
  /// Estimate never fires it; the serving layer fires it before each
  /// estimate it computes and fails that request with kInternal, for
  /// chaos-testing its partial-failure handling.
  static constexpr std::string_view kAllocFaultSite = "estimator.alloc";

  /// Number of tag-path tests performed by path joins since
  /// construction: one per (parent-tag group, child candidate) that a
  /// half-sweep tests (DESIGN.md §13), not one per candidate pair. The
  /// bottom-up half tests every child against every group; the top-down
  /// half tests only under a "*" parent, and only children whose pid a
  /// group's surviving cover rows hold. Exposed for the join ablation
  /// bench.
  size_t containment_tests() const {
    return containment_tests_.load(std::memory_order_relaxed);
  }

  /// Path-join schedule. Off (the default), each join is the two-pass
  /// full reducer: one bottom-up half-sweep per edge (leaf to root),
  /// then one top-down half-sweep per edge (root to leaf). On, the same
  /// two halves run edge by edge in round-robin rounds until a round
  /// removes nothing — ablation A2 in DESIGN.md and the differential
  /// reference; both give the same survivor lists on tree queries. Not
  /// thread-safe; configure before sharing the estimator.
  void set_join_to_fixpoint(bool v) { join_to_fixpoint_ = v; }

 private:
  /// Call-scoped memo of PathJoin results, defined in the .cc. The
  /// formula walk for branch and order queries re-joins overlapping
  /// truncated subqueries (Q', Q_x, Q_t share most of their edges);
  /// within one Estimate call a join is a pure function of the
  /// subquery's structure — root mode, then (parent, axis, resolved tag
  /// id) per node — so the memo keys on exactly that flat tuple and
  /// collapses the duplicates. Entries live in a deque: NodeSelectivity
  /// holds survivor-list references across nested PathJoin calls, and
  /// appending must not move them.
  struct JoinMemo;

  /// Per-call deadline state threaded through the recursive estimation
  /// helpers. Once `expired` latches, joins stop and the public entry
  /// point replaces whatever partial value bubbled up with
  /// kDeadlineExceeded — intermediate zeros are never observable.
  struct RunCtx {
    Deadline deadline;
    bool expired = false;
    /// The call's join memo (never null).
    JoinMemo* join_memo = nullptr;
    /// Time the joins into `join_ns` (EstimateLimits::timed).
    bool timed = false;
    /// Work counters, accumulated as plain integers on the hot path and
    /// flushed once per public entry point (to the estimator's member
    /// atomic, the global obs registry, and limits.trace when set).
    uint64_t containment_tests = 0;
    uint64_t join_probes = 0;
    uint64_t fixpoint_rounds = 0;
    uint64_t join_ns = 0;

    /// Step, edge and round-boundary check: reads the clock (cheap, but
    /// not free) unless the deadline is infinite or expiry already
    /// latched.
    bool CheckCoarse();
  };

  /// Estimate's body over a validated query whose tag ids `tags` (one
  /// per node) are resolved; `ctx` carries the deadline and the join
  /// memo (never null).
  Result<double> EstimateImpl(const xpath::Query& query,
                              const std::vector<xml::TagId>& tags,
                              RunCtx* ctx) const;

  /// Drains ctx's work counters into the member atomic, the global obs
  /// registry, and `limits.trace` (when set). Called exactly once per
  /// Estimate call that passed its up-front deadline and validity
  /// checks, on every exit path after them.
  void FlushCounters(const RunCtx& ctx, const EstimateLimits& limits) const;

  /// Resolves each node's tag to its id (kWildcardTag for "*") into
  /// `tags`. Returns false when some tag does not occur in the document.
  /// Estimate resolves once per call; subqueries carry the ids over
  /// through their node maps.
  bool ResolveTags(const xpath::Query& q, std::vector<xml::TagId>* tags) const;

  /// Runs the path-id join of Section 4 through ctx->join_memo and
  /// returns the per-node survivor lists, owned by the memo. Returns
  /// null when some node's candidate list becomes empty (estimate 0) or
  /// the deadline expires.
  const std::vector<CandList>* PathJoin(const xpath::Query& q,
                                        const std::vector<xml::TagId>& tags,
                                        RunCtx* ctx) const;

  /// The uncached join body behind PathJoin's memo check: candidate
  /// lists from the p-histograms' buckets, then the semi-join reduction
  /// under the configured schedule.
  bool PathJoinImpl(const xpath::Query& q, const std::vector<xml::TagId>& tags,
                    std::vector<CandList>* cands, RunCtx* ctx) const;

  static double FreqSum(const CandList& l);

  /// Selectivity of node `target` of `q` ignoring q's order constraints
  /// and target (Theorem 4.1 + Eq. 2 generalized to arbitrary branch
  /// trees, see DESIGN.md §2). Neither the join nor the formulas read
  /// them, so callers pass the query they hold, with no retargeted or
  /// order-free copy.
  double EstimateNoOrder(const xpath::Query& q,
                         const std::vector<xml::TagId>& tags, int target,
                         RunCtx* ctx) const;

  /// Recursive branch-part estimation given a completed join on `q`.
  double NodeSelectivity(const xpath::Query& q,
                         const std::vector<xml::TagId>& tags,
                         const std::vector<CandList>& join, int node,
                         RunCtx* ctx) const;

  /// Queries with exactly one sibling-order constraint (Eqs. 3-5).
  double EstimateSiblingOrder(const xpath::Query& q,
                              const std::vector<xml::TagId>& tags,
                              RunCtx* ctx) const;

  /// Queries with one document-order constraint: rewrite into
  /// sibling-order queries via the encoding table (Section 5,
  /// Example 5.3) and combine.
  Result<double> EstimateDocOrder(const xpath::Query& q,
                                  const std::vector<xml::TagId>& tags,
                                  RunCtx* ctx) const;

  /// The o-histogram-backed selectivity S_arrowQ'(x) of a sibling
  /// endpoint x: sum of order cells over x's pids surviving the join on
  /// q_prime (x's branch kept whole, the other branch truncated), whose
  /// tag ids are `tags`; `other_tag` is the other endpoint's tag.
  double OrderCellSum(const xpath::Query& q_prime,
                      const std::vector<xml::TagId>& tags, int x_in_prime,
                      xml::TagId other_tag, bool x_is_after,
                      RunCtx* ctx) const;

  const Synopsis& syn_;
  bool join_to_fixpoint_ = false;
  /// Instrumentation only; relaxed increments keep const estimation
  /// calls safe to run concurrently.
  mutable std::atomic<size_t> containment_tests_ = 0;
};

}  // namespace xee::estimator

#endif  // XEE_ESTIMATOR_ESTIMATOR_H_
