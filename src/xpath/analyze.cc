#include "xpath/analyze.h"

#include <vector>

namespace xee::xpath {

namespace {

using encoding::kWildcardTag;

/// True when the baseline estimator is guaranteed to answer exactly 0.0
/// (never kUnsupported) for a structurally unsatisfiable `q`, assuming
/// the synopsis carries order statistics whenever `q` has constraints.
/// Mirrors the estimator's precedence: zero- and multi-constraint paths
/// reduce to EstimateNoOrder (multi-constraint returns 0.0 as soon as
/// the structural factor is 0, before any per-constraint recursion); the
/// single-constraint path hits kUnsupported first on wildcard endpoints,
/// a wildcard junction, or a document-order pair with both endpoints
/// descendant-attached.
bool EstimatorAnswersZero(const Query& q) {
  if (q.orders.size() != 1) return true;
  const OrderConstraint& oc = q.orders[0];
  const QueryNode& before = q.nodes[oc.before];
  const QueryNode& after = q.nodes[oc.after];
  if (before.tag == "*" || after.tag == "*") return false;
  if (oc.kind == OrderKind::kDocument) {
    if (q.nodes[before.parent].tag == "*") return false;
    if (before.axis == StructAxis::kDescendant &&
        after.axis == StructAxis::kDescendant) {
      return false;
    }
  }
  return true;
}

}  // namespace

Analysis AnalyzeSatisfiability(const Query& query, const AnalyzerView& view) {
  Analysis out;
  if (!query.Validate().ok()) return out;

  // P1: a concrete name test naming no tag of the document. The
  // estimator's tag resolution runs before everything else and maps this
  // to 0.0 unconditionally, so the verdict is always prune-safe. Every
  // node's id (kWildcardTag for "*") is kept for P3 and P2.
  std::vector<xml::TagId> ids(query.nodes.size());
  for (size_t i = 0; i < query.nodes.size(); ++i) {
    const std::string& tag = query.nodes[i].tag;
    if (tag == "*") {
      ids[i] = kWildcardTag;
      continue;
    }
    const auto it = view.tag_ids->find(tag);
    if (it == view.tag_ids->end()) {
      return {SatVerdict::kUnsat, "unknown-tag", /*prune_safe=*/true};
    }
    ids[i] = it->second;
  }

  // P3: an absolute first step that is not the document root.
  if (query.root_mode == RootMode::kAbsolute && ids[0] != kWildcardTag &&
      ids[0] != view.root_tag) {
    return {SatVerdict::kUnsat, "root-mismatch", EstimatorAnswersZero(query)};
  }

  // P2: an edge whose tag pair occurs on no encoded root-to-leaf path
  // under the required axis.
  for (size_t i = 1; i < query.nodes.size(); ++i) {
    const QueryNode& node = query.nodes[i];
    if (!view.index->Below(ids[node.parent], ids[i],
                           node.axis == StructAxis::kChild)) {
      return {SatVerdict::kUnsat, "unreachable-pair",
              EstimatorAnswersZero(query)};
    }
  }

  return out;
}

}  // namespace xee::xpath
