#ifndef XEE_XPATH_ANALYZE_H_
#define XEE_XPATH_ANALYZE_H_

#include <string>
#include <unordered_map>

#include "encoding/join_index.h"
#include "xpath/query.h"

namespace xee::xpath {

/// Static satisfiability pruning over the synopsis's tag-pair relation
/// (DESIGN.md §15). O(plan): the point is to answer provably empty
/// queries before the path join and the estimation formulas run.

/// Outcome of the satisfiability pass.
enum class SatVerdict {
  /// Nothing provable; estimate normally.
  kUnknown,
  /// Provably empty: no document whose path structure the view describes
  /// can match this query, so its exact count is 0.
  kUnsat,
};

struct Analysis {
  SatVerdict verdict = SatVerdict::kUnknown;
  /// Static string naming the rule that fired ("" when kUnknown).
  const char* reason = "";
  /// True when, additionally, the baseline estimator is guaranteed to
  /// answer exactly 0.0 — not kUnsupported — for this query against any
  /// synopsis carrying order statistics. The service prunes only such
  /// verdicts (and only when the snapshot has order statistics or the
  /// query none), keeping the analyzer invisible in outcome bits.
  bool prune_safe = false;
};

/// What the analyzer reads from a synopsis: its join index (the tag-pair
/// relation), its tag-name map and its root tag. All borrowed; the view
/// must not outlive the synopsis.
struct AnalyzerView {
  const encoding::PidJoinIndex* index = nullptr;
  const std::unordered_map<std::string, xml::TagId>* tag_ids = nullptr;
  xml::TagId root_tag = 0;
};

/// Satisfiability rules, in order:
///   P1 a concrete name test that is not a tag of the document;
///   P3 an absolute first step whose tag is not the root tag;
///   P2 an edge whose (parent tag, child tag, axis) pair occurs on no
///      encoded root-to-leaf path (wildcard-aware).
/// P1 resolves every concrete name once; P3 and P2 read the ids.
/// Soundness: every ancestor/descendant element pair lies on one encoded
/// path, so the join index's pair relation over-approximates the
/// document's, and kUnsat implies an exact count of 0. Invalid queries
/// (Validate fails) analyze to kUnknown.
Analysis AnalyzeSatisfiability(const Query& query, const AnalyzerView& view);

}  // namespace xee::xpath

#endif  // XEE_XPATH_ANALYZE_H_
