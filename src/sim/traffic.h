#ifndef XEE_SIM_TRAFFIC_H_
#define XEE_SIM_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "service/service.h"

namespace xee::sim {

/// Workload-mix knobs: who asks (Zipf tenant skew), what they ask
/// (Zipf over grammar-generated query families, alias respellings,
/// outright garbage), and how patient they are (deadline mix).
struct TrafficModel {
  /// Zipf exponent over the registered tenants (0 = uniform).
  double tenant_zipf_s = 1.1;

  /// Query families pre-generated per tenant from the fuzz grammar
  /// (src/fuzz/query_gen) over the synopsis's tag alphabet; each
  /// request Zipf-picks a family.
  size_t families_per_tenant = 64;
  double query_zipf_s = 1.0;

  /// Probability that a request respells its family — inserting
  /// explicit child::/descendant:: axes that parse to the *same*
  /// canonical plan under a *different* exact cache key. The
  /// cache-adversarial knob: high alias rates multiply exact-key
  /// entries per canonical plan, stressing eviction and the
  /// canonical-hit path instead of the warm exact-hit path.
  double alias_prob = 0.0;

  /// Probability that a request respells its family *semantically*: a
  /// "//"-headed query is re-issued as "/<root_name>//..." — a different
  /// canonical query, so it is estimated and cached under its own
  /// answer-cache key (same number, one more entry per family): the
  /// intel alias-storm scenario's cache-pressure knob. Guarded by
  /// `> 0 &&` in the source so a zero probability consumes no rng draws
  /// and existing scenario fingerprints stay bit-identical.
  double semantic_alias_prob = 0.0;
  /// Document root tag used by semantic aliasing. The simulator fills
  /// this from the dataset at run time; empty disables the respelling.
  std::string root_name;

  /// Probability of a syntactically broken query (parse-error traffic).
  double garbage_prob = 0.0;

  /// Probability of addressing a tenant that was never registered
  /// (kNotFound traffic).
  double unknown_tenant_prob = 0.0;

  /// Deadline mix: infinite with p_infinite, already expired with
  /// p_expired (deterministic O(1) rejects), else finite at
  /// finite_ms. Finite deadlines are kept generous (seconds, against
  /// microsecond queries) so real-clock jitter cannot flip outcomes —
  /// mid-run expiry is the chaos scheduler's job (deadline.expire),
  /// which is deterministic.
  double p_infinite = 0.9;
  double p_expired = 0.0;
  uint64_t finite_ms = 2000;
};

/// One seeded request stream: fixes the tenant names and pre-generates
/// the family table at construction, then mints QueryRequests one draw
/// at a time. Equal (model, tenants, tags, seed) produce identical
/// request sequences.
class TrafficSource {
 public:
  TrafficSource(const TrafficModel& model,
                std::vector<std::string> tenant_names,
                const std::vector<std::string>& tags, Rng rng);

  service::QueryRequest Make();

  /// The family table, exposed so tests can assert the alias invariant
  /// (every respelling canonicalizes to its family's plan).
  const std::vector<std::vector<std::string>>& families() const {
    return families_;
  }

  /// Respells `query` without changing its canonical plan: inserts
  /// explicit `child::` after single-`/` separators and `descendant::`
  /// after `//`, skipping wildcard and explicitly-axised steps. Public
  /// (and static) for the alias-invariant test.
  static std::string AliasSpelling(Rng& rng, const std::string& query);

  /// Respells `query` as the semantically equal "/<root_name>" + query
  /// when it starts with "//" followed by a plain name other than
  /// root_name (every element except the root has the root as a proper
  /// ancestor, so anchoring under the root changes nothing — unless the
  /// first step could itself bind the root, which the guards exclude).
  /// Unlike AliasSpelling the result is a *different canonical query*
  /// with its own answer-cache entry. Returns `query` unchanged when the
  /// guards fail.
  static std::string SemanticAliasSpelling(const std::string& root_name,
                                           const std::string& query);

 private:
  TrafficModel model_;
  std::vector<std::string> tenants_;
  std::vector<std::vector<std::string>> families_;  ///< [tenant][family]
  Rng rng_;
};

}  // namespace xee::sim

#endif  // XEE_SIM_TRAFFIC_H_
