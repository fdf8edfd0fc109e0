#ifndef XEE_FUZZ_FUZZ_H_
#define XEE_FUZZ_FUZZ_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "estimator/synopsis.h"
#include "eval/exact_evaluator.h"
#include "xml/tree.h"

namespace xee::fuzz {

/// Deterministic, dependency-free fuzzing and differential-oracle
/// subsystem (no libFuzzer; every run is a pure function of the seed).
///
/// Three generators feed three oracle families:
///
///   generators                      oracles
///   ----------                      -------
///   (a) grammar-based XPath         crash/Status cleanliness: every
///       strings over a synopsis's       input returns Result, never UB
///       tag alphabet                    (run under XEE_SANITIZE builds)
///   (b) byte/structure mutants of   metamorphic equivalence, bitwise:
///       serialized synopses             Estimate(q) == Estimate(canon(q)),
///   (c) malformed-XML mutants of        Deserialize/Serialize
///       datagen output                  byte-identity, Write/Parse
///                                       idempotence
///                                   paper-semantics monotonicity vs
///                                       eval/ExactEvaluator on small
///                                       documents (predicates shrink,
///                                       '//' covers '/', order
///                                       constraints shrink)
///
/// The service layer rides along: EstimateBatch is fuzzed through the
/// answer cache and must match the bare estimator bit-for-bit, cold and
/// warm. Every find becomes a corpus entry under tests/corpus/, replayed
/// as a regression test by fuzz_test.

/// One oracle violation. The harness never aborts on a violation; it
/// records a finding with a printable reproducer and keeps going.
struct Finding {
  std::string generator;  ///< "query", "synopsis", "xml", "service"
  std::string oracle;     ///< violated invariant, e.g. "canonical-bitwise"
  std::string detail;     ///< human-readable mismatch description
  std::string input;      ///< reproducer (hex-encoded for binary inputs)
};

/// Aggregate outcome of a fuzz run.
struct Report {
  size_t iterations = 0;
  size_t parse_ok = 0;            ///< inputs the front door accepted
  size_t parse_rejected = 0;      ///< inputs cleanly rejected with a Status
  size_t estimates_checked = 0;   ///< estimator calls cross-checked
  size_t monotonic_checked = 0;   ///< exact-evaluator monotonicity probes
  size_t roundtrips_checked = 0;  ///< serialize/deserialize + render cycles
  std::vector<Finding> findings;

  bool ok() const { return findings.empty(); }
  void Merge(const Report& other);
  /// One-line counters plus one line per finding.
  std::string Summary() const;
};

/// Knobs for a fuzz run. Equal options produce identical reports.
struct FuzzOptions {
  uint64_t seed = 1;
  size_t iterations = 1000;
  /// Fraction of grammar-generated query strings additionally run
  /// through the byte mutator before parsing (error-path coverage).
  double mutate_query_prob = 0.25;
  /// Fraction of query inputs that are raw random bytes instead of
  /// grammar output.
  double random_query_prob = 0.1;
  /// Byte edits applied per synopsis/XML mutant (1..max).
  size_t max_edits = 6;
};

/// Grammar-based XPath query string over `tags` (must be non-empty):
/// chains, branch predicates, value predicates (with escapes), explicit
/// and order axes, '{t}' target markers, wildcards, and occasional
/// unknown tags. Mostly parseable on purpose; the parser is the judge.
std::string GenerateQueryString(Rng& rng, const std::vector<std::string>& tags);

/// A checked-in fuzz input. File format (see tests/corpus/):
///
///   # comment lines
///   kind: query | xml | synopsis
///   expect: accept | reject        (optional; default: any)
///   ---
///   <payload: raw text for query/xml, hex bytes for synopsis>
///
/// One trailing newline of a raw payload is stripped; hex payloads may
/// contain arbitrary whitespace.
struct CorpusEntry {
  enum class Kind { kQuery, kXml, kSynopsis };
  enum class Expect { kAny, kAccept, kReject };
  std::string name;  ///< file name, for finding reports
  Kind kind = Kind::kQuery;
  Expect expect = Expect::kAny;
  std::string data;  ///< decoded payload bytes
};

/// Parses one corpus file's contents. kParseError on a malformed header
/// or bad hex.
Result<CorpusEntry> ParseCorpusEntry(const std::string& name,
                                     std::string_view contents);

/// Lowercase hex codec used for binary corpus payloads.
std::string HexEncode(std::string_view bytes);
Result<std::string> HexDecode(std::string_view hex);

/// The fuzz harness: a fixed set of small documents (the paper's Figure
/// 1 example plus scaled-down datagen datasets) with prebuilt synopses
/// (exact, coarse-bucketed, order-free), exact evaluators, and
/// serialized blobs. Construction is deterministic; all Run* entry
/// points are const and independent.
class Harness {
 public:
  Harness();
  ~Harness();

  /// Generator (a): grammar/mutated/random query strings through parse,
  /// canonicalize, compile and estimate, with the metamorphic and
  /// monotonicity oracle batteries.
  Report RunQueryFuzz(const FuzzOptions& options) const;
  /// Generator (b): mutated synopsis blobs through Deserialize, with
  /// byte-identity re-serialization and probe estimates on survivors.
  Report RunSynopsisFuzz(const FuzzOptions& options) const;
  /// Generator (c): mutated XML through ParseXml, with Write/Parse
  /// idempotence and synopsis construction + estimates on survivors.
  Report RunXmlFuzz(const FuzzOptions& options) const;
  /// Service battery: EstimateBatch through the answer cache (cold, warm,
  /// after invalidation) against the bare estimator, bit-for-bit.
  Report RunServiceFuzz(const FuzzOptions& options) const;
  /// Static-analyzer battery (xpath/analyze.h): grammar queries plus
  /// programmatic unsat mutations (unknown tags, absolute-root
  /// mismatches, reversed order constraints) against the exact
  /// evaluator. Oracles: every kUnsat verdict exact-counts to 0 on the
  /// bed's document (prune-unsound); every prune_safe verdict estimates
  /// to bitwise 0.0 (prune-bitwise).
  Report RunAnalyzeFuzz(const FuzzOptions& options) const;
  /// Delta battery: randomized mutation streams (sibling clones,
  /// novel-tag inserts, subtree deletes) through LiveSynopsis against a
  /// scratch rebuild of the materialized document. Oracles: zero
  /// charged patch error implies a bit-identical synopsis; charged
  /// error bounds the probe-estimate gap; ResetToBase restores
  /// exactness; a delta.corrupt-torn batch is rejected without moving
  /// the document. Resets the global FaultInjector on entry and exit.
  Report RunDeltaFuzz(const FuzzOptions& options) const;
  /// Chaos battery: the service under deterministic fault injection
  /// (forced deadline expiry, allocation failures, blob bit-rot),
  /// expired/tight/infinite deadline mixes and admission pressure.
  /// Oracles are the serving invariants — the status surface stays
  /// closed, shed <=> kOverloaded with a retry hint, expired requests
  /// never serve values, degradation respects allow_degraded, full
  /// fidelity returns bit-for-bit once faults clear, trace stage spans
  /// sum within wall time on both the head-sampled and tail-retained
  /// rings, and no trace seq is retained on both rings. Any finding is
  /// accompanied by a flight-recorder dump that must itself re-parse as
  /// strict JSON. Resets the global FaultInjector on entry and exit.
  Report RunChaosFuzz(const FuzzOptions& options) const;
  /// Export battery: adversarial query strings and registry names
  /// (quoting characters, control bytes, invalid UTF-8) driven through
  /// a fully-sampled service — trace rings, per-tenant rows, the
  /// time-series store, the SLO engine, the flight recorder, and the
  /// shadow accuracy pipeline all capture the hostile strings — then
  /// every JSON surface (STATSZ, TRACEZ, ACCZ, healthz, TSZ, ALERTZ,
  /// FLIGHTZ) is re-parsed by the strict common/json parser. Oracle:
  /// the exporters always emit valid JSON, whatever bytes they were
  /// fed.
  Report RunExportFuzz(const FuzzOptions& options) const;
  /// All of the above except chaos, splitting options.iterations
  /// roughly 8:4:6:4:2:2:1 across query/analyze/synopsis/xml/service/
  /// delta/export (chaos mutates the global fault injector, so it runs
  /// only when asked for).
  Report RunAll(const FuzzOptions& options) const;

  /// Replays one corpus entry through the matching oracle battery and
  /// checks its accept/reject expectation.
  Report ReplayEntry(const CorpusEntry& entry) const;
  /// Replays every "*.corpus" file under `dir` (kNotFound if the
  /// directory cannot be read; files that fail to parse become
  /// findings).
  Result<Report> ReplayCorpusDir(const std::string& dir) const;

 private:
  struct TestBed;

  void CheckQueryString(const TestBed& bed, Rng& rng, const std::string& raw,
                        Report* rep) const;
  void CheckSynopsisBlob(const TestBed& bed, const std::string& blob,
                         Report* rep) const;
  void CheckXmlString(const std::string& xml_text, Report* rep) const;
  /// Derives monotonic variants of `q` and compares exact counts.
  void CheckMonotonicity(const TestBed& bed, Rng& rng, const xpath::Query& q,
                         Report* rep) const;
  /// Runs the analyzer-oracle battery on one (valid) query.
  void CheckAnalyze(const TestBed& bed, const xpath::Query& q,
                    Report* rep) const;

  std::vector<std::unique_ptr<TestBed>> beds_;
};

}  // namespace xee::fuzz

#endif  // XEE_FUZZ_FUZZ_H_
