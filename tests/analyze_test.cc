// Test battery for satisfiability pruning (DESIGN.md §15):
//
//  - Satisfiability prunes per rule (P1 unknown tag, P2 impossible
//    edge, P3 absolute-root mismatch), each kUnsat verdict
//    cross-checked against the exact evaluator (count must be 0) and
//    each prune_safe verdict against the estimator (bitwise +0.0) — the
//    soundness contract the serving prune relies on.
//  - Service surface: the pruned outcome (flag, exactly 0.0, label
//    retention on exact/canonical hits), the analyzer counters, semantic
//    aliases keeping their own entries with the estimator's bits, epoch
//    bumps killing entries exactly once and re-validating prunes, the
//    pruning service matching the bare estimator bit for bit, and a
//    concurrent EstimateBatch slice over shared pruned answers (the TSan
//    build turns races into failures).
//
// The tag-pair relation P2 reads (PidJoinIndex::Below) is pinned in
// join_test.cc.

#include "xpath/analyze.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "estimator/estimator.h"
#include "estimator/synopsis.h"
#include "eval/exact_evaluator.h"
#include "paper_fixture.h"
#include "service/service.h"
#include "workload/workload.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xee {
namespace {

using xpath::Analysis;
using xpath::AnalyzerView;
using xpath::Query;
using xpath::SatVerdict;
using xpath::StructAxis;

Query Parse(const std::string& s) { return xpath::ParseXPath(s).value(); }

AnalyzerView ViewOf(const estimator::Synopsis& syn) {
  return {&syn.join_index(), &syn.tag_ids(), syn.root_tag()};
}

bool BitwiseZero(double v) {
  const double zero = 0.0;
  return std::memcmp(&v, &zero, sizeof v) == 0;
}

// Bitwise result equality: identical doubles (memcmp, so -0.0 != +0.0
// and the arithmetic must literally agree) or identical status codes.
void ExpectSameBits(const Result<double>& a, const Result<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok())
      << what << ": " << (a.ok() ? b : a).status().ToString();
  if (a.ok()) {
    const double x = a.value(), y = b.value();
    EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0)
        << what << ": " << x << " vs " << y;
  } else {
    EXPECT_EQ(a.status().code(), b.status().code()) << what;
  }
}

// --- shared fixtures --------------------------------------------------

// One bed: a document with an exact synopsis, an exact evaluator, and
// a query corpus (workload classes for ssplays, the hand-written
// strings for the paper document).
struct Bed {
  xml::Document doc;
  std::unique_ptr<estimator::Synopsis> exact;
  std::unique_ptr<eval::ExactEvaluator> eval;
  std::vector<Query> queries;

  void BuildSynopses() {
    exact = std::make_unique<estimator::Synopsis>(
        estimator::Synopsis::Build(doc, {}));
    eval = std::make_unique<eval::ExactEvaluator>(doc);
  }
};

// Spellings over the paper alphabet: one unsat query per prune rule,
// near misses that must stay satisfiable, and semantic aliases.
const char* kPaperCorpus[] = {
    "/Root/A/B",      "/Root/A/B/D",  "//B/D",
    "//A//E",         "//C//E",       "//Root/A",
    "/Root//B",       "//Root//B",    "//B",
    "//A[B/D]/C/E",   "//A[/C/F]/B",  "//*/B",
    "//A/B/following-sibling::C",     "//A/C/following::B",
    "//A/B/following-sibling::no-such-tag",
    "//A/B/no-such-tag", "/A/B",      "//C/D",
    "//D//A",         "//F/E",
};

const Bed& PaperBed() {
  static const Bed* bed = [] {
    auto* b = new Bed;
    b->doc = testing::MakePaperDocument();
    b->BuildSynopses();
    for (const char* s : kPaperCorpus) {
      auto q = xpath::ParseXPath(s);
      if (q.ok()) b->queries.push_back(std::move(q).value());
    }
    return b;
  }();
  return *bed;
}

const Bed& SsplaysBed() {
  static const Bed* bed = [] {
    auto* b = new Bed;
    datagen::GenOptions gopt;
    gopt.scale = 0.03;
    b->doc = datagen::GenerateByName("ssplays", gopt).value();
    b->BuildSynopses();
    workload::WorkloadOptions wopt;
    wopt.simple_count = 40;
    wopt.branch_count = 40;
    const workload::Workload w = workload::GenerateWorkload(b->doc, wopt);
    for (const auto* list : {&w.simple, &w.branch, &w.order_branch_target,
                             &w.order_trunk_target}) {
      for (const workload::WorkloadQuery& wq : *list) {
        b->queries.push_back(wq.query);
      }
    }
    return b;
  }();
  return *bed;
}

// --- satisfiability rules ---------------------------------------------

Analysis Analyze(const std::string& s) {
  return xpath::AnalyzeSatisfiability(Parse(s), ViewOf(*PaperBed().exact));
}

TEST(AnalyzeSat, UnknownTagPrunes) {  // P1
  const Analysis a = Analyze("//A/B/no-such-tag");
  EXPECT_EQ(a.verdict, SatVerdict::kUnsat);
  EXPECT_STREQ(a.reason, "unknown-tag");
  EXPECT_TRUE(a.prune_safe);  // the estimator resolves tags first too
}

TEST(AnalyzeSat, ImpossibleEdgePrunes) {  // P2
  // "//A/D": D occurs below A, but never directly. The last two put a
  // wildcard below a leaf tag.
  for (const char* s : {"//C/D", "//D//A", "//F/E", "//B[C]/D", "//A/D",
                        "//F/*", "//D//*"}) {
    const Analysis a = Analyze(s);
    EXPECT_EQ(a.verdict, SatVerdict::kUnsat) << s;
    EXPECT_STREQ(a.reason, "unreachable-pair") << s;
    EXPECT_TRUE(a.prune_safe) << s;
  }
}

TEST(AnalyzeSat, AbsoluteRootMismatchPrunes) {  // P3
  const Analysis a = Analyze("/A/B");
  EXPECT_EQ(a.verdict, SatVerdict::kUnsat);
  EXPECT_STREQ(a.reason, "root-mismatch");
  EXPECT_TRUE(a.prune_safe);
}

TEST(AnalyzeSat, PruneSafetyMirrorsTheEstimatorsPrecedence) {
  const estimator::Estimator est(*PaperBed().exact);

  // An unknown tag zeroes the estimate before the unsupported-shape
  // dispatch ever runs, so P1 is prune-safe even with a '*' order
  // endpoint in the query.
  const Analysis p1 = Analyze("//A/*/following::no-such-tag");
  EXPECT_EQ(p1.verdict, SatVerdict::kUnsat);
  EXPECT_TRUE(p1.prune_safe);
  const Result<double> e1 = est.Estimate(Parse("//A/*/following::no-such-tag"));
  ASSERT_TRUE(e1.ok());
  EXPECT_TRUE(BitwiseZero(e1.value()));

  // A structural prune (P2: F is a leaf) on the same shape is NOT
  // prune-safe: all tags resolve, so the estimator reaches the
  // single-order dispatch and refuses the '*' endpoint — pruning to 0.0
  // would upgrade that error into an answer.
  const Analysis p2 = Analyze("//F/*/following::D");
  EXPECT_EQ(p2.verdict, SatVerdict::kUnsat);
  EXPECT_FALSE(p2.prune_safe);
  EXPECT_FALSE(est.Estimate(Parse("//F/*/following::D")).ok());
}

TEST(AnalyzeSat, SatisfiableQueriesStayUnknown) {
  for (const char* s :
       {"/Root/A/B/D", "//B/E", "//A[/C/F]/B", "//*//E", "//A//E",
        "//A/B/following-sibling::C", "//A/C/following::B"}) {
    EXPECT_EQ(Analyze(s).verdict, SatVerdict::kUnknown) << s;
  }
}

TEST(AnalyzeSat, InvalidQueriesAnalyzeUnknown) {
  Query q;
  q.AddNode("A", StructAxis::kChild, -1);
  q.target = 5;  // out of range: Validate fails, the analyzer stays out
  const Analysis a = xpath::AnalyzeSatisfiability(q, ViewOf(*PaperBed().exact));
  EXPECT_EQ(a.verdict, SatVerdict::kUnknown);
}

// The soundness contract behind the serving prune: every kUnsat verdict
// exact-evaluates to zero matches, and every prune_safe verdict is one
// the baseline estimator answers bitwise +0.0 (so serving the pruned 0
// is indistinguishable from running the pipeline).
TEST(AnalyzeSat, UnsatVerdictsCountZeroAndPruneSafeOnesEstimateZero) {
  const Bed& bed = PaperBed();
  const AnalyzerView view = ViewOf(*bed.exact);
  const estimator::Estimator est(*bed.exact);
  size_t unsat = 0;
  for (const Query& q : bed.queries) {
    const Analysis a = xpath::AnalyzeSatisfiability(q, view);
    if (a.verdict != SatVerdict::kUnsat) continue;
    ++unsat;
    const std::string name = q.ToString();
    const Result<uint64_t> count = bed.eval->Count(q);
    ASSERT_TRUE(count.ok()) << name;
    EXPECT_EQ(count.value(), 0u) << "unsound prune: " << name;
    if (a.prune_safe) {
      const Result<double> e = est.Estimate(q);
      ASSERT_TRUE(e.ok()) << name;
      EXPECT_TRUE(BitwiseZero(e.value())) << name << " -> " << e.value();
    }
  }
  EXPECT_GE(unsat, 4u);  // the corpus plants one query per prune rule
}

// --- service surface --------------------------------------------------

std::shared_ptr<const estimator::Synopsis> SharedPaperSynopsis() {
  static const auto* syn = new std::shared_ptr<const estimator::Synopsis>(
      std::make_shared<const estimator::Synopsis>(
          estimator::Synopsis::Build(testing::MakePaperDocument(), {})));
  return *syn;
}

TEST(ServiceIntel, PrunedOutcomeServesExactlyZeroAndKeepsItsLabel) {
  service::EstimationService svc({.threads = 1});
  svc.registry().Register("p", SharedPaperSynopsis());
  for (int pass = 0; pass < 2; ++pass) {  // miss path, then exact hit
    const service::EstimateOutcome out = svc.Estimate("p", "//A/B/no-such-tag");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(BitwiseZero(out.value()));
    EXPECT_TRUE(out.pruned);
    EXPECT_FALSE(out.degraded);
    EXPECT_FALSE(out.shed);
  }
  // A different spelling of the same canonical query: the pruned label
  // follows the shared canonical plan.
  const service::EstimateOutcome alias =
      svc.Estimate("p", "//A[C][B]/no-such-tag");
  (void)svc.Estimate("p", "//A[B][C]/no-such-tag");
  EXPECT_TRUE(alias.ok() && alias.pruned && BitwiseZero(alias.value()));
  // A satisfiable query is untouched.
  EXPECT_FALSE(svc.Estimate("p", "//A/B").pruned);
}

// Scripted request sequence with every analyzer counter pinned: prunes
// answered on the miss path, the exact-hit path, and the canonical-hit
// path all carry the label. In the "//B" family, the syntactic alias
// "//descendant::B" shares the family's entry; the root-anchored
// semantic aliases "/Root//B" and "//Root//B" are different canonical
// queries, so each is estimated into an entry of its own, and the
// estimator gives all of them the same bits.
TEST(ServiceIntel, CountersFollowTheAnswerAndAliasFamiliesShareOneEntry) {
  service::EstimationService svc({.threads = 1});
  svc.registry().Register("p", SharedPaperSynopsis());
  const estimator::Estimator est(*SharedPaperSynopsis());
  const Result<double> direct = est.Estimate(Parse("//B"));

  (void)svc.Estimate("p", "//A/B/no-such-tag");   // prune, miss path
  (void)svc.Estimate("p", "//A/B/no-such-tag");   // prune, exact hit
  (void)svc.Estimate("p", "//A[B][C]/no-such-tag");  // prune, new canonical
  (void)svc.Estimate("p", "//A[C][B]/no-such-tag");  // prune, canonical hit
  service::ServiceStatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.analyzer_pruned, 4u);
  EXPECT_EQ(s.analyzer_checked, 3u);  // the exact hit skipped the analyzer
  EXPECT_EQ(s.misses, 0u);            // no prune ever compiled a plan
  EXPECT_EQ(s.exact_hits, 1u);

  ExpectSameBits(svc.Estimate("p", "//B").estimate, direct, "//B");
  ExpectSameBits(svc.Estimate("p", "//descendant::B").estimate, direct,
                 "syntactic alias");
  for (const char* semantic : {"/Root//B", "//Root//B"}) {
    const Result<double> own = est.Estimate(Parse(semantic));
    ExpectSameBits(own, direct, semantic);
    ExpectSameBits(svc.Estimate("p", semantic).estimate, own, semantic);
  }
  s = svc.Stats();
  EXPECT_EQ(s.misses, 3u);          // "//B" and each semantic alias
  EXPECT_EQ(s.canonical_hits, 1u);  // the syntactic alias
  // 5 canonical entries (2 pruned, 3 estimated) + 7 exact-string aliases.
  EXPECT_EQ(s.cache_entries, 12u);
  EXPECT_EQ(s.analyzer_checked, 7u);
}

TEST(ServiceIntel, EpochBumpKillsSharedEntriesOnceAndRevalidatesPrunes) {
  service::EstimationService svc({.threads = 1});
  svc.registry().Register("p", SharedPaperSynopsis());
  // Three canonical queries; "//descendant::B" shares "//B"'s entry.
  const char* family[] = {"/Root//B", "//Root//B", "//B", "//descendant::B"};
  auto run_round = [&] {
    std::vector<double> vals;
    for (const char* s : family) vals.push_back(svc.Estimate("p", s).value());
    const service::EstimateOutcome pr = svc.Estimate("p", "//C/D");
    EXPECT_TRUE(pr.pruned && BitwiseZero(pr.value()));
    return vals;
  };

  const std::vector<double> warm = run_round();
  const uint64_t misses_warm = svc.Stats().misses;
  EXPECT_EQ(misses_warm, 3u);

  svc.registry().Register("p", SharedPaperSynopsis());  // epoch bump
  EXPECT_EQ(run_round(), warm);  // same synopsis, same bits
  service::ServiceStatsSnapshot s = svc.Stats();
  // Each canonical query recompiled exactly once for the new epoch; the
  // prune was re-validated (analyzer ran again) without ever counting as
  // a miss.
  EXPECT_EQ(s.misses, 2 * misses_warm);
  EXPECT_EQ(s.analyzer_pruned, 2u);

  EXPECT_EQ(run_round(), warm);  // steady state: no further compiles
  EXPECT_EQ(svc.Stats().misses, 2 * misses_warm);
}

// Pruning must be invisible in served bits: the service answers every
// corpus query, cold and warm, exactly as the bare estimator answers its
// canonical form (values bitwise, statuses by code, degraded flags) —
// including on an order-free synopsis, where the prune gate must hold
// its fire for order queries so the degraded path serves the order-free
// estimate.
TEST(ServiceIntel, PruningServiceMatchesBareEstimatorBitwise) {
  for (const bool order_free : {false, true}) {
    service::EstimationService svc({.threads = 1});
    for (const Bed* bed : {&PaperBed(), &SsplaysBed()}) {
      estimator::SynopsisOptions opt;
      opt.build_order = !order_free;
      auto syn = std::make_shared<const estimator::Synopsis>(
          estimator::Synopsis::Build(bed->doc, opt));
      const estimator::Estimator est(*syn);
      const std::string name = bed == &PaperBed() ? "paper" : "ssplays";
      svc.registry().Register(name, syn);
      size_t pruned = 0, degraded = 0;
      for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
        for (const Query& q : bed->queries) {
          const std::string text = q.ToString();
          Query want = xpath::Canonicalize(Parse(text));
          const bool degrade = !want.orders.empty() && !syn->has_order();
          if (degrade) want.orders.clear();
          const service::EstimateOutcome got = svc.Estimate(name, text);
          ExpectSameBits(got.estimate, est.Estimate(want), name + ": " + text);
          EXPECT_EQ(got.degraded, degrade) << text;
          pruned += got.pruned;
          degraded += got.degraded;
        }
      }
      if (bed == &PaperBed()) {
        EXPECT_GT(pruned, 0u);  // the equivalence must not be vacuous
      }
      if (order_free && bed == &SsplaysBed()) {
        EXPECT_GT(degraded, 0u);
      }
    }
  }
}

TEST(ServiceIntel, ConcurrentBatchesShareAnalyzedPlansRaceFree) {
  const Bed& bed = SsplaysBed();
  auto syn = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(bed.doc, {}));

  // A request mix that exercises every analyzer path: the alias family
  // (one shared entry), pruned queries, and real workload
  // queries, replicated so batch members collide on the shared entries.
  std::vector<service::QueryRequest> reqs;
  for (int rep = 0; rep < 4; ++rep) {
    for (const char* s :
         {"/Root//B", "//B", "//A/B/no-such-tag", "//zz-nowhere"}) {
      reqs.push_back(service::QueryRequest{"d", s});
    }
    for (size_t i = rep; i < bed.queries.size(); i += 4) {
      reqs.push_back(service::QueryRequest{"d", bed.queries[i].ToString()});
    }
  }

  service::EstimationService seq({.threads = 1});
  seq.registry().Register("d", syn);
  std::vector<service::EstimateOutcome> reference;
  for (const service::QueryRequest& r : reqs) reference.push_back(seq.Estimate(r));

  service::EstimationService svc({.threads = 4});
  svc.registry().Register("d", syn);
  for (int round = 0; round < 4; ++round) {
    if (round == 2) svc.registry().Register("d", syn);  // epoch bump
    const std::vector<service::EstimateOutcome> got = svc.EstimateBatch(reqs);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectSameBits(got[i].estimate, reference[i].estimate,
                     "round " + std::to_string(round) + " #" +
                         std::to_string(i) + " " + reqs[i].xpath);
      EXPECT_EQ(got[i].degraded, reference[i].degraded) << reqs[i].xpath;
      EXPECT_EQ(got[i].pruned, reference[i].pruned) << reqs[i].xpath;
    }
  }
}

}  // namespace
}  // namespace xee
