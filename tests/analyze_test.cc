// Test battery for the query-intelligence layer (DESIGN.md §15):
//
//  - Reachability closure unit tests on the paper's Figure 1 document —
//    every Below/BelowGap/HasProperAncestor fact checked against the
//    four root-to-leaf paths by hand.
//  - Satisfiability prunes per rule (P1 unknown tag, P2 impossible
//    edge, P3 absolute-root mismatch, P4 order cycle), each kUnsat
//    verdict cross-checked against the exact evaluator (count must be
//    0) and each prune_safe verdict against the estimator (bitwise
//    +0.0) — the soundness contract the serving prune relies on.
//  - Rewrite rules R1-R4: the intended transformations on hand-picked
//    queries, the guards that must hold them back, and a differential
//    sweep over the generated workload proving every rewrite preserves
//    the estimate BITWISE on exact and coarse synopses, reaches a
//    fixpoint, and lands on a canonical query (the key-stability
//    contract that lets rewritten and unrewritten spellings share
//    caches).
//  - Metamorphic containment battery: QueryContains claims order the
//    exact counts (P ⊑ Q ⇒ count(P) <= count(Q)), on hand-picked paper
//    pairs and on systematic relaxations (child→descendant widening,
//    leaf dropping) of every workload query.
//  - Service surface: the pruned outcome (flag, exactly 0.0, label
//    retention on exact/canonical hits), the analyzer counters, alias
//    families meeting at one cached answer, epoch bumps killing
//    shared entries exactly once and re-validating prunes, an
//    analyzer-off service matching an analyzer-on service bit for bit,
//    and a concurrent EstimateBatch slice over shared analyzed plans
//    (the TSan build turns races into failures).

#include "xpath/analyze.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "encoding/encoding_table.h"
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
using xpath::OrderConstraint;
using xpath::OrderKind;
using xpath::Query;
using xpath::RootMode;
using xpath::SatVerdict;
using xpath::StructAxis;

Query Parse(const std::string& s) { return xpath::ParseXPath(s).value(); }

AnalyzerView ViewOf(const estimator::Synopsis& syn) {
  AnalyzerView view;
  view.reach = &syn.reach();
  view.find_tag = [&syn](const std::string& name) { return syn.FindTag(name); };
  view.root_tag = syn.root_tag();
  view.root_name = syn.TagName(syn.root_tag());
  return view;
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

// One bed: a document with exact and coarse synopses, an exact
// evaluator, and a query corpus (workload classes for ssplays, the
// hand-written strings for the paper document).
struct Bed {
  xml::Document doc;
  std::unique_ptr<estimator::Synopsis> exact;
  std::unique_ptr<estimator::Synopsis> coarse;
  std::unique_ptr<eval::ExactEvaluator> eval;
  std::vector<Query> queries;

  void BuildSynopses() {
    exact = std::make_unique<estimator::Synopsis>(
        estimator::Synopsis::Build(doc, {}));
    estimator::SynopsisOptions coarse_opt;
    coarse_opt.p_variance = 1e9;
    coarse_opt.o_variance = 1e9;
    coarse = std::make_unique<estimator::Synopsis>(
        estimator::Synopsis::Build(doc, coarse_opt));
    eval = std::make_unique<eval::ExactEvaluator>(doc);
  }
};

// Rewrite-relevant spellings over the paper alphabet: triggers for each
// rule, their guard cases, and plain satisfiable/unsat queries.
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

xml::TagId Tag(const estimator::Synopsis& syn, const std::string& name) {
  auto t = syn.FindTag(name);
  XEE_CHECK(t.has_value());
  return *t;
}

// --- reachability closure ---------------------------------------------

// The paper document's distinct root-to-leaf tag paths are exactly
// Root/A/B/D, Root/A/B/E, Root/A/C/E, Root/A/C/F; every closure fact
// below reads off those four lines.
TEST(Reachability, PaperFigureOneClosure) {
  const estimator::Synopsis& syn = *PaperBed().exact;
  const encoding::TagReachability& r = syn.reach();
  const xml::TagId root = Tag(syn, "Root"), a = Tag(syn, "A"),
                   b = Tag(syn, "B"), c = Tag(syn, "C"), d = Tag(syn, "D"),
                   e = Tag(syn, "E"), f = Tag(syn, "F");

  EXPECT_TRUE(r.Below(root, a, /*immediate=*/true));
  EXPECT_TRUE(r.Below(root, d, /*immediate=*/false));
  EXPECT_FALSE(r.Below(root, d, /*immediate=*/true));  // D only at depth 3
  EXPECT_TRUE(r.Below(b, e, /*immediate=*/true));
  EXPECT_TRUE(r.Below(c, f, /*immediate=*/true));
  EXPECT_FALSE(r.Below(c, d, /*immediate=*/false));  // C's leaves are E, F
  EXPECT_FALSE(r.Below(a, root, /*immediate=*/false));  // no upward relation
  EXPECT_FALSE(r.Below(f, e, /*immediate=*/false));     // F is a leaf

  // Gap facts: A/B and C/E are always direct steps; Root..D never is.
  EXPECT_FALSE(r.BelowGap(a, b));
  EXPECT_FALSE(r.BelowGap(c, e));
  EXPECT_TRUE(r.BelowGap(root, d));
  EXPECT_TRUE(r.BelowGap(a, e));  // E sits two below A on every path

  EXPECT_FALSE(r.HasProperAncestor(root));  // the R2 anchoring licence
  EXPECT_TRUE(r.HasProperAncestor(d));
}

TEST(Reachability, WildcardQuantifiesOverAllTags) {
  const estimator::Synopsis& syn = *PaperBed().exact;
  const encoding::TagReachability& r = syn.reach();
  const xml::TagId d = Tag(syn, "D"), f = Tag(syn, "F"),
                   root = Tag(syn, "Root");
  EXPECT_TRUE(r.Below(encoding::kWildcardTag, d, false));
  EXPECT_TRUE(r.Below(root, encoding::kWildcardTag, true));
  // Leaves have nothing below them, whatever the tag asked for.
  EXPECT_FALSE(r.Below(d, encoding::kWildcardTag, false));
  EXPECT_FALSE(r.Below(f, encoding::kWildcardTag, false));
  // Both sides wildcarded: "is any pair related at all".
  EXPECT_TRUE(r.Below(encoding::kWildcardTag, encoding::kWildcardTag, true));
}

// --- satisfiability rules ---------------------------------------------

Analysis Analyze(const std::string& s) {
  return xpath::AnalyzeSatisfiability(Parse(s), ViewOf(*PaperBed().exact));
}

TEST(AnalyzeSat, UnknownTagPrunes) {  // P1
  const Analysis a = Analyze("//A/B/no-such-tag");
  EXPECT_EQ(a.verdict, SatVerdict::kUnsat);
  EXPECT_TRUE(a.prune_safe);  // the estimator resolves tags first too
}

TEST(AnalyzeSat, ImpossibleEdgePrunes) {  // P2
  for (const char* s : {"//C/D", "//D//A", "//F/E", "//B[C]/D"}) {
    const Analysis a = Analyze(s);
    EXPECT_EQ(a.verdict, SatVerdict::kUnsat) << s;
    EXPECT_TRUE(a.prune_safe) << s;
  }
}

TEST(AnalyzeSat, AbsoluteRootMismatchPrunes) {  // P3
  const Analysis a = Analyze("/A/B");
  EXPECT_EQ(a.verdict, SatVerdict::kUnsat);
  EXPECT_TRUE(a.prune_safe);
}

TEST(AnalyzeSat, OrderCyclePrunesButIsNeverPruneSafe) {  // P4
  Query q;
  q.AddNode("A", StructAxis::kChild, -1);
  const int b = q.AddNode("B", StructAxis::kChild, 0);
  const int c = q.AddNode("C", StructAxis::kChild, 0);
  q.orders.push_back({OrderKind::kSibling, b, c});
  q.orders.push_back({OrderKind::kSibling, c, b});
  ASSERT_TRUE(q.Validate().ok());
  const Analysis a = xpath::AnalyzeSatisfiability(q, ViewOf(*PaperBed().exact));
  EXPECT_EQ(a.verdict, SatVerdict::kUnsat);
  // The estimator composes per-constraint ratios independently and may
  // answer nonzero for a cyclic constraint set; pruning would change
  // served bits.
  EXPECT_FALSE(a.prune_safe);
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

// --- rewrite rules ----------------------------------------------------

// Applies the rewrite driver to the canonicalized parse of `s` and
// returns {applications, canonical key afterwards}.
std::pair<int, std::string> Rewrite(const std::string& s) {
  Query q = xpath::Canonicalize(Parse(s));
  const int n = xpath::AnalyzeRewrite(&q, ViewOf(*PaperBed().exact));
  return {n, xpath::SerializeKey(q)};
}

TEST(AnalyzeRewrite, DescendantTightensToChildWhenNeverGapped) {  // R1
  auto [n, key] = Rewrite("//C//E");  // C/E is a direct step on every path
  EXPECT_GT(n, 0);
  EXPECT_EQ(key, xpath::CanonicalKey(Parse("//C/E")));
  // E occurs two below A, so //A//E must keep its descendant axis.
  EXPECT_EQ(Rewrite("//A//E").first, 0);
}

TEST(AnalyzeRewrite, AnywhereAnchorsToAbsoluteForNonRecursiveRoot) {  // R2
  Query q = xpath::Canonicalize(Parse("//Root/A"));
  EXPECT_GT(xpath::AnalyzeRewrite(&q, ViewOf(*PaperBed().exact)), 0);
  EXPECT_EQ(q.root_mode, RootMode::kAbsolute);
  EXPECT_EQ(xpath::SerializeKey(q), xpath::CanonicalKey(Parse("/Root/A")));
}

TEST(AnalyzeRewrite, AbsoluteRootHeadElides) {  // R4, and R2+R4 chained
  EXPECT_EQ(Rewrite("/Root//B").second, xpath::CanonicalKey(Parse("//B")));
  auto [n, key] = Rewrite("//Root//B");  // anchors first, then elides
  EXPECT_GE(n, 2);
  EXPECT_EQ(key, xpath::CanonicalKey(Parse("//B")));
}

TEST(AnalyzeRewrite, HeadElisionGuardsHoldWhenTheHeadCarriesWeight) {
  // A targeted head, a value-filtered head, and a child-axis head all
  // carry semantics the elision would lose.
  for (const char* s : {"/Root{t}//B", "/Root[.=\"x\"]//B", "/Root/A"}) {
    Query q = xpath::Canonicalize(Parse(s));
    const std::string before = xpath::SerializeKey(q);
    (void)xpath::AnalyzeRewrite(&q, ViewOf(*PaperBed().exact));
    // Other rules may still fire; the head must survive attached.
    EXPECT_EQ(q.root_mode, RootMode::kAbsolute) << s;
    EXPECT_EQ(q.nodes[0].tag, "Root") << s;
    if (std::string(s) != "/Root/A") {
      EXPECT_EQ(xpath::SerializeKey(q), before) << s;
    }
  }
}

TEST(AnalyzeRewrite, DocumentOrderLowersToSiblingWhenChildAttached) {  // R3
  // The parser attaches following:: endpoints by descendant, so this
  // shape only arises through the API — exactly where the estimator's
  // own internal rewrite makes R3 bitwise-equal by construction.
  Query q;
  q.AddNode("A", StructAxis::kChild, -1);
  const int b = q.AddNode("B", StructAxis::kChild, 0);
  const int c = q.AddNode("C", StructAxis::kChild, 0);
  q.orders.push_back({OrderKind::kDocument, b, c});
  ASSERT_TRUE(q.Validate().ok());

  const Bed& bed = PaperBed();
  const Query canon = xpath::Canonicalize(q);
  Query rw = canon;
  EXPECT_GT(xpath::AnalyzeRewrite(&rw, ViewOf(*bed.exact)), 0);
  ASSERT_EQ(rw.orders.size(), 1u);
  EXPECT_EQ(rw.orders[0].kind, OrderKind::kSibling);
  const estimator::Estimator est(*bed.exact);
  ExpectSameBits(est.Estimate(canon), est.Estimate(rw), "R3");
}

// The load-bearing rewrite contract, swept over every corpus query on
// both beds: rewritten plans must produce the baseline's bits on exact
// AND coarse synopses (so they may share caches with unrewritten
// spellings), reach a fixpoint, and land on a canonical query (so the
// canonical key is stable whether or not the analyzer ran first — the
// Canonicalize tie-break audit).
TEST(AnalyzeRewrite, RewritesAreEstimateInvariantBitwiseOnBothBeds) {
  size_t rewritten = 0;
  for (const Bed* bed : {&PaperBed(), &SsplaysBed()}) {
    const AnalyzerView view = ViewOf(*bed->exact);
    const estimator::Estimator exact(*bed->exact);
    const estimator::Estimator coarse(*bed->coarse);
    for (const Query& q : bed->queries) {
      const Query canon = xpath::Canonicalize(q);
      Query rw = canon;
      const int n = xpath::AnalyzeRewrite(&rw, view);
      const std::string name = q.ToString();
      if (n == 0) continue;
      ++rewritten;
      ExpectSameBits(exact.Estimate(canon), exact.Estimate(rw),
                     "exact: " + name);
      ExpectSameBits(coarse.Estimate(canon), coarse.Estimate(rw),
                     "coarse: " + name);
      // Exact-count invariance: a rewrite may never change the answer.
      const Result<uint64_t> a = bed->eval->Count(canon);
      const Result<uint64_t> b = bed->eval->Count(rw);
      ASSERT_TRUE(a.ok() && b.ok()) << name;
      EXPECT_EQ(a.value(), b.value()) << name;
      // Fixpoint + canonical-form stability.
      Query again = rw;
      EXPECT_EQ(xpath::AnalyzeRewrite(&again, view), 0) << name;
      EXPECT_EQ(xpath::SerializeKey(xpath::Canonicalize(rw)),
                xpath::SerializeKey(rw))
          << name;
    }
  }
  EXPECT_GT(rewritten, 3u);  // the sweep must actually exercise rules
}

// --- containment ------------------------------------------------------

TEST(QueryContains, PaperPairsAndCounts) {
  const Bed& bed = PaperBed();
  // (sup, cnt_sup) contains (sub, cnt_sub): claim implies cnt ordering.
  struct Pair {
    const char* sup;
    const char* sub;
  };
  for (const Pair& p : {Pair{"//D", "//A/B/D"},          // chain extension
                        Pair{"//A//E", "//A/C/E"},       // '//' covers '/'
                        Pair{"//A[B]", "//A[B/D][C]"},   // predicate adds
                        Pair{"//A", "//A[.=\"x\"]"},     // value filter adds
                        Pair{"//A/B", "/Root/A/B"}}) {   // anywhere ⊇ absolute
    const Query sup = Parse(p.sup), sub = Parse(p.sub);
    EXPECT_TRUE(xpath::QueryContains(sup, sub)) << p.sup << " ⊒ " << p.sub;
    const uint64_t csup = bed.eval->Count(sup).value();
    const uint64_t csub = bed.eval->Count(sub).value();
    EXPECT_LE(csub, csup) << p.sup << " vs " << p.sub;
  }
}

TEST(QueryContains, SelfAndNegatives) {
  for (const Query& q : PaperBed().queries) {
    if (q.size() <= 12) {
      EXPECT_TRUE(xpath::QueryContains(q, q)) << q.ToString();
    }
  }
  // No homomorphism maps the longer pattern into the shorter one.
  EXPECT_FALSE(xpath::QueryContains(Parse("//A/B"), Parse("//A")));
  // Mismatched value filters can't be discharged.
  EXPECT_FALSE(
      xpath::QueryContains(Parse("//A[.=\"x\"]"), Parse("//A[.=\"y\"]")));
  // A child edge is not discharged by a descendant edge in the sub.
  EXPECT_FALSE(xpath::QueryContains(Parse("//A/E"), Parse("//A//E")));
}

TEST(QueryContains, SiblingConstraintDischargesDocumentConstraint) {
  // sup asks for the weaker following relation; sub's sibling constraint
  // implies it (same junction, same endpoints, stronger requirement).
  Query sup;
  sup.AddNode("A", StructAxis::kChild, -1);
  const int b = sup.AddNode("B", StructAxis::kChild, 0);
  const int c = sup.AddNode("C", StructAxis::kChild, 0);
  sup.orders.push_back({OrderKind::kDocument, b, c});
  sup.target = c;
  const Query sub = Parse("//A/B/following-sibling::C");
  ASSERT_TRUE(sup.Validate().ok());
  EXPECT_TRUE(xpath::QueryContains(sup, sub));
  const Bed& bed = PaperBed();
  EXPECT_LE(bed.eval->Count(sub).value(), bed.eval->Count(sup).value());
}

bool IsOrderEndpoint(const Query& q, int n) {
  for (const OrderConstraint& oc : q.orders) {
    if (oc.before == n || oc.after == n) return true;
  }
  return false;
}

// Systematic metamorphic sweep: every single-step relaxation of every
// corpus query must be provably containing (the test is complete on
// these shapes) and must exact-count at least as many matches.
TEST(QueryContains, RelaxationsContainAndOrderTheExactCounts) {
  size_t checked = 0;
  for (const Bed* bed : {&PaperBed(), &SsplaysBed()}) {
    for (const Query& q : bed->queries) {
      if (q.size() > 12) continue;
      const uint64_t base = bed->eval->Count(q).value();
      for (int i = 1; i < static_cast<int>(q.size()); ++i) {
        // (a) widen one child axis to descendant. Sibling-order
        // endpoints must stay child-attached (Validate) — skip all
        // endpoints for uniformity.
        if (q.nodes[i].axis == StructAxis::kChild && !IsOrderEndpoint(q, i)) {
          Query wide = q;
          wide.nodes[i].axis = StructAxis::kDescendant;
          ASSERT_TRUE(wide.Validate().ok()) << q.ToString();
          EXPECT_TRUE(xpath::QueryContains(wide, q)) << q.ToString();
          EXPECT_GE(bed->eval->Count(wide).value(), base) << q.ToString();
          ++checked;
        }
        // (b) drop one non-target, non-endpoint leaf predicate.
        if (q.nodes[i].children.empty() && i != q.target &&
            !IsOrderEndpoint(q, i)) {
          std::vector<bool> keep(q.size(), true);
          keep[i] = false;
          const Query dropped = q.SubQuery(keep);
          ASSERT_TRUE(dropped.Validate().ok()) << q.ToString();
          EXPECT_TRUE(xpath::QueryContains(dropped, q)) << q.ToString();
          EXPECT_GE(bed->eval->Count(dropped).value(), base) << q.ToString();
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);
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
// path all carry the label; an alias family ("/Root//B" == "//Root//B"
// == "//B" after rewriting) is estimated once and shares one entry.
TEST(ServiceIntel, CountersFollowTheAnswerAndAliasFamiliesShareOneEntry) {
  service::EstimationService svc({.threads = 1});
  svc.registry().Register("p", SharedPaperSynopsis());
  const Result<double> direct =
      estimator::Estimator(*SharedPaperSynopsis()).Estimate(Parse("//B"));

  (void)svc.Estimate("p", "//A/B/no-such-tag");   // prune, miss path
  (void)svc.Estimate("p", "//A/B/no-such-tag");   // prune, exact hit
  (void)svc.Estimate("p", "//A[B][C]/no-such-tag");  // prune, new canonical
  (void)svc.Estimate("p", "//A[C][B]/no-such-tag");  // prune, canonical hit
  service::ServiceStatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.analyzer_pruned, 4u);
  EXPECT_EQ(s.analyzer_checked, 3u);  // the exact hit skipped the analyzer
  EXPECT_EQ(s.misses, 0u);            // no prune ever compiled a plan
  EXPECT_EQ(s.exact_hits, 1u);

  ExpectSameBits(svc.Estimate("p", "/Root//B").estimate, direct, "family 1");
  ExpectSameBits(svc.Estimate("p", "//Root//B").estimate, direct, "family 2");
  ExpectSameBits(svc.Estimate("p", "//B").estimate, direct, "family 3");
  s = svc.Stats();
  EXPECT_EQ(s.misses, 1u);          // one estimate serves the whole family
  EXPECT_EQ(s.canonical_hits, 2u);  // the other two spellings share it
  EXPECT_EQ(s.analyzer_rewritten, 2u);  // "//B" itself needs no rewrite
  // 3 canonical entries (2 pruned, 1 family) + 6 exact-string aliases.
  EXPECT_EQ(s.cache_entries, 9u);
  EXPECT_EQ(s.analyzer_checked, 6u);
}

TEST(ServiceIntel, EpochBumpKillsSharedEntriesOnceAndRevalidatesPrunes) {
  service::EstimationService svc({.threads = 1});
  svc.registry().Register("p", SharedPaperSynopsis());
  const char* family[] = {"/Root//B", "//Root//B", "//B"};
  auto run_round = [&] {
    std::vector<double> vals;
    for (const char* s : family) vals.push_back(svc.Estimate("p", s).value());
    const service::EstimateOutcome pr = svc.Estimate("p", "//C/D");
    EXPECT_TRUE(pr.pruned && BitwiseZero(pr.value()));
    return vals;
  };

  const std::vector<double> warm = run_round();
  const uint64_t misses_warm = svc.Stats().misses;
  EXPECT_EQ(misses_warm, 1u);

  svc.registry().Register("p", SharedPaperSynopsis());  // epoch bump
  EXPECT_EQ(run_round(), warm);  // same synopsis, same bits
  service::ServiceStatsSnapshot s = svc.Stats();
  // The family recompiled exactly once for the new epoch; the prune was
  // re-validated (analyzer ran again) without ever counting as a miss.
  EXPECT_EQ(s.misses, misses_warm + 1);
  EXPECT_EQ(s.analyzer_pruned, 2u);

  EXPECT_EQ(run_round(), warm);  // steady state: no further compiles
  EXPECT_EQ(svc.Stats().misses, misses_warm + 1);
}

// The analyzer must be invisible in served bits: an analyzer-off
// service and an analyzer-on service answer identical request streams
// with identical values (bitwise), statuses, and degraded flags —
// including on an order-free synopsis, where the prune gate must hold
// its fire for order queries so the degraded path stays identical.
TEST(ServiceIntel, AnalyzerOffServiceMatchesAnalyzerOnBitwise) {
  for (const bool order_free : {false, true}) {
    service::ServiceOptions on_opt;
    on_opt.threads = 1;
    service::ServiceOptions off_opt = on_opt;
    off_opt.enable_analyzer = false;
    service::EstimationService on(on_opt), off(off_opt);
    for (const Bed* bed : {&PaperBed(), &SsplaysBed()}) {
      std::shared_ptr<const estimator::Synopsis> syn;
      if (order_free) {
        estimator::SynopsisOptions no_order;
        no_order.build_order = false;
        syn = std::make_shared<const estimator::Synopsis>(
            estimator::Synopsis::Build(bed->doc, no_order));
      } else {
        syn = std::make_shared<const estimator::Synopsis>(
            estimator::Synopsis::Build(bed->doc, {}));
      }
      const std::string name = bed == &PaperBed() ? "paper" : "ssplays";
      on.registry().Register(name, syn);
      off.registry().Register(name, syn);
      size_t pruned = 0;
      for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
        for (const Query& q : bed->queries) {
          const std::string text = q.ToString();
          const service::EstimateOutcome a = on.Estimate(name, text);
          const service::EstimateOutcome b = off.Estimate(name, text);
          ExpectSameBits(a.estimate, b.estimate, name + ": " + text);
          EXPECT_EQ(a.degraded, b.degraded) << text;
          EXPECT_FALSE(b.pruned) << text;
          pruned += a.pruned;
        }
      }
      if (!order_free && bed == &PaperBed()) {
        EXPECT_GT(pruned, 0u);  // the equivalence must not be vacuous
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
