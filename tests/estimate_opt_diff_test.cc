// Pins for the single estimate path and differentials for the answer
// cache: served numbers must be *bitwise* what the paper's formulas
// give — not approximately, not within epsilon.
//
//  - Estimator level: golden pins (count + StableHash64 over the bit
//    patterns and status codes of every Estimate result) per workload
//    class on ssplays, dblp and xmark, plus the paper's running example.
//    The pins were computed by the memo-free estimator that Estimate's
//    request-scoped join memo replaced; any change to a served bit
//    breaks one. Wildcard pins over `*`-bearing grammar-generated
//    queries were computed by the pairwise join sweep that the
//    word-parallel sweep replaced.
//  - Join schedules: the default two-pass full reducer and the
//    round-robin fixpoint arm (set_join_to_fixpoint(true)) serve the
//    same pinned bits on every corpus above, and agree on hand-written
//    joins that reach the reducer's special cases. A deadline may
//    expire anywhere in a join: the call then fails, it never serves a
//    third number, and the service caches nothing for it.
//  - Candidate frequencies come from the synopsis's own p-histograms:
//    a PatchedClone given another build's histograms estimates like
//    that build.
//  - Join-index derivation sites: Deserialize and PatchedClone carry
//    the index a scratch Build derives and serve the pinned bits. (The
//    checked-in corpus blobs, which predate the index, are loaded and
//    probed by FuzzHarness.CorpusReplayClean.)
//  - Service level: a starved answer cache and a default one answer
//    identical request streams identically, and synopsis swaps (epoch
//    bumps) never let a stale entry leak through.
//  - A concurrency slice drives EstimateBatch against the shared cache
//    from many threads (the TSan build turns data races into failures).
//  - A bench-regression slice pins stage-histogram sample counts stable
//    across identically configured runs (the bug where per-mode stage
//    rows drifted 56 vs 58 came from cumulative scrapes + a parked
//    sampling cursor).

#include <gtest/gtest.h>


#include <array>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "datagen/datagen.h"
#include "delta/document_delta.h"
#include "delta/live_synopsis.h"
#include "estimator/estimator.h"
#include "fuzz/fuzz.h"
#include "obs/window.h"
#include "paper_fixture.h"
#include "service/service.h"
#include "workload/workload.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xee {
namespace {

// Bitwise equality of value-or-status results: equal doubles (by ==,
// i.e. identical reals — both paths must do the same arithmetic in the
// same order) or equal error codes.
void ExpectSameResult(const Result<double>& a, const Result<double>& b,
                      const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what << ": " << (a.ok() ? b : a).status().ToString();
  if (a.ok()) {
    EXPECT_EQ(a.value(), b.value()) << what;
  } else {
    EXPECT_EQ(a.status().code(), b.status().code()) << what;
  }
}

struct Corpus {
  xml::Document doc;
  workload::Workload workload;
  std::vector<xpath::Query> queries;  ///< every class, in class order
};

// A small datagen document plus every workload class (simple chains,
// branches, both order-query families) — the Table 2 protocol at test
// scale.
const Corpus& CorpusFor(const std::string& dataset) {
  static auto* corpora = new std::map<std::string, Corpus>;
  auto [it, fresh] = corpora->try_emplace(dataset);
  Corpus& c = it->second;
  if (fresh) {
    datagen::GenOptions gopt;
    gopt.scale = 0.03;
    c.doc = datagen::GenerateByName(dataset, gopt).value();
    workload::WorkloadOptions wopt;
    wopt.simple_count = 60;
    wopt.branch_count = 60;
    c.workload = workload::GenerateWorkload(c.doc, wopt);
    for (const auto* list : {&c.workload.simple, &c.workload.branch,
                             &c.workload.order_branch_target,
                             &c.workload.order_trunk_target}) {
      for (const workload::WorkloadQuery& wq : *list) {
        c.queries.push_back(wq.query);
      }
    }
  }
  return c;
}

const Corpus& SharedCorpus() { return CorpusFor("ssplays"); }

// Count and StableHash64 over every result: 'v' + the value's bits or
// 'e' + the status code, eight little-endian bytes each.
struct Pin {
  size_t count;
  uint64_t hash;
};

Pin PinOf(const estimator::Estimator& est,
          const std::vector<xpath::Query>& queries) {
  std::string bytes;
  for (const xpath::Query& q : queries) {
    const Result<double> r = est.Estimate(q);
    const uint64_t bits = r.ok() ? std::bit_cast<uint64_t>(r.value())
                                 : static_cast<uint64_t>(r.status().code());
    bytes.push_back(r.ok() ? 'v' : 'e');
    for (int i = 0; i < 64; i += 8) {
      bytes.push_back(static_cast<char>(bits >> i));
    }
  }
  return {queries.size(), xpath::StableHash64(bytes)};
}

constexpr struct {
  const char* dataset;
  int cls;  // simple, branch, order-branch, order-trunk
  Pin pin;
} kWorkloadPins[] = {
    {"ssplays", 0, {40, 0x61c631524c2827c7ull}},
    {"ssplays", 1, {54, 0xfec547628d12e557ull}},
    {"ssplays", 2, {17, 0x18f1b48cec537f69ull}},
    {"ssplays", 3, {16, 0xaa19492b442202daull}},
    {"dblp", 0, {41, 0x076cc67386d29fedull}},
    {"dblp", 1, {58, 0x3bdcfdd9bdd6311full}},
    {"dblp", 2, {55, 0xfbc05dc2b1f0c253ull}},
    {"dblp", 3, {55, 0x2f6428048e5696aaull}},
    {"xmark", 0, {57, 0xeba6930a2015413aull}},
    {"xmark", 1, {57, 0x7261c8883f9046d3ull}},
    {"xmark", 2, {27, 0xa2cc87337e23c4c8ull}},
    {"xmark", 3, {27, 0xf58d62e3164bf6fbull}},
};

// Checks the workload pins of `dataset` against estimates over `syn`,
// a synopsis of CorpusFor(dataset).doc however it was obtained.
void ExpectWorkloadPins(const std::string& dataset,
                        const estimator::Synopsis& syn, const char* what,
                        bool fixpoint = false) {
  const workload::Workload& w = CorpusFor(dataset).workload;
  for (const auto& [pin_dataset, cls, want] : kWorkloadPins) {
    if (dataset != pin_dataset) continue;
    std::vector<xpath::Query> queries;
    for (const workload::WorkloadQuery& wq :
         *std::to_array({&w.simple, &w.branch, &w.order_branch_target,
                         &w.order_trunk_target})[cls]) {
      queries.push_back(wq.query);
    }
    estimator::Estimator est(syn);
    est.set_join_to_fixpoint(fixpoint);
    const Pin got = PinOf(est, queries);
    const std::string where =
        std::string(what) + " " + dataset + " class " + std::to_string(cls);
    EXPECT_EQ(got.count, want.count) << where;
    EXPECT_EQ(got.hash, want.hash) << where;
  }
}

TEST(EstimateOptDiff, CompiledPathsMatchUnoptimizedEstimatorOnWorkload) {
  for (const char* dataset : {"ssplays", "dblp", "xmark"}) {
    ExpectWorkloadPins(dataset,
                       estimator::Synopsis::Build(CorpusFor(dataset).doc, {}),
                       "build");
  }
}

// The join index is derived, not stored: Deserialize and PatchedClone
// must end up with exactly the rows and masks a scratch Build derives,
// and serve the pinned bits.
TEST(EstimateOptDiff, JoinIndexDerivationSitesMatchScratchBuild) {
  for (const char* dataset : {"ssplays", "dblp", "xmark"}) {
    const Corpus& c = CorpusFor(dataset);
    const estimator::Synopsis built = estimator::Synopsis::Build(c.doc, {});

    const Result<estimator::Synopsis> loaded =
        estimator::Synopsis::Deserialize(built.Serialize());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().join_index(), built.join_index()) << dataset;
    ExpectWorkloadPins(dataset, loaded.value(), "deserialized");

    // A clone with the base's own histograms shares the base's index.
    std::vector<histogram::PHistogram> p_histos;
    std::vector<histogram::OHistogram> o_histos;
    for (xml::TagId t = 0; t < built.TagCount(); ++t) {
      p_histos.push_back(built.PHisto(t));
      o_histos.push_back(built.OHisto(t));
    }
    const estimator::Synopsis clone = estimator::Synopsis::PatchedClone(
        built, std::move(p_histos), std::move(o_histos),
        *built.value_stats());
    EXPECT_EQ(&clone.join_index(), &built.join_index()) << dataset;
    ExpectWorkloadPins(dataset, clone, "patched clone");

    // A sibling-clone delta publishes a PatchedClone of the base; its
    // (shared) index must equal the one a scratch build of the mutated
    // document derives, and so must every estimate.
    datagen::GenOptions gopt;
    gopt.scale = 0.03;
    delta::LiveDocument live(datagen::GenerateByName(dataset, gopt).value());
    auto base = std::make_shared<const estimator::Synopsis>(
        estimator::Synopsis::Build(live.doc(), {}));
    delta::PatchOptions popt;
    popt.error_budget = 1.0;
    delta::LiveSynopsis patcher(base, &live, popt);
    const std::vector<xml::NodeId> by_rank = live.PreorderNodes();
    const xml::NodeId node = by_rank[by_rank.size() / 2];
    delta::DocumentDelta d;
    d.ops.push_back(delta::DeltaOp{});
    d.ops[0].kind = delta::DeltaOp::Kind::kInsert;
    d.ops[0].subtree = delta::SpecFromSubtree(live, node);
    for (size_t i = 0; i < by_rank.size(); ++i) {
      if (by_rank[i] == live.doc().Parent(node)) {
        d.ops[0].target = static_cast<uint32_t>(i);
      }
    }
    const Result<delta::ApplyResult> res = patcher.Apply(d);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res.value().charged_nodes, 0.0) << dataset;
    const estimator::Synopsis& patched = *res.value().synopsis;
    const estimator::Synopsis scratch =
        estimator::Synopsis::Build(live.Materialize(), {});
    EXPECT_EQ(&patched.join_index(), &base->join_index()) << dataset;
    EXPECT_EQ(patched.join_index(), scratch.join_index()) << dataset;
    const estimator::Estimator patched_est(patched), scratch_est(scratch);
    for (const xpath::Query& q : c.queries) {
      ExpectSameResult(patched_est.Estimate(q), scratch_est.Estimate(q),
                       std::string(dataset) + " " + q.ToString());
    }
  }
}

TEST(EstimateOptDiff, CompiledPathsMatchOnPaperExample) {
  const xml::Document doc = testing::MakePaperDocument();
  const estimator::Synopsis syn = estimator::Synopsis::Build(doc, {});
  std::vector<xpath::Query> queries;
  for (const char* s :
       {"/Root/A/B", "/Root/A/B/D", "//B/D", "//A//E", "//A[/C/F]/B/D",
        "//A[/B[/D]/E]", "//A/C/preceding-sibling::B",
        "//A[/C/following-sibling::B/D]", "//A[/C/following::D]",
        "/A[.=\"x\"]"}) {
    queries.push_back(xpath::ParseXPath(s).value());
  }
  for (bool fixpoint : {false, true}) {
    estimator::Estimator est(syn);
    est.set_join_to_fixpoint(fixpoint);
    const Pin got = PinOf(est, queries);
    EXPECT_EQ(got.count, 10u) << "fixpoint=" << fixpoint;
    EXPECT_EQ(got.hash, 0x68a7ca25f64bb629ull) << "fixpoint=" << fixpoint;
  }
}

// `*`-bearing queries from the fuzz grammar generator over each
// dataset's tag alphabet: the workload classes carry no wildcard steps,
// and a `*` candidate list mixes tags, so these pins cover the join's
// per-tag grouping. Only queries that parse and contain a `*` node are
// kept; rejected estimates (wildcard order endpoints) pin their status.
std::vector<xpath::Query> WildcardQueries(const xml::Document& doc,
                                          size_t want) {
  std::vector<std::string> tags;
  for (size_t t = 0; t < doc.TagCount(); ++t) {
    tags.push_back(doc.TagNameOf(static_cast<xml::TagId>(t)));
  }
  Rng rng(2024);
  std::vector<xpath::Query> out;
  while (out.size() < want) {
    Result<xpath::Query> q =
        xpath::ParseXPath(fuzz::GenerateQueryString(rng, tags));
    if (!q.ok()) continue;
    bool wildcard = false;
    for (const auto& n : q.value().nodes) wildcard |= n.tag == "*";
    if (wildcard) out.push_back(std::move(q).value());
  }
  return out;
}

TEST(EstimateOptDiff, WildcardQueriesMatchPins) {
  const struct {
    const char* dataset;
    Pin pin;
  } kPins[] = {
      {"ssplays", {500, 0x23dc30ab01caf15bull}},
      {"dblp", {500, 0x0dbb0416033c40eeull}},
      {"xmark", {500, 0x78347a77e0eb4ad6ull}},
  };
  for (const auto& [dataset, want] : kPins) {
    const Corpus& c = CorpusFor(dataset);
    const estimator::Synopsis syn = estimator::Synopsis::Build(c.doc, {});
    const Pin got =
        PinOf(estimator::Estimator(syn), WildcardQueries(c.doc, want.count));
    EXPECT_EQ(got.count, want.count) << dataset;
    EXPECT_EQ(got.hash, want.hash) << dataset;
    // The two-pass reducer is a full reducer on tree queries: the
    // round-robin fixpoint reaches the same survivor lists in the same
    // order, hence the same bits.
    estimator::Estimator fixpoint(syn);
    fixpoint.set_join_to_fixpoint(true);
    EXPECT_EQ(PinOf(fixpoint, WildcardQueries(c.doc, want.count)).hash,
              want.hash)
        << dataset << " fixpoint";
  }
}

// The round-robin fixpoint arm serves the workload pins too: on tree
// queries the two-pass reducer's survivors are the fixpoint's.
TEST(EstimateOptDiff, JoinSchedulesMatchOnWorkloadPins) {
  for (const char* dataset : {"ssplays", "dblp", "xmark"}) {
    ExpectWorkloadPins(dataset,
                       estimator::Synopsis::Build(CorpusFor(dataset).doc, {}),
                       "fixpoint", /*fixpoint=*/true);
  }
}

// A document where a "*" parent list shrinks to one group after a child
// was kept for a group that goes:
//
//   R
//   └── H
//       ├── T ── G ── T        path 1: R/H/T/G/T
//       ├── K                  path 2: R/H/K
//       ├── T ── G ── K        path 3: R/H/T/G/K
//       └── T ── G ┬─ T
//                  ├─ K
//                  └─ Z        path 4: R/H/T/G/Z
//
// In //*[/Z]/K/following-sibling::T, [/Z] leaves the "*" list with the
// one G of pid {1,3,4}. The T of pid {3} (the third child of H, after
// the K) passed the tag test only under H; that G's cover row holds
// {3}, but no path of {3} has T directly below G, so only a top-down
// re-test under the shrunken "*" drops it. Its o-histogram cell (one T
// after a K) would double the estimate from 1 to 2.
xml::Document ShrinkingWildcardDocument() {
  xml::Document doc;
  const xml::NodeId h = doc.AppendChild(doc.CreateRoot("R"), "H");
  auto t_g = [&] { return doc.AppendChild(doc.AppendChild(h, "T"), "G"); };
  doc.AppendChild(t_g(), "T");
  doc.AppendChild(h, "K");
  doc.AppendChild(t_g(), "K");
  const xml::NodeId g = t_g();
  for (const char* leaf : {"T", "K", "Z"}) doc.AppendChild(g, leaf);
  doc.Finalize();
  return doc;
}

// Hand-written joins that reach the reducer's special cases: absolute
// roots (matching, mismatched, "*"), a "*" parent that drops to one
// group, and parent lists that empty mid-join (the reducer stops there,
// the fixpoint arm clears the child lists below).
TEST(EstimateOptDiff, JoinSchedulesMatchOnHandWrittenJoins) {
  const struct {
    xml::Document doc;
    std::vector<std::pair<const char*, double>> cases;
  } kDocs[] = {
      {testing::MakePaperDocument(),
       {{"/Root/A/B/D", 4},
        {"/A/B", 0},
        {"/*/A/B", 4},
        {"/*[/A/C]//F", 1},
        {"/Root//E", 3},
        {"//*[/F]/E", 1},
        {"//A[/F]/B", 0},
        {"//*[/F]/D", 0},
        {"//B[/E]/*[/F]", 0}}},
      {ShrinkingWildcardDocument(),
       {{"//*[/Z]/K/following-sibling::T", 1},
        {"//G[/Z]", 1},
        {"//K/T", 0},
        {"/R/*/T", 5}}},
  };
  for (const auto& [doc, cases] : kDocs) {
    const estimator::Synopsis syn = estimator::Synopsis::Build(doc, {});
    estimator::Estimator reducer(syn), fixpoint(syn);
    fixpoint.set_join_to_fixpoint(true);
    for (const auto& [xpath, want] : cases) {
      const xpath::Query q = xpath::ParseXPath(xpath).value();
      ExpectSameResult(reducer.Estimate(q), fixpoint.Estimate(q), xpath);
      EXPECT_EQ(reducer.Estimate(q).value(), want) << xpath;
    }
  }
}

// Arms deadline.expire to fire at the (skip+1)-th deadline check of a
// finite-deadline call, for every skip up to the number of checks an
// unexpired call makes: every call before that fails with
// kDeadlineExceeded, the last one serves the reference bits, and some
// expiries land inside a join (after its first half-sweep).
TEST(EstimateOptDiff, DeadlineExpiryMidJoinFailsOrServesThePinnedValue) {
  const Corpus& c = SharedCorpus();
  auto syn = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, {}));
  const estimator::Estimator est(*syn);
  const Deadline far = Deadline::AfterMs(3'600'000);  // finite: faults apply
  const std::string site(Deadline::kFaultSite);

  const xpath::Query trunk = c.workload.order_trunk_target.front().query;
  xpath::Query wildcard;
  for (const xpath::Query& q : WildcardQueries(c.doc, 500)) {
    const Result<double> r = est.Estimate(q);
    if (q.nodes.size() >= 3 && r.ok() && r.value() > 0) {
      wildcard = q;
      break;
    }
  }
  ASSERT_FALSE(wildcard.nodes.empty());

  for (const xpath::Query& q : {trunk, wildcard}) {
    const std::string what = q.ToString();
    const Result<double> want = est.Estimate(q);
    ASSERT_TRUE(want.ok()) << what;
    uint64_t checks = 0;
    obs::TraceSpans unexpired;
    {
      ScopedFault count(site, FaultConfig{.probability = 0});
      ExpectSameResult(est.Estimate(q, {.deadline = far, .trace = &unexpired}),
                       want, what);
      checks = FaultInjector::Global().HitCount(site);
    }
    // The join checks the clock before every half-sweep, so expiry can
    // land between any two of them.
    ASSERT_GT(checks, unexpired.join_probes) << what;
    size_t mid_join = 0;
    for (uint64_t skip = 0; skip <= checks; ++skip) {
      ScopedFault fault(site, FaultConfig{.skip = skip});
      obs::TraceSpans spans;
      const Result<double> got =
          est.Estimate(q, {.deadline = far, .trace = &spans});
      if (skip < checks) {
        ASSERT_FALSE(got.ok()) << what << " skip " << skip;
        EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
            << what << " skip " << skip;
        mid_join += spans.join_probes > 0;
      } else {
        ExpectSameResult(got, want, what + " skip " + std::to_string(skip));
      }
    }
    EXPECT_GT(mid_join, 0u) << what;

    // Through the service: a request ending in kDeadlineExceeded (no
    // order-free fallback) leaves nothing in the answer cache; once the
    // skip passes every check (the service adds a few of its own), the
    // request serves the reference bits.
    service::QueryRequest req{"d", what};
    req.deadline = far;
    req.allow_degraded = false;
    bool served = false;
    for (uint64_t skip = 0; !served && skip <= checks + 8; ++skip) {
      service::EstimationService svc({.threads = 1});
      svc.registry().Register("d", syn);
      ScopedFault fault(site, FaultConfig{.skip = skip});
      const service::EstimateOutcome got = svc.Estimate(req);
      if (got.estimate.ok()) {
        ExpectSameResult(got.estimate, want, what + " service");
        EXPECT_GT(skip, 1u) << what;  // some skip expired the estimator
        served = true;
        continue;
      }
      EXPECT_EQ(got.estimate.status().code(), StatusCode::kDeadlineExceeded)
          << what << " service skip " << skip;
      EXPECT_EQ(svc.Stats().cache_entries, 0u)
          << what << " service skip " << skip;
    }
    EXPECT_TRUE(served) << what;
  }
}

// The join reads candidate frequencies from the synopsis's own
// p-histograms, never from a structure shared with its base: a
// PatchedClone of an exact (p_variance = 0) build, handed the histograms
// of a p_variance = 2 build of the same document, must estimate bit for
// bit like that build.
TEST(EstimateOptDiff, PatchedCloneEstimatesFromItsOwnHistograms) {
  for (const char* dataset : {"ssplays", "dblp", "xmark"}) {
    const Corpus& c = CorpusFor(dataset);
    const estimator::Synopsis exact = estimator::Synopsis::Build(c.doc, {});
    const estimator::Synopsis coarse =
        estimator::Synopsis::Build(c.doc, {.p_variance = 2});
    std::vector<histogram::PHistogram> p_histos;
    std::vector<histogram::OHistogram> o_histos;
    for (xml::TagId t = 0; t < coarse.TagCount(); ++t) {
      p_histos.push_back(coarse.PHisto(t));
      o_histos.push_back(coarse.OHisto(t));
    }
    const estimator::Synopsis clone = estimator::Synopsis::PatchedClone(
        exact, std::move(p_histos), std::move(o_histos),
        *coarse.value_stats());
    const estimator::Estimator exact_est(exact), coarse_est(coarse),
        clone_est(clone);
    size_t differ = 0;
    for (const xpath::Query& q : c.queries) {
      const Result<double> want = coarse_est.Estimate(q);
      ExpectSameResult(clone_est.Estimate(q), want,
                       std::string(dataset) + " " + q.ToString());
      const Result<double> base = exact_est.Estimate(q);
      differ += want.ok() && base.ok() && want.value() != base.value();
    }
    EXPECT_GT(differ, 0u) << dataset;  // the histograms really differ
  }
}

// --- service-level answer-cache differential --------------------------

std::vector<service::QueryRequest> ServiceRequests(const std::string& name) {
  std::vector<service::QueryRequest> reqs;
  for (const xpath::Query& q : SharedCorpus().queries) {
    reqs.push_back(service::QueryRequest{name, q.ToString()});
  }
  return reqs;
}

void ExpectSameOutcomes(const std::vector<service::EstimateOutcome>& a,
                        const std::vector<service::EstimateOutcome>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectSameResult(a[i].estimate, b[i].estimate,
                     std::string(what) + " #" + std::to_string(i));
    EXPECT_EQ(a[i].degraded, b[i].degraded) << what << " #" << i;
    EXPECT_EQ(a[i].pruned, b[i].pruned) << what << " #" << i;
  }
}

std::vector<service::EstimateOutcome> RunAll(
    service::EstimationService& svc,
    const std::vector<service::QueryRequest>& reqs) {
  std::vector<service::EstimateOutcome> out;
  out.reserve(reqs.size());
  for (const service::QueryRequest& r : reqs) out.push_back(svc.Estimate(r));
  return out;
}

TEST(EstimateOptDiff, MemoOnServiceMatchesMemoOffService) {
  const Corpus& c = SharedCorpus();
  auto syn = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, {}));
  const std::vector<service::QueryRequest> reqs = ServiceRequests("d");

  service::EstimationService def({.threads = 1});
  def.registry().Register("d", syn);

  // Answer cache starved to one resident entry: from the second pass
  // on, almost every answer is estimated again.
  service::ServiceOptions starved_opt;
  starved_opt.threads = 1;
  starved_opt.plan_cache_bytes = 0;
  starved_opt.cache_shards = 1;
  service::EstimationService starved(starved_opt);
  starved.registry().Register("d", syn);

  for (int pass = 0; pass < 3; ++pass) {
    ExpectSameOutcomes(RunAll(starved, reqs), RunAll(def, reqs), "pass");
  }
  EXPECT_GT(starved.Stats().misses, 2 * reqs.size());  // re-estimated
  EXPECT_GT(def.Stats().exact_hits, reqs.size());      // served cached
}

// Switching instrumentation off at runtime (service::ObsMinimal) must
// not change a served bit: the same requests — full-fidelity answers,
// order queries degraded on a synopsis without order statistics, and
// analyzer-pruned queries — through Estimate and EstimateBatch, on the
// miss path and the hit path, against a default service that times,
// traces, shadow-samples against the document and keeps tenant lanes
// and a flight recorder. The obs-minimal service must also really have
// kept nothing.
TEST(EstimateOptDiff, ObsMinimalServiceMatchesDefaultService) {
  const Corpus& c = SharedCorpus();
  auto syn = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, {}));
  estimator::SynopsisOptions no_order;
  no_order.build_order = false;
  auto syn_no_order = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, no_order));
  // Non-owning alias: the corpus outlives both services.
  std::shared_ptr<const xml::Document> doc(
      std::shared_ptr<const xml::Document>(), &c.doc);

  std::vector<service::QueryRequest> reqs = ServiceRequests("d");
  for (const service::QueryRequest& r : ServiceRequests("no-order")) {
    reqs.push_back(r);
  }
  for (const xpath::Query& q : c.queries) {
    reqs.push_back(service::QueryRequest{"d", q.ToString() + "/no-such-tag"});
  }

  service::ServiceOptions def_opt;
  def_opt.threads = 2;
  def_opt.trace_sample = 1;
  def_opt.accuracy_sample = 1;
  service::EstimationService def(def_opt);
  service::EstimationService min(service::ObsMinimal(def_opt));
  for (service::EstimationService* svc : {&def, &min}) {
    svc->registry().Register("d", syn, doc);
    svc->registry().Register("no-order", syn_no_order, doc);
  }

  std::vector<service::EstimateOutcome> single;
  for (int pass = 0; pass < 2; ++pass) {  // miss path, then hit path
    single = RunAll(def, reqs);
    ExpectSameOutcomes(RunAll(min, reqs), single, "single");
    ExpectSameOutcomes(min.EstimateBatch(reqs), def.EstimateBatch(reqs),
                       "batch");
    def.ObsTick(1'000'000 * (pass + 1));
    min.ObsTick(1'000'000 * (pass + 1));
  }
  (void)def.DrainShadow();

  // The corpus reaches both labels, so the comparison above covers them.
  size_t degraded = 0, pruned = 0;
  for (const service::EstimateOutcome& o : single) {
    degraded += o.degraded;
    pruned += o.pruned;
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(pruned, 0u);

  // The default service did the instrumentation work...
  EXPECT_GT(def.traces().recorded(), 0u);
  EXPECT_GT(def.obs().CounterValue("accuracy.samples", "phase=started"), 0u);
  EXPECT_NE(def.flight(), nullptr);
  EXPECT_GT(def.tenants().size(), 0u);
  // ...and the obs-minimal one kept nothing.
  EXPECT_EQ(min.traces().recorded(), 0u);
  EXPECT_EQ(min.traces().tail_recorded(), 0u);
  EXPECT_EQ(min.obs().CounterValue("accuracy.samples", "phase=started"), 0u);
  EXPECT_EQ(min.flight(), nullptr);
  EXPECT_EQ(min.slo(), nullptr);
  EXPECT_EQ(min.tenants().size(), 0u);
  // Counters are never sampled, so both services counted every request.
  EXPECT_EQ(min.Stats().requests, def.Stats().requests);
}

TEST(EstimateOptDiff, EpochBumpNeverServesStaleMemoEntries) {
  const Corpus& c = SharedCorpus();
  auto syn_a = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, {}));
  // A structurally different second synopsis: same document, coarser
  // histograms — estimates genuinely differ, so a stale hit would show.
  estimator::SynopsisOptions coarse;
  coarse.p_variance = 1e9;
  coarse.o_variance = 1e9;
  auto syn_b = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, coarse));
  const std::vector<service::QueryRequest> reqs = ServiceRequests("d");

  service::EstimationService warm({.threads = 1});
  warm.registry().Register("d", syn_a);
  (void)RunAll(warm, reqs);  // fill the cache at epoch 1
  warm.registry().Register("d", syn_b);  // epoch bump

  service::EstimationService fresh({.threads = 1});
  fresh.registry().Register("d", syn_b);

  ExpectSameOutcomes(RunAll(warm, reqs), RunAll(fresh, reqs), "post-swap");
}

TEST(EstimateOptDiff, ConcurrentBatchesShareTheMemoRaceFree) {
  const Corpus& c = SharedCorpus();
  auto syn = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, {}));
  const std::vector<service::QueryRequest> reqs = ServiceRequests("d");

  service::EstimationService svc({.threads = 4});
  svc.registry().Register("d", syn);
  const std::vector<service::EstimateOutcome> reference = RunAll(svc, reqs);
  for (int round = 0; round < 4; ++round) {
    if (round == 2) svc.registry().Register("d", syn);  // epoch bump mid-run
    ExpectSameOutcomes(svc.EstimateBatch(reqs), reference, "batch");
  }
  EXPECT_GT(svc.Stats().exact_hits, 0u);
}

// --- bench stage-row regression --------------------------------------

// With trace_sample=1 and delta scraping, two identically configured
// runs must time exactly the same number of stage executions: the stage
// rows the throughput bench emits are counts, not samples, and may not
// drift between repeats or depend on warm-up leftovers.
TEST(EstimateOptDiff, StageSampleCountsAreStableAcrossIdenticalRuns) {
  const Corpus& c = SharedCorpus();
  auto syn = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(c.doc, {}));
  const std::vector<service::QueryRequest> reqs = ServiceRequests("d");

  auto measure = [&]() -> std::vector<uint64_t> {
    service::ServiceOptions opt;
    opt.threads = 1;
    opt.trace_sample = 1;
    opt.accuracy_sample = 0;
    service::EstimationService svc(opt);
    svc.registry().Register("d", syn);
    (void)RunAll(svc, reqs);  // warm-up pass
    std::vector<obs::HistogramWindow> wins(obs::kStageCount);
    std::vector<obs::Histogram*> hists;
    for (size_t i = 0; i < obs::kStageCount; ++i) {
      hists.push_back(&svc.obs().GetHistogram(
          "service.stage." +
          std::string(obs::StageName(static_cast<obs::Stage>(i))) + "_ns"));
      (void)wins[i].Advance(*hists[i]);  // park the cursor post-warm-up
    }
    (void)RunAll(svc, reqs);  // measured pass
    std::vector<uint64_t> counts;
    for (size_t i = 0; i < obs::kStageCount; ++i) {
      counts.push_back(wins[i].Advance(*hists[i]).count);
    }
    return counts;
  };

  const std::vector<uint64_t> first = measure();
  const std::vector<uint64_t> second = measure();
  EXPECT_EQ(first, second);
  // The measured warm pass is probe-only: parse must not appear (its
  // presence would mean warm-up samples leaked into the window).
  EXPECT_EQ(first[static_cast<size_t>(obs::Stage::kParse)], 0u);
  EXPECT_EQ(first[static_cast<size_t>(obs::Stage::kCacheLookup)],
            reqs.size());
}

}  // namespace
}  // namespace xee
