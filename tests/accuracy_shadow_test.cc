// End-to-end coverage of the shadow-evaluation pipeline: sampled
// requests re-run through the exact evaluator on the worker pool,
// recorded per query class, driving the synopsis drift/health state
// (DESIGN.md §11).
//
// The headline test (ShadowReproducesAccuracyRegressionMeans, ctest
// label `quality`) runs the SSPlays Table-2 workload through the
// service at accuracy_sample = 1 and asserts the recorded per-class
// error means equal a direct reference partition of the same workload —
// and that every order-free chain class is exact to <= 1e-9, the
// serving-side restatement of Theorem 4.1 that
// accuracy_regression_test pins estimator-side.

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util/runner.h"
#include "common/fault.h"
#include "common/json.h"
#include "estimator/synopsis.h"
#include "paper_fixture.h"
#include "service/service.h"
#include "workload/workload.h"
#include "xml/tree.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xee::service {
namespace {

uint64_t Phase(const EstimationService& svc, const char* phase) {
  return svc.obs().CounterValue("accuracy.samples",
                                std::string("phase=") + phase);
}

std::shared_ptr<const xml::Document> PaperDoc() {
  return std::make_shared<const xml::Document>(testing::MakePaperDocument());
}

/// A document with the paper tree's tags but very different counts: 40
/// A children each holding 6 Bs. A synopsis built from the paper tree
/// estimates //A/B at 4; the truth here is 240 — q-error 60, far past
/// any drift limit.
std::shared_ptr<const xml::Document> DriftedDoc() {
  xml::Document doc;
  auto root = doc.CreateRoot("Root");
  for (int i = 0; i < 40; ++i) {
    auto a = doc.AppendChild(root, "A");
    for (int j = 0; j < 6; ++j) doc.AppendChild(a, "B");
  }
  doc.Finalize();
  return std::make_shared<const xml::Document>(std::move(doc));
}

ServiceOptions FullSampling() {
  ServiceOptions o;
  o.threads = 2;
  o.accuracy_sample = 1;
  o.accuracy_max_pending = 1u << 20;  // the tests drain; never suppress
  return o;
}

TEST(ShadowSamplingTest, RecordsTruthAndMarksHealthy) {
  ServiceOptions opt = FullSampling();
  opt.drift_min_samples = 4;
  EstimationService svc(opt);
  auto doc = PaperDoc();
  svc.registry().Register("paper", estimator::Synopsis::Build(*doc, {}), doc);

  for (int i = 0; i < 8; ++i) {
    EstimateOutcome out = svc.Estimate("paper", "//A/B");
    ASSERT_TRUE(out.ok());
  }
  ASSERT_TRUE(svc.DrainShadow());

  EXPECT_EQ(Phase(svc, "started"), 8u);
  EXPECT_EQ(Phase(svc, "recorded"), 8u);
  EXPECT_EQ(svc.registry().Health("paper"), SynopsisHealth::kHealthy);

  // //A/B is exact on the paper synopsis: estimate 4, truth 4.
  const std::vector<obs::ClassAccuracy> classes = svc.accuracy().Classes();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].count, 8u);
  EXPECT_LE(classes[0].mean_qerror, 1.0 + 1e-12);
  EXPECT_LE(classes[0].mean_abs_error, 1e-12);
}

TEST(ShadowSamplingTest, SampledPositionsAreSeedDeterministic) {
  auto run = [](uint64_t seed) {
    ServiceOptions opt;
    opt.threads = 1;
    opt.accuracy_sample = 4;
    opt.accuracy_seed = seed;
    opt.accuracy_max_pending = 1u << 20;
    EstimationService svc(opt);
    auto doc = PaperDoc();
    svc.registry().Register("paper", estimator::Synopsis::Build(*doc, {}),
                            doc);
    for (int i = 0; i < 256; ++i) {
      EXPECT_TRUE(svc.Estimate("paper", "//A/B").ok());
    }
    EXPECT_TRUE(svc.DrainShadow());
    return std::pair<uint64_t, uint64_t>(Phase(svc, "started"),
                                         Phase(svc, "recorded"));
  };
  // The alternate seed must exceed the tick range: for seed < 256,
  // seed ^ tick over ticks 0..255 merely permutes the same 256 Mix
  // inputs, so the hit *count* (the observable here) is seed-invariant
  // even though the sampled positions differ. 0xdecade lands a
  // different input set entirely (69 hits vs seed 7's 65).
  const auto a = run(7), b = run(7), c = run(0xdecade);
  EXPECT_EQ(a, b);             // same seed: identical sampled set
  EXPECT_EQ(a.first, a.second);  // every sample reached the oracle
  EXPECT_GT(a.first, 0u);
  EXPECT_NE(a.first, c.first);  // different seed: different sample count
}

TEST(ShadowSamplingTest, NoDocumentMeansSkipNotCrash) {
  EstimationService svc(FullSampling());
  svc.registry().Register(
      "paper", estimator::Synopsis::Build(testing::MakePaperDocument(), {}));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(svc.Estimate("paper", "//A/B").ok());
  }
  ASSERT_TRUE(svc.DrainShadow());
  EXPECT_EQ(Phase(svc, "started"), 5u);
  EXPECT_EQ(Phase(svc, "skipped_no_document"), 5u);
  EXPECT_EQ(Phase(svc, "recorded"), 0u);
  EXPECT_EQ(svc.registry().Health("paper"), SynopsisHealth::kUnknown);
}

TEST(ShadowSamplingTest, IneligibleOutcomesAreNeverSampled) {
  EstimationService svc(FullSampling());
  auto doc = PaperDoc();
  // Order statistics disabled: order queries served degraded.
  estimator::SynopsisOptions no_order;
  no_order.build_order = false;
  svc.registry().Register("paper",
                          estimator::Synopsis::Build(*doc, no_order), doc);

  QueryRequest degraded{"paper", "//A/B/following-sibling::C"};
  EstimateOutcome out = svc.Estimate(degraded);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out.degraded);

  EXPECT_FALSE(svc.Estimate("paper", "not an xpath ((").ok());
  EXPECT_FALSE(svc.Estimate("absent", "//A/B").ok());

  QueryRequest expired{"paper", "//A/B"};
  expired.deadline = Deadline::AlreadyExpired();
  EXPECT_EQ(svc.Estimate(expired).status().code(),
            StatusCode::kDeadlineExceeded);

  ASSERT_TRUE(svc.DrainShadow());
  EXPECT_EQ(Phase(svc, "started"), 0u);  // nothing eligible, no ticks
}

TEST(ShadowSamplingTest, ExpiredDeadlineSuppressesShadowWork) {
  EstimationService svc(FullSampling());
  auto doc = PaperDoc();
  svc.registry().Register("paper", estimator::Synopsis::Build(*doc, {}), doc);

  // Delay every pool task by 100ms; a 20ms request deadline is still
  // comfortably alive while the caller's answer is served (the reply
  // path takes microseconds) but deterministically dead by the time the
  // shadow task starts.
  ScopedFault slow(std::string(ThreadPool::kSlowWorkerFaultSite),
                   FaultConfig{.probability = 1.0, .payload = 100});
  QueryRequest req{"paper", "//A/B"};
  req.deadline = Deadline::AfterMs(20);
  EstimateOutcome out = svc.Estimate(req);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(svc.DrainShadow());

  EXPECT_EQ(Phase(svc, "started"), 1u);
  EXPECT_EQ(Phase(svc, "deadline_suppressed"), 1u);
  EXPECT_EQ(Phase(svc, "recorded"), 0u);
}

TEST(ShadowSamplingTest, DriftedSynopsisTripsStaleWithinGate) {
  ServiceOptions opt = FullSampling();
  opt.drift_min_samples = 4;
  opt.drift_qerror_limit = 2.0;
  EstimationService svc(opt);

  // Synopsis built from the paper tree, oracle from the drifted tree:
  // exactly the "data moved under the synopsis" incident.
  svc.registry().Register(
      "drifted", estimator::Synopsis::Build(testing::MakePaperDocument(), {}),
      DriftedDoc());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.Estimate("drifted", "//A/B").ok());
  }
  ASSERT_TRUE(svc.DrainShadow());
  // Under the sample gate: convicted evidence, no verdict yet.
  EXPECT_EQ(svc.registry().Health("drifted"), SynopsisHealth::kUnknown);

  ASSERT_TRUE(svc.Estimate("drifted", "//A/B").ok());
  ASSERT_TRUE(svc.DrainShadow());
  EXPECT_EQ(Phase(svc, "recorded"), 4u);
  EXPECT_EQ(svc.registry().Health("drifted"), SynopsisHealth::kStale);

  // The worst offender ring attributes the error to the query.
  const std::vector<obs::AccuracyOffender> worst = svc.accuracy().Offenders();
  ASSERT_FALSE(worst.empty());
  EXPECT_EQ(worst[0].synopsis, "drifted");
  EXPECT_GT(worst[0].qerror, 2.0);

  // Healthz flips to stale; the JSON stays strictly parseable.
  Result<json::Value> hz = json::Parse(svc.HealthzJson());
  ASSERT_TRUE(hz.ok()) << hz.status().ToString();
  EXPECT_EQ(hz.value().Find("status")->str, "stale");
  EXPECT_EQ(hz.value()
                .Find("synopses")
                ->Find("drifted")
                ->Find("health")
                ->str,
            "stale");

  // Re-registering a fresh version clears the verdict (new epoch).
  auto doc = DriftedDoc();
  svc.registry().Register("drifted", estimator::Synopsis::Build(*doc, {}),
                          doc);
  EXPECT_EQ(svc.registry().Health("drifted"), SynopsisHealth::kUnknown);
  Result<json::Value> hz2 = json::Parse(svc.HealthzJson());
  ASSERT_TRUE(hz2.ok());
  EXPECT_EQ(hz2.value().Find("status")->str, "ok");
}

TEST(ShadowSamplingTest, StaleDowngradePolicyAppliesPr3Semantics) {
  ServiceOptions opt = FullSampling();
  opt.drift_min_samples = 2;
  opt.stale_downgrade = true;
  EstimationService svc(opt);
  svc.registry().Register(
      "drifted", estimator::Synopsis::Build(testing::MakePaperDocument(), {}),
      DriftedDoc());

  for (int i = 0; i < 2; ++i) {
    EstimateOutcome out = svc.Estimate("drifted", "//A/B");
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out.degraded);  // not yet convicted
    ASSERT_TRUE(svc.DrainShadow());
  }
  ASSERT_EQ(svc.registry().Health("drifted"), SynopsisHealth::kStale);

  // Permissive request: answered, tagged degraded.
  EstimateOutcome tagged = svc.Estimate("drifted", "//A/B");
  ASSERT_TRUE(tagged.ok());
  EXPECT_TRUE(tagged.degraded);

  // Strict request: refused with kUnavailable.
  QueryRequest strict{"drifted", "//A/B"};
  strict.allow_degraded = false;
  EstimateOutcome refused = svc.Estimate(strict);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);

  // Report-only default: same drift, untouched answers.
  ServiceOptions report = FullSampling();
  report.drift_min_samples = 2;
  EstimationService svc2(report);
  svc2.registry().Register(
      "drifted", estimator::Synopsis::Build(testing::MakePaperDocument(), {}),
      DriftedDoc());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(svc2.Estimate("drifted", "//A/B").ok());
    ASSERT_TRUE(svc2.DrainShadow());
  }
  ASSERT_EQ(svc2.registry().Health("drifted"), SynopsisHealth::kStale);
  EstimateOutcome untouched = svc2.Estimate("drifted", "//A/B");
  ASSERT_TRUE(untouched.ok());
  EXPECT_FALSE(untouched.degraded);
}

TEST(ShadowSamplingTest, BacklogCapSuppressesInsteadOfQueueing) {
  ServiceOptions opt = FullSampling();
  opt.accuracy_max_pending = 1;
  EstimationService svc(opt);
  auto doc = PaperDoc();
  svc.registry().Register("paper", estimator::Synopsis::Build(*doc, {}), doc);

  // Stall the workers so the first shadow occupies the only pending
  // slot; every further sample must drop as backlog_suppressed.
  {
    ScopedFault slow(std::string(ThreadPool::kSlowWorkerFaultSite),
                     FaultConfig{.probability = 1.0, .payload = 40});
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(svc.Estimate("paper", "//A/B").ok());
    }
  }
  ASSERT_TRUE(svc.DrainShadow());
  EXPECT_EQ(Phase(svc, "started"), 6u);
  EXPECT_GE(Phase(svc, "backlog_suppressed"), 1u);
  EXPECT_EQ(Phase(svc, "started"),
            Phase(svc, "recorded") + Phase(svc, "backlog_suppressed") +
                Phase(svc, "deadline_suppressed"));
}

// The acceptance-criteria test: full-rate shadow sampling over the
// SSPlays Table-2 workload reproduces the accuracy-regression error
// means per class, with order-free chain classes exact to <= 1e-9
// (Theorem 4.1, serving-side).
TEST(ShadowGoldenTest, ShadowReproducesAccuracyRegressionMeans) {
  bench_util::BenchConfig config;  // the recorded config (seed 42)
  config.datasets = {"ssplays"};
  std::vector<bench_util::DatasetRun> runs = bench_util::MakeDatasets(config);
  ASSERT_EQ(runs.size(), 1u);
  const workload::Workload w = bench_util::MakeWorkload(runs[0].doc, config);
  // Table-2 fingerprints guard the measurement population (as in
  // accuracy_regression_test).
  ASSERT_EQ(w.simple.size(), 200u);
  ASSERT_EQ(w.branch.size(), 654u);
  ASSERT_EQ(w.order_branch_target.size(), 511u);
  ASSERT_EQ(w.order_trunk_target.size(), 480u);

  estimator::SynopsisOptions syn_opt;
  syn_opt.p_variance = 0;
  syn_opt.o_variance = 0;
  estimator::Synopsis synopsis =
      estimator::Synopsis::Build(runs[0].doc, syn_opt);
  auto doc =
      std::make_shared<const xml::Document>(std::move(runs[0].doc));

  ServiceOptions opt = FullSampling();
  EstimationService svc(opt);
  svc.registry().Register("ssplays", std::move(synopsis), doc);

  // Reference partition: the same estimates the service will serve,
  // bucketed by the same classifier, accumulated exactly.
  struct RefClass {
    uint64_t count = 0;
    double sum_abs = 0;
    double sum_q = 0;
  };
  std::map<std::string, RefClass> want;
  uint64_t issued = 0;
  auto issue = [&](const std::vector<workload::WorkloadQuery>& qs) {
    for (const workload::WorkloadQuery& wq : qs) {
      const std::string text = wq.query.ToString();
      EstimateOutcome out = svc.Estimate("ssplays", text);
      ASSERT_TRUE(out.ok()) << text << ": " << out.status().ToString();
      ASSERT_FALSE(out.degraded) << text;
      ++issued;
      const obs::QueryClass cls =
          ClassifyQuery(xpath::Canonicalize(wq.query));
      RefClass& rc = want[cls.Label()];
      rc.count += 1;
      rc.sum_abs +=
          std::fabs(obs::AccuracyMath::SignedRelError(
              out.value(), static_cast<double>(wq.true_count)));
      rc.sum_q += obs::AccuracyMath::QError(
          out.value(), static_cast<double>(wq.true_count));
    }
  };
  issue(w.simple);
  issue(w.branch);
  issue(w.order_branch_target);
  issue(w.order_trunk_target);
  ASSERT_TRUE(svc.DrainShadow(120'000)) << "shadow backlog did not drain";

  // Conservation: every eligible request was sampled, every sample
  // recorded (oracle attached, no deadlines, cap never hit).
  EXPECT_EQ(Phase(svc, "started"), issued);
  EXPECT_EQ(Phase(svc, "recorded"), issued);
  EXPECT_EQ(Phase(svc, "backlog_suppressed"), 0u);

  const std::vector<obs::ClassAccuracy> got = svc.accuracy().Classes();
  ASSERT_EQ(got.size(), want.size());
  size_t exact_chain_classes = 0;
  for (const obs::ClassAccuracy& c : got) {
    auto it = want.find(c.label);
    ASSERT_NE(it, want.end()) << c.label;
    EXPECT_EQ(c.count, it->second.count) << c.label;
    const double want_abs = it->second.sum_abs /
                            static_cast<double>(it->second.count);
    const double want_q =
        it->second.sum_q / static_cast<double>(it->second.count);
    // The shadow truth comes from the same exact evaluator that labeled
    // the workload, and the estimates are served bit-identically, so
    // the means must agree to accumulation roundoff.
    EXPECT_NEAR(c.mean_abs_error, want_abs, 1e-12) << c.label;
    EXPECT_NEAR(c.mean_qerror, want_q, 1e-12) << c.label;
    // Theorem 4.1 serving-side: order-free chain queries on the
    // recursion-free SSPlays at p-variance 0 estimate exactly.
    if (c.label.find("axis=order") == std::string::npos &&
        c.label.find("shape=chain") != std::string::npos) {
      ++exact_chain_classes;
      EXPECT_LE(c.mean_abs_error, 1e-9) << c.label;
      EXPECT_LE(c.mean_qerror, 1.0 + 1e-9) << c.label;
    }
  }
  EXPECT_GT(exact_chain_classes, 0u);

  // A healthy synopsis under 1845 full-rate samples must never trip.
  EXPECT_EQ(svc.registry().Health("ssplays"), SynopsisHealth::kHealthy);
  const std::optional<obs::SynopsisAccuracy> drift =
      svc.accuracy().SynopsisState("ssplays");
  ASSERT_TRUE(drift.has_value());
  EXPECT_EQ(drift->samples, issued);
  EXPECT_FALSE(drift->stale);
  EXPECT_LT(drift->ewma_qerror, 2.0);

  // The whole accuracy export stays strictly parseable at this scale.
  Result<json::Value> statsz = json::Parse(svc.StatszJson());
  ASSERT_TRUE(statsz.ok()) << statsz.status().ToString();
  EXPECT_TRUE(statsz.value().Has("accuracy"));
}

}  // namespace
}  // namespace xee::service
