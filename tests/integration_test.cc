// End-to-end properties of the full pipeline (datagen -> labeling ->
// synopsis -> estimator) validated against the exact evaluator, on all
// three datasets. Error bounds are calibrated generously above the
// observed values (see EXPERIMENTS.md) so the tests catch regressions,
// not noise.

#include <gtest/gtest.h>

#include <map>

#include "bench_util/metrics.h"
#include "datagen/datagen.h"
#include "estimator/estimator.h"
#include "eval/exact_evaluator.h"
#include "workload/workload.h"

namespace xee {
namespace {

using bench_util::ErrorAccumulator;

struct Pipeline {
  explicit Pipeline(const std::string& name) {
    datagen::GenOptions gopt;
    gopt.scale = 0.1;
    doc = datagen::GenerateByName(name, gopt).value();
    workload::WorkloadOptions wopt;
    wopt.simple_count = 150;
    wopt.branch_count = 150;
    w = workload::GenerateWorkload(doc, wopt);
  }

  estimator::Synopsis Build(double pv, double ov) const {
    estimator::SynopsisOptions opt;
    opt.p_variance = pv;
    opt.o_variance = ov;
    return estimator::Synopsis::Build(doc, opt);
  }

  xml::Document doc;
  workload::Workload w;
};

double MeanError(const estimator::Estimator& est,
                 const std::vector<workload::WorkloadQuery>& list) {
  ErrorAccumulator acc;
  for (const auto& wq : list) {
    auto r = est.Estimate(wq.query);
    EXPECT_TRUE(r.ok()) << wq.query.ToString() << ": "
                        << r.status().ToString();
    if (r.ok()) acc.Add(r.value(), wq.true_count);
  }
  EXPECT_GT(acc.count(), 0u);
  return acc.Mean();
}

class PipelineTest : public ::testing::TestWithParam<std::string> {
 protected:
  static Pipeline& Get(const std::string& name) {
    // Built once per dataset across all tests in this binary.
    static std::map<std::string, Pipeline>* cache =
        new std::map<std::string, Pipeline>();
    auto it = cache->find(name);
    if (it == cache->end()) it = cache->emplace(name, Pipeline(name)).first;
    return it->second;
  }
};

// Theorem 4.1: with exact tables, simple queries are estimated exactly —
// on recursion-free data. SSPlays and DBLP are recursion-free; XMark's
// parlist/listitem recursion makes the theorem's premise fail, so only a
// small average error is required there (the paper's Figure 10(c) also
// shows nonzero error for XMark).
TEST_P(PipelineTest, Theorem41SimpleQueriesExactAtVarianceZero) {
  Pipeline& p = Get(GetParam());
  estimator::Synopsis syn = p.Build(0, 0);
  estimator::Estimator est(syn);
  if (GetParam() == "xmark") {
    EXPECT_LT(MeanError(est, p.w.simple), 0.15);
  } else {
    for (const auto& wq : p.w.simple) {
      auto r = est.Estimate(wq.query);
      ASSERT_TRUE(r.ok());
      EXPECT_DOUBLE_EQ(r.value(), static_cast<double>(wq.true_count))
          << wq.query.ToString();
    }
  }
}

TEST_P(PipelineTest, BranchQueriesLowErrorAtVarianceZero) {
  Pipeline& p = Get(GetParam());
  estimator::Synopsis syn = p.Build(0, 0);
  estimator::Estimator est(syn);
  // Paper: < 7% at variance 0; calibrated bound 12%.
  EXPECT_LT(MeanError(est, p.w.branch), 0.12);
}

TEST_P(PipelineTest, OrderQueriesLowErrorAtVarianceZero) {
  Pipeline& p = Get(GetParam());
  estimator::Synopsis syn = p.Build(0, 0);
  estimator::Estimator est(syn);
  // Paper: < 6% at variance 0; calibrated bounds 15% / 5%.
  EXPECT_LT(MeanError(est, p.w.order_branch_target), 0.15);
  EXPECT_LT(MeanError(est, p.w.order_trunk_target), 0.05);
}

TEST_P(PipelineTest, ErrorGrowsNoWorseThanCoarseSynopsis) {
  Pipeline& p = Get(GetParam());
  estimator::Synopsis syn_exact = p.Build(0, 0);
  estimator::Synopsis syn_coarse = p.Build(8, 8);
  estimator::Estimator exact(syn_exact);
  estimator::Estimator coarse(syn_coarse);
  const double exact_err = MeanError(exact, p.w.branch);
  const double coarse_err = MeanError(coarse, p.w.branch);
  EXPECT_LE(exact_err, coarse_err + 1e-9);
}

TEST_P(PipelineTest, MemoryShrinksWithVariance) {
  Pipeline& p = Get(GetParam());
  estimator::Synopsis tight = p.Build(0, 0);
  estimator::Synopsis loose = p.Build(8, 8);
  EXPECT_LE(loose.PHistogramBytes(), tight.PHistogramBytes());
  EXPECT_LE(loose.OHistogramBytes(), tight.OHistogramBytes());
  // The encoding table and pid tree are variance-independent.
  EXPECT_EQ(loose.EncodingTableBytes(), tight.EncodingTableBytes());
  EXPECT_EQ(loose.PidTreeBytes(), tight.PidTreeBytes());
}

TEST_P(PipelineTest, EstimatesAreFiniteAndNonNegative) {
  Pipeline& p = Get(GetParam());
  for (double pv : {0.0, 4.0, 16.0}) {
    estimator::Synopsis syn = p.Build(pv, pv);
    estimator::Estimator est(syn);
    for (const auto* list :
         {&p.w.simple, &p.w.branch, &p.w.order_branch_target,
          &p.w.order_trunk_target}) {
      for (const auto& wq : *list) {
        auto r = est.Estimate(wq.query);
        ASSERT_TRUE(r.ok()) << wq.query.ToString();
        EXPECT_GE(r.value(), 0) << wq.query.ToString();
        EXPECT_TRUE(std::isfinite(r.value())) << wq.query.ToString();
      }
    }
  }
}

// The two-pass semi-join reducer must fully reduce tree queries, like
// the fixpoint loop (classic acyclic full-reducer result) — checked on
// real workloads, not just the paper fixture.
TEST_P(PipelineTest, TwoPassJoinEquivalentToFixpoint) {
  Pipeline& p = Get(GetParam());
  estimator::Synopsis syn = p.Build(0, 0);
  estimator::Estimator fix(syn), two(syn);  // two-pass reducer by default
  fix.set_join_to_fixpoint(true);
  for (const auto* list : {&p.w.simple, &p.w.branch}) {
    for (const auto& wq : *list) {
      EXPECT_DOUBLE_EQ(fix.Estimate(wq.query).value(),
                       two.Estimate(wq.query).value())
          << wq.query.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, PipelineTest,
                         ::testing::Values("ssplays", "dblp", "xmark"));

}  // namespace
}  // namespace xee
