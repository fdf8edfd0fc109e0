// Direct Estimator::Estimate cost per dataset x workload class: the cold
// path of the service with the service taken away. Inputs mirror
// perfbench's tenants (datagen seed 42 + k, workload seed 142 + k for
// ssplays, dblp, xmark in that order, scale 1, 400 queries generated per
// class); queries the estimator rejects are left out.
//
// Each of --reps passes (default 5, after one warm-up pass that also
// drops rejected queries) times every query's Estimate call on its own.
// Reported per query: mean and p99 microseconds over all timed calls,
// and the join's work counts — containment tests, join probes (edge
// sweeps) and fixpoint rounds.
//
//   ./build/bench/bench_estimate_classes [--reps=N] [--scale=F] [--queries=N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "estimator/estimator.h"
#include "obs/trace.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace xee;
  size_t reps = 5;
  double scale = 1.0;
  size_t queries = 400;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--reps=", 7) == 0) {
      reps = static_cast<size_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      scale = std::atof(arg + 8);
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      queries = static_cast<size_t>(std::atoll(arg + 10));
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (known: --reps= --scale= --queries=)\n",
                   arg);
      return 2;
    }
  }

  const char* kDatasets[] = {"ssplays", "dblp", "xmark"};
  const char* kClasses[] = {"simple", "branch", "order-branch",
                            "order-trunk"};
  std::printf("%-8s %-13s %7s %10s %10s %12s %12s %12s\n", "dataset",
              "class", "queries", "mean_us", "p99_us", "tests/query",
              "probes/query", "rounds/query");
  for (size_t k = 0; k < std::size(kDatasets); ++k) {
    datagen::GenOptions gen;
    gen.seed = 42 + k;
    gen.scale = scale;
    const xml::Document doc =
        datagen::GenerateByName(kDatasets[k], gen).value();
    const estimator::Synopsis syn = estimator::Synopsis::Build(doc, {});
    const estimator::Estimator est(syn);
    workload::WorkloadOptions wo;
    wo.seed = 142 + k;
    wo.simple_count = queries;
    wo.branch_count = queries;
    const workload::Workload wl = workload::GenerateWorkload(doc, wo);
    const std::vector<workload::WorkloadQuery>* lists[] = {
        &wl.simple, &wl.branch, &wl.order_branch_target,
        &wl.order_trunk_target};
    for (size_t c = 0; c < std::size(lists); ++c) {
      std::vector<xpath::Query> qs;
      for (const workload::WorkloadQuery& wq : *lists[c]) {
        if (est.Estimate(wq.query).ok()) qs.push_back(wq.query);
      }
      if (qs.empty()) continue;
      obs::TraceSpans spans;
      estimator::EstimateLimits traced;
      traced.trace = &spans;
      for (const xpath::Query& q : qs) (void)est.Estimate(q, traced);
      std::vector<double> us;
      us.reserve(qs.size() * reps);
      const size_t tests_before = est.containment_tests();
      for (size_t r = 0; r < reps; ++r) {
        for (const xpath::Query& q : qs) {
          const auto t0 = std::chrono::steady_clock::now();
          const Result<double> v = est.Estimate(q);
          const auto t1 = std::chrono::steady_clock::now();
          if (!v.ok()) std::abort();
          us.push_back(std::chrono::duration<double, std::micro>(t1 - t0)
                           .count());
        }
      }
      const double calls = static_cast<double>(us.size());
      const double tests =
          static_cast<double>(est.containment_tests() - tests_before) / calls;
      double sum = 0;
      for (double u : us) sum += u;
      std::sort(us.begin(), us.end());
      const double p99 = us[std::min(us.size() - 1,
                                     static_cast<size_t>(calls * 0.99))];
      const double n = static_cast<double>(qs.size());
      std::printf("%-8s %-13s %7zu %10.2f %10.2f %12.1f %12.3f %12.3f\n",
                  kDatasets[k], kClasses[c], qs.size(), sum / calls, p99,
                  tests, static_cast<double>(spans.join_probes) / n,
                  static_cast<double>(spans.fixpoint_rounds) / n);
    }
  }
  return 0;
}
