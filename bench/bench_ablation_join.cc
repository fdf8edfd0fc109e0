// Ablation A2 (DESIGN.md): the path-id join as the two-pass full reducer
// (the default: one bottom-up, one top-down half-sweep per edge) vs the
// round-robin fixpoint (both halves per edge, rounds until nothing
// changes). For tree queries the two produce identical candidate lists
// (acyclic full-reducer property), so the interesting dimension is cost:
// containment tests (tag-path tests per parent-tag group and child
// candidate, DESIGN.md §13), half-sweeps, rounds, and wall time.
//
// Also a gate: exits 1 when any estimate (value bits or status code)
// differs between the arms. Registered as the join_ablation_smoke ctest.

#include <bit>
#include <cstdint>
#include <cstdio>

#include "bench_util/metrics.h"
#include "bench_util/runner.h"
#include "estimator/estimator.h"
#include "obs/trace.h"

int main(int argc, char** argv) {
  using namespace xee;
  auto config = bench_util::BenchConfig::FromArgs(argc, argv);
  bench_util::PrintHeader(
      "Ablation A2: path-id join two-pass full reducer vs fixpoint");
  std::printf("%-10s %8s | %9s %7s %6s %8s | %9s %7s %6s %8s | %7s\n",
              "Dataset", "queries", "red-tests", "probes", "rounds", "time",
              "fix-tests", "probes", "rounds", "time", "differ");
  size_t total_differ = 0;
  for (const auto& ds : bench_util::MakeDatasets(config)) {
    workload::Workload w = bench_util::MakeWorkload(ds.doc, config);
    estimator::SynopsisOptions opt;
    opt.build_order = false;
    estimator::Synopsis syn = estimator::Synopsis::Build(ds.doc, opt);

    struct Arm {
      explicit Arm(const estimator::Synopsis& syn) : est(syn) {}
      estimator::Estimator est;
      obs::TraceSpans spans;
      std::vector<uint64_t> out;  // value bits, or the status code
      double seconds = 0;
    };
    Arm reducer(syn), fixpoint(syn);
    fixpoint.est.set_join_to_fixpoint(true);
    for (Arm* arm : {&reducer, &fixpoint}) {
      estimator::EstimateLimits limits;
      limits.trace = &arm->spans;
      arm->seconds = bench_util::TimeSeconds([&] {
        for (const auto* list : {&w.simple, &w.branch}) {
          for (const auto& wq : *list) {
            auto r = arm->est.Estimate(wq.query, limits);
            arm->out.push_back(
                r.ok() ? std::bit_cast<uint64_t>(r.value())
                       : static_cast<uint64_t>(r.status().code()));
          }
        }
      });
    }
    size_t differ = 0;
    for (size_t i = 0; i < reducer.out.size(); ++i) {
      differ += reducer.out[i] != fixpoint.out[i];
    }
    total_differ += differ;
    std::printf(
        "%-10s %8zu | %9llu %7llu %6llu %7.3fs | %9llu %7llu %6llu %7.3fs | "
        "%7zu\n",
        ds.name.c_str(), reducer.out.size(),
        static_cast<unsigned long long>(reducer.spans.containment_tests),
        static_cast<unsigned long long>(reducer.spans.join_probes),
        static_cast<unsigned long long>(reducer.spans.fixpoint_rounds),
        reducer.seconds,
        static_cast<unsigned long long>(fixpoint.spans.containment_tests),
        static_cast<unsigned long long>(fixpoint.spans.join_probes),
        static_cast<unsigned long long>(fixpoint.spans.fixpoint_rounds),
        fixpoint.seconds, differ);
  }
  std::printf(
      "\nexpected: differ = 0 on every dataset — the two-pass reducer is a "
      "full reducer for tree queries, so both arms serve the same bits. "
      "The reducer runs one bottom-up and one top-down half-sweep per "
      "edge (fewer when a list empties bottom-up; rounds = 2 per join); "
      "the fixpoint "
      "arm runs both halves per edge each round and needs one confirming "
      "round past the last removal, so it usually runs more probes and more "
      "tag tests (it repeats the bottom-up tests every round, while the "
      "reducer's top-down half tests only under \"*\" parents).\n");
  if (total_differ != 0) {
    std::fprintf(stderr, "FAIL: %zu estimates differ between the arms\n",
                 total_differ);
    return 1;
  }
  return 0;
}
