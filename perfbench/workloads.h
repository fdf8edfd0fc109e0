#ifndef XEE_PERFBENCH_WORKLOADS_H_
#define XEE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace xee::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics. true: per-layer metrics, read from the
  /// service's own stage timers and trace records (trace_sample = 1).
  bool trace = false;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Sets up the service, runs `options.workload` for `options.seconds`,
/// and returns its ledger and metrics. The name must be one of
/// WorkloadNames().
RunResult RunWorkload(const RunOptions& options);

}  // namespace xee::perfbench

#endif  // XEE_PERFBENCH_WORKLOADS_H_
