// xee_perfbench: runs one benchmark workload and prints its result as a
// JSON object on the last line of standard output.
//
//   xee_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Flags also accept the --flag=value form. Exit code 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "xee_perfbench: %s\nusage: xee_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\n"
               "workloads:",
               why);
  for (const std::string& w : xee::perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const std::string& s, unsigned long long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  xee::perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage(("missing value for " + flag).c_str());
    }
    unsigned long long n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      opt.seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0) {
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      opt.trace = value == "1";
    } else {
      return Usage(("bad flag " + flag + " " + value).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& w : xee::perfbench::WorkloadNames()) {
    known = known || w == opt.workload;
  }
  if (!known) return Usage(("unknown workload " + opt.workload).c_str());

  std::fprintf(stderr,
               "xee_perfbench: workload=%s seed=%llu seconds=%g trace=%d "
               "build=%s nproc=%u\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0, XEE_PERFBENCH_BUILD_TYPE,
               std::thread::hardware_concurrency());
  const xee::perfbench::RunResult r = xee::perfbench::RunWorkload(opt);
  if (!r.correct) {
    std::fprintf(stderr, "xee_perfbench: INCORRECT: %s\n",
                 r.first_error.c_str());
  }
  std::printf("%s\n", xee::perfbench::ResultJson(r).c_str());
  return 0;
}
