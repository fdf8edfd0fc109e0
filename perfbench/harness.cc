#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include <sched.h>

namespace xee::perfbench {
namespace {

uint64_t ReadClock(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

uint64_t ThreadCpuNs() { return ReadClock(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ReadClock(CLOCK_PROCESS_CPUTIME_ID); }

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  (void)sched_setaffinity(0, sizeof(one), &one);
}

void CpuRotation::Release() {
  if (cpus_.size() < 2) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : cpus_) CPU_SET(c, &all);
  (void)sched_setaffinity(0, sizeof(all), &all);
}

double LatencyHist::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Rank of the q-quantile among the sorted samples (1-based, nearest
  // rank), then the bucket that holds it.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (uint64_t ns = 0; ns < kFine; ++ns) {
    seen += fine_[ns];
    if (seen >= rank) return static_cast<double>(ns);
  }
  for (uint64_t us = 0; us <= kCoarse; ++us) {
    seen += coarse_[us];
    // Bucket midpoint: the bucket spans [us, us + 1) µs.
    if (seen >= rank) return (static_cast<double>(us) + 0.5) * 1000.0;
  }
  return static_cast<double>(kCoarse) * 1000.0;
}

void WindowedLatency::Close(Clock::time_point now) {
  if (hist_.count() > 0 && busy_ns_ > 0) {
    p50_.push_back(hist_.Quantile(0.50));
    p90_.push_back(hist_.Quantile(0.90));
    rate_.push_back(static_cast<double>(items_) /
                    (static_cast<double>(busy_ns_) / 1e9));
    samples_ += hist_.count();
  }
  Reset(now);
}

void WindowedLatency::Reset(Clock::time_point now) {
  hist_.Clear();
  busy_ns_ = 0;
  items_ = 0;
  start_ = now;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Draw(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // %.17g keeps every digit the double carries.
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0);
    out += buf;
    out += "\"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

}  // namespace xee::perfbench
