// Serving-layer throughput: queries/sec through EstimationService as a
// function of worker-thread count (1/2/4/8) and plan-cache temperature
// (cold = every query is estimated, warm = answers cached), plus the
// single-query latency win of a warm answer cache over the uncached
// parse+join path. Each measurement is emitted as one JSON line so
// future PRs can track the serving trajectory:
//
//   {"bench":"service_throughput","dataset":"xmark","mode":"warm",
//    "threads":4,"queries":...,"seconds":...,"qps":...}
//
// Later phases sweep the shadow-sampling rate (off / 1-in-256 default
// / full) and emit "service_accuracy" rows with the qps cost and the
// shadow volume + aggregate q-error each rate buys; measure the
// instrumentation cost ("service_obs2"); and measure how the warm path
// scales with independent clients and batch fan-out ("service_clients").
//
// Flags: the shared bench flags (--scale, --queries, --seed, --dataset).

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util/runner.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "service/service.h"
#include "workload/workload.h"

namespace xee {
namespace {

// Thread counts above the machine's core count time scheduler
// contention, not the service; their rows are flagged so trend tooling
// can exclude them instead of chasing phantom p99 regressions (an 8-way
// sweep on a 1-core container once reported a 12.6ms parse p99).
bool Oversubscribed(size_t threads) {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 && threads > hw;
}

std::vector<service::QueryRequest> WorkloadRequests(
    const std::string& name, const workload::Workload& wl) {
  std::vector<service::QueryRequest> reqs;
  auto add = [&](const std::vector<workload::WorkloadQuery>& queries) {
    for (const workload::WorkloadQuery& wq : queries) {
      reqs.push_back(service::QueryRequest{name, wq.query.ToString()});
    }
  };
  add(wl.simple);
  add(wl.branch);
  add(wl.order_branch_target);
  add(wl.order_trunk_target);
  return reqs;
}

void EmitRow(const std::string& dataset, const char* mode, size_t threads,
             size_t queries, double seconds) {
  std::printf(
      "{\"bench\":\"service_throughput\",\"dataset\":\"%s\","
      "\"mode\":\"%s\",\"threads\":%zu,\"queries\":%zu,"
      "\"seconds\":%.6f,\"qps\":%.1f%s}\n",
      dataset.c_str(), mode, threads, queries,
      seconds, seconds > 0 ? static_cast<double>(queries) / seconds : 0.0,
      Oversubscribed(threads) ? ",\"oversubscribed\":true" : "");
}

// Delta cursors over one service's stage histograms, emitting one JSON
// row per pipeline stage with its latency quantiles — where a query's
// time actually goes (parse vs join vs formula), tracked across PRs
// like the qps rows above.
//
// The registry histograms are cumulative since service construction, so
// rows read via ServiceStatsSnapshot after a warm-up fold the warm-up's
// samples into the measured mode — that is where the per-mode count
// drift (56 vs 58) and the cold compile tail bleeding into "warm"
// formula quantiles came from. Sync() parks the cursors after warm-up;
// Emit() reports only what the measured run recorded. Stage-emitting
// services also run trace_sample=1, so `count` is the exact number of
// stage executions, stable across runs and modes, rather than a 1-in-16
// sample whose size depends on where the shared sampling cursor parked.
class StageScraper {
 public:
  explicit StageScraper(service::EstimationService& svc) {
    for (size_t i = 0; i < obs::kStageCount; ++i) {
      hists_[i] = &svc.obs().GetHistogram(
          "service.stage." +
          std::string(obs::StageName(static_cast<obs::Stage>(i))) + "_ns");
    }
    hists_[obs::kStageCount] = &svc.obs().GetHistogram("service.request_ns");
    Sync();
  }

  /// Discards everything recorded so far (call after a warm-up).
  void Sync() {
    for (size_t i = 0; i <= obs::kStageCount; ++i)
      (void)wins_[i].Advance(*hists_[i]);
  }

  void Emit(const std::string& dataset, const char* mode, size_t threads) {
    for (size_t i = 0; i <= obs::kStageCount; ++i) {
      const obs::HistogramSnapshot h = wins_[i].Advance(*hists_[i]);
      const std::string_view stage =
          i < obs::kStageCount ? obs::StageName(static_cast<obs::Stage>(i))
                               : std::string_view("request");
      std::printf(
          "{\"bench\":\"service_stage\",\"dataset\":\"%s\",\"mode\":\"%s\","
          "\"threads\":%zu,\"stage\":\"%.*s\",\"count\":%llu,"
          "\"mean_us\":%.3f,\"p50_us\":%.3f,\"p90_us\":%.3f,\"p99_us\":%.3f"
          "%s}\n",
          dataset.c_str(), mode, threads, static_cast<int>(stage.size()),
          stage.data(), static_cast<unsigned long long>(h.count), h.mean / 1e3,
          static_cast<double>(h.p50) / 1e3, static_cast<double>(h.p90) / 1e3,
          static_cast<double>(h.p99) / 1e3,
          Oversubscribed(threads) ? ",\"oversubscribed\":true" : "");
    }
  }

 private:
  obs::Histogram* hists_[obs::kStageCount + 1];
  obs::HistogramWindow wins_[obs::kStageCount + 1];
};

// Shadow-sampling cost and yield: warm single-thread throughput with
// accuracy observability off / at the 1-in-256 default / at full
// sampling, plus the shadow volume and aggregate q-error each setting
// recorded (DESIGN.md §11). The off-vs-256 pair is the number the
// acceptance bar watches: the default sampling rate must be hot-path
// noise. Full sampling shows the worst case — on few cores the shadow
// evaluations compete with the serving thread itself.
void RunAccuracyPhase(const bench_util::DatasetRun& run,
                      const std::shared_ptr<const estimator::Synopsis>& syn,
                      const std::vector<service::QueryRequest>& reqs) {
  for (const size_t sample : {size_t{0}, size_t{256}, size_t{1}}) {
    service::ServiceOptions opt;
    opt.threads = 1;
    opt.accuracy_sample = sample;
    opt.accuracy_max_pending = 1 << 16;
    service::EstimationService svc(opt);
    // Non-owning alias: the dataset outlives the service, and attaching
    // it arms the shadow pipeline's exact-count oracle.
    std::shared_ptr<const xml::Document> doc(
        std::shared_ptr<const xml::Document>(), &run.doc);
    svc.registry().Register(run.name, syn, doc);
    auto run_all = [&] {
      for (const service::QueryRequest& r : reqs) {
        (void)svc.Estimate(r.synopsis, r.xpath);
      }
    };
    run_all();  // warm the answer cache (and absorb first-touch sampling)
    (void)svc.DrainShadow();
    const double secs = bench_util::TimeSeconds(run_all);
    (void)svc.DrainShadow();

    uint64_t count = 0;
    double qerror_weighted = 0;
    for (const obs::ClassAccuracy& c : svc.accuracy().Classes()) {
      count += c.count;
      qerror_weighted += static_cast<double>(c.count) * c.mean_qerror;
    }
    std::printf(
        "{\"bench\":\"service_accuracy\",\"dataset\":\"%s\",\"sample\":%zu,"
        "\"queries\":%zu,\"seconds\":%.6f,\"qps\":%.1f,"
        "\"shadow_started\":%llu,\"shadow_recorded\":%llu,"
        "\"mean_qerror\":%.6f}\n",
        run.name.c_str(), sample, reqs.size(), secs,
        secs > 0 ? static_cast<double>(reqs.size()) / secs : 0.0,
        static_cast<unsigned long long>(
            svc.obs().CounterValue("accuracy.samples", "phase=started")),
        static_cast<unsigned long long>(
            svc.obs().CounterValue("accuracy.samples", "phase=recorded")),
        count > 0 ? qerror_weighted / static_cast<double>(count) : 0.0);
  }
}

// Instrumentation cost (DESIGN.md §16): warm single-thread throughput
// of the shipped configuration — head-sampled traces, shadow sampling,
// per-tenant rows, the time-series store (scraped once per rep), the
// SLO engine, the flight recorder, tail-based trace retention —
// against service::ObsMinimal, which switches every one of those off
// at runtime. EXPERIMENTS.md records the measured paired delta as the
// instrumentation budget.
//
// Methodology: both services are built and warmed up front, then the
// timed reps strictly alternate obs-minimal/on so slow drift (thermal,
// cgroup throttling, a neighbour container waking up) hits both arms
// equally instead of whichever arm ran second. Each timed rep makes
// kObsPasses passes over the workload — a single pass is ~1ms, far too
// short to time against scheduler noise. Each rep's on/obs-minimal
// qps ratio is one paired sample; the phase reports their median and
// interquartile range, not the mean, so one hiccup cannot decide the
// comparison. The on-arm row also carries the tail-retention ledger
// per outcome class, fed by a small deterministic outcome mix (expired
// deadlines, parse errors) driven after the timed reps.
//
// Three hot-path changes cut the cost, found by bisecting with a
// min-of-reps microbench (this macro phase swings a few percent on a
// shared host even with the pairing): the flight recorder's per-event
// fetch_add pair became a single-writer-per-shard load/store (23ns ->
// 3ns per Record), the recorder prefetches the next ring slot so the
// following request's append does not stall on an evicted line, and
// the per-tenant counters moved from registry fetch_adds to
// single-writer lane cells read through derived registry rows.
// Together they roughly halved the obs layer's per-request cost
// (~26ns -> ~13ns on the microbench).
void RunObs2Phase(const bench_util::DatasetRun& run,
                  const std::shared_ptr<const estimator::Synopsis>& syn,
                  const std::vector<service::QueryRequest>& reqs) {
  constexpr size_t kObsReps = 11;
  constexpr size_t kObsPasses = 24;

  service::ServiceOptions on_opt;
  on_opt.threads = 1;
  on_opt.slos = service::DefaultSloSpecs(0.999, 5'000'000'000, 4.0);
  // Every other obs knob rides on its default: the on arm is the
  // shipped configuration.
  const service::ServiceOptions off_opt = service::ObsMinimal(on_opt);

  service::EstimationService off_svc(off_opt);
  service::EstimationService on_svc(on_opt);
  off_svc.registry().Register(run.name, syn);
  on_svc.registry().Register(run.name, syn);
  auto run_all = [&](service::EstimationService& svc) {
    for (size_t p = 0; p < kObsPasses; ++p) {
      for (const service::QueryRequest& r : reqs) {
        (void)svc.Estimate(r.synopsis, r.xpath);
      }
    }
  };
  run_all(off_svc);  // warm both answer caches
  run_all(on_svc);

  const double queries = static_cast<double>(kObsPasses * reqs.size());
  std::vector<double> qps[2];
  uint64_t vnow = 0;
  for (size_t rep = 0; rep < kObsReps; ++rep) {
    for (const bool on : {false, true}) {
      service::EstimationService& svc = on ? on_svc : off_svc;
      const double secs = bench_util::TimeSeconds([&] { run_all(svc); });
      qps[on ? 1 : 0].push_back(secs > 0 ? queries / secs : 0.0);
    }
    // The scrape cadence a live server would see: one ObsTick per rep,
    // advancing the virtual clock past the sample interval so the store
    // and the SLO engine actually do their work.
    vnow += on_opt.ts_interval_us + 1;
    on_svc.ObsTick(vnow);
  }

  // Paired comparison: each rep's on/obs-minimal runs are adjacent in
  // time, so their ratio cancels whatever the machine was doing that
  // rep. The reported delta is the median ratio with its quartiles; the
  // per-arm medians are kept for absolute trend tracking.
  std::vector<double> ratios;
  for (size_t rep = 0; rep < kObsReps; ++rep) {
    if (qps[0][rep] > 0) ratios.push_back(qps[1][rep] / qps[0][rep]);
  }
  std::sort(ratios.begin(), ratios.end());
  if (ratios.empty()) ratios.push_back(1.0);
  const double median_ratio = ratios[ratios.size() / 2];
  const double q1_ratio = ratios[ratios.size() / 4];
  const double q3_ratio = ratios[3 * ratios.size() / 4];
  double median_qps[2];
  for (int arm = 0; arm < 2; ++arm) {
    std::sort(qps[arm].begin(), qps[arm].end());
    median_qps[arm] = qps[arm][kObsReps / 2];
  }

  // Deterministic outcome mix so the retention ledger shows real
  // per-class hits, not just the odd slow request.
  for (size_t i = 0; i < 4; ++i) {
    service::QueryRequest r = reqs[i % reqs.size()];
    r.deadline = Deadline::AlreadyExpired();
    (void)on_svc.Estimate(r);
    (void)on_svc.Estimate(run.name, "//malformed[@");
  }
  std::string tail_fields;
  uint64_t tail_total = 0;
  for (const char* cls :
       {"shed", "deadline", "error", "pruned", "degraded", "slow"}) {
    const uint64_t n = on_svc.obs().CounterValue(
        "service.trace.tail", std::string("class=") + cls);
    tail_total += n;
    tail_fields += ",\"tail_" + std::string(cls) + "\":" + std::to_string(n);
  }
  tail_fields += ",\"tail_total\":" + std::to_string(tail_total);

  const std::string ratio_fields =
      ",\"median_ratio\":" + std::to_string(median_ratio) +
      ",\"ratio_q1\":" + std::to_string(q1_ratio) +
      ",\"ratio_q3\":" + std::to_string(q3_ratio) +
      ",\"ratio_iqr\":" + std::to_string(q3_ratio - q1_ratio);
  for (const bool on : {false, true}) {
    std::printf(
        "{\"bench\":\"service_obs2\",\"dataset\":\"%s\",\"arm\":\"%s\","
        "\"queries\":%zu,\"reps\":%zu,\"median_qps\":%.1f%s}\n",
        run.name.c_str(), on ? "on" : "obs-minimal",
        kObsPasses * reqs.size(), kObsReps, median_qps[on ? 1 : 0],
        on ? (ratio_fields + tail_fields).c_str() : "");
  }
  std::printf(
      "\ninstrumentation: on %.0f qps vs obs-minimal %.0f qps "
      "(paired median %+.2f%%, IQR %+.2f%% .. %+.2f%%)\n\n",
      median_qps[1], median_qps[0], 100.0 * (median_ratio - 1.0),
      100.0 * (q1_ratio - 1.0), 100.0 * (q3_ratio - 1.0));
}

// Warm-path scaling (DESIGN.md §7): T = 1/2/4 independent clients, each
// looping exact repeats through Estimate on warm answers, and one client
// running the whole query set through EstimateBatch against the same
// batch run inline (Estimate per member on the client thread). Both the
// shipped options and service::ObsMinimal are measured: the first is
// what callers get, the second is the floor the warm path can reach.
//
// Methodology as in the obs2 phase: every service is built and warmed up
// front, and each rep measures every (arm, mode, T) cell once in a fixed
// interleaved order, so drift hits all cells alike. A cell runs for
// kClientSlice of wall time; its qps is the completed requests over the
// slice. Rows report the median over reps with the quartiles; the
// scaling ratios (4 clients vs 1, batch vs inline) are medians of the
// per-rep ratios, which cancel whatever the machine did in that rep.
void RunClientsPhase(const std::string& dataset,
                     const std::shared_ptr<const estimator::Synopsis>& syn,
                     const std::vector<service::QueryRequest>& reqs) {
  constexpr size_t kReps = 9;
  constexpr auto kClientSlice = std::chrono::milliseconds(100);
  constexpr size_t kClientCounts[] = {1, 2, 4};
  using Clock = std::chrono::steady_clock;

  service::ServiceOptions on_opt;  // defaults (threads = hardware)
  const service::ServiceOptions arms[] = {on_opt,
                                          service::ObsMinimal(on_opt)};
  const char* arm_names[] = {"default", "obs-minimal"};
  std::vector<std::unique_ptr<service::EstimationService>> svcs;
  for (const service::ServiceOptions& o : arms) {
    svcs.push_back(std::make_unique<service::EstimationService>(o));
    svcs.back()->registry().Register(dataset, syn);
    (void)svcs.back()->EstimateBatch(reqs);  // warm the answers
    for (const service::QueryRequest& r : reqs) (void)svcs.back()->Estimate(r);
  }

  // `clients` threads loop Estimate over the query set (each from its
  // own offset) for one slice; returns requests per second.
  auto run_clients = [&](service::EstimationService& svc, size_t clients) {
    std::atomic<uint64_t> done{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const Clock::time_point end = Clock::now() + kClientSlice;
        uint64_t n = 0;
        for (size_t i = c * reqs.size() / clients; Clock::now() < end;) {
          for (size_t k = 0; k < 64; ++k, ++n) {
            (void)svc.Estimate(reqs[i]);
            if (++i == reqs.size()) i = 0;
          }
        }
        done.fetch_add(n);
      });
    }
    const Clock::time_point start = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    return static_cast<double>(done.load()) / secs;
  };
  // The whole query set per call, through EstimateBatch or inline.
  auto run_batches = [&](service::EstimationService& svc, bool batch) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + kClientSlice;
    uint64_t n = 0;
    while (Clock::now() < end) {
      if (batch) {
        (void)svc.EstimateBatch(reqs);
      } else {
        for (const service::QueryRequest& r : reqs) (void)svc.Estimate(r);
      }
      n += reqs.size();
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    return static_cast<double>(n) / secs;
  };

  // cells[arm][k]: k < 3 are the client counts, 3 = batch, 4 = inline.
  constexpr size_t kCells = std::size(kClientCounts) + 2;
  std::vector<double> qps[2][kCells];
  for (size_t rep = 0; rep < kReps; ++rep) {
    for (size_t arm = 0; arm < 2; ++arm) {
      service::EstimationService& svc = *svcs[arm];
      for (size_t k = 0; k < std::size(kClientCounts); ++k) {
        qps[arm][k].push_back(run_clients(svc, kClientCounts[k]));
      }
      qps[arm][3].push_back(run_batches(svc, /*batch=*/true));
      qps[arm][4].push_back(run_batches(svc, /*batch=*/false));
    }
  }

  // Median and quartiles of a sample (sorted copy).
  auto quartiles = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return std::array<double, 3>{v[v.size() / 4], v[v.size() / 2],
                                 v[3 * v.size() / 4]};
  };
  auto ratio = [&](const std::vector<double>& num,
                   const std::vector<double>& den) {
    std::vector<double> r;
    for (size_t i = 0; i < num.size(); ++i) r.push_back(num[i] / den[i]);
    return quartiles(r);
  };
  for (size_t arm = 0; arm < 2; ++arm) {
    for (size_t k = 0; k < kCells; ++k) {
      const std::array<double, 3> q = quartiles(qps[arm][k]);
      const bool clients = k < std::size(kClientCounts);
      std::printf(
          "{\"bench\":\"service_clients\",\"dataset\":\"%s\","
          "\"arm\":\"%s\",\"mode\":\"%s\",\"clients\":%zu,"
          "\"pool_threads\":%zu,\"reps\":%zu,\"median_qps\":%.1f,"
          "\"q1_qps\":%.1f,\"q3_qps\":%.1f,\"iqr_qps\":%.1f}\n",
          dataset.c_str(), arm_names[arm],
          clients ? "clients" : (k == 3 ? "batch" : "inline"),
          clients ? kClientCounts[k] : size_t{1}, svcs[arm]->threads(),
          kReps, q[1], q[0], q[2], q[2] - q[0]);
    }
    const std::array<double, 3> scale = ratio(qps[arm][2], qps[arm][0]);
    const std::array<double, 3> fan = ratio(qps[arm][3], qps[arm][4]);
    const std::array<double, 3> one = quartiles(qps[arm][0]);
    std::printf(
        "%s: 4 clients %.2fx one client (IQR %.2f..%.2f); batch %.2fx "
        "inline (IQR %.2f..%.2f); one-client warm hit %.3f us\n",
        arm_names[arm], scale[1], scale[0], scale[2], fan[1], fan[0], fan[2],
        1e6 / one[1]);
  }
  std::printf("\n");
}

void RunDataset(const bench_util::DatasetRun& run,
                const bench_util::BenchConfig& config) {
  bench_util::PrintHeader("Service throughput — " + run.name);

  auto synopsis = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(run.doc, {}));
  workload::Workload wl = bench_util::MakeWorkload(run.doc, config);
  std::vector<service::QueryRequest> reqs = WorkloadRequests(run.name, wl);
  if (reqs.empty()) {
    std::printf("no queries generated; skipping\n");
    return;
  }
  std::printf("%zu workload queries\n\n", reqs.size());

  // Latency: warm answer cache vs the uncached parse+join path, single
  // thread, mean microseconds per query. trace_sample=1 so the stage
  // rows count every stage execution (see StageScraper).
  {
    service::EstimationService svc({.threads = 1, .trace_sample = 1});
    svc.registry().Register(run.name, synopsis);
    StageScraper stages(svc);
    auto run_all = [&] {
      for (const service::QueryRequest& r : reqs) {
        (void)svc.Estimate(r.synopsis, r.xpath);
      }
    };
    const double cold_s = bench_util::TimeSeconds(run_all);
    EmitRow(run.name, "cold", 1, reqs.size(), cold_s);
    // Cold rows carry the estimate path: parse, the path-id joins, and
    // the formulas around them.
    stages.Emit(run.name, "cold", 1);
    const double warm_s = bench_util::TimeSeconds(run_all);
    EmitRow(run.name, "warm", 1, reqs.size(), warm_s);
    // Warm rows are probe-only by construction (exact hits skip parse);
    // earlier revisions emitted cumulative histograms here, so "warm"
    // quantiles silently included every cold sample.
    stages.Emit(run.name, "warm", 1);
    std::printf(
        "\nsingle-thread mean latency: cold %.1fus/query, warm %.1fus/query "
        "(%.1fx)\n\n",
        1e6 * cold_s / static_cast<double>(reqs.size()),
        1e6 * warm_s / static_cast<double>(reqs.size()),
        warm_s > 0 ? cold_s / warm_s : 0.0);
  }

  // Aggregate throughput vs worker-thread count, warm cache, batch API.
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    service::EstimationService svc(
        {.threads = threads, .trace_sample = 1});
    svc.registry().Register(run.name, synopsis);
    (void)svc.EstimateBatch(reqs);  // warm the answer cache
    StageScraper stages(svc);  // measured reps only, not the warm-up
    // Enough repetitions to measure meaningfully at any thread count.
    const size_t reps = 4;
    const double secs = bench_util::TimeSeconds([&] {
      for (size_t r = 0; r < reps; ++r) (void)svc.EstimateBatch(reqs);
    });
    EmitRow(run.name, "warm-batch", threads, reps * reqs.size(), secs);
    stages.Emit(run.name, "warm-batch", threads);
  }

  RunAccuracyPhase(run, synopsis, reqs);
  RunObs2Phase(run, synopsis, reqs);
  RunClientsPhase(run.name, synopsis, reqs);

  std::printf("\n");
}

}  // namespace
}  // namespace xee

int main(int argc, char** argv) {
  xee::bench_util::BenchConfig config =
      xee::bench_util::BenchConfig::FromArgs(argc, argv);
  for (const xee::bench_util::DatasetRun& run :
       xee::bench_util::MakeDatasets(config)) {
    xee::RunDataset(run, config);
  }
  return 0;
}
