// The flight-data observability layer (DESIGN.md §16): the black-box
// flight recorder's ring/intern/merge contracts, the time-series
// store's delta-scrape and window math, the SLO engine's multi-window
// burn-rate state machine, and the service-level wiring — tail-based
// trace retention audited by counter conservation, and fault fires /
// request outcomes landing in the flight ring. Carries the `flight`
// ctest label so the sanitizer slices can run just this surface.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/fault.h"
#include "estimator/synopsis.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "paper_fixture.h"
#include "service/service.h"

namespace xee {
namespace {

using obs::AlertState;
using obs::Counter;
using obs::FlightEventType;
using obs::FlightEventView;
using obs::FlightRecorder;
using obs::Gauge;
using obs::Registry;
using obs::SloEngine;
using obs::SloKind;
using obs::SloSpec;
using obs::TimeSeriesOptions;
using obs::TimeSeriesStore;
using obs::TsPoint;

// --- FlightRecorder -------------------------------------------------

TEST(FlightRecorderTest, RecordsAndDumpsInSequenceOrder) {
  FlightRecorder flight(1 << 14);
  ASSERT_TRUE(flight.enabled());
  const uint32_t paper = flight.Intern("paper");
  const uint32_t dblp = flight.Intern("dblp");
  EXPECT_NE(paper, FlightRecorder::kOverflowId);
  EXPECT_EQ(flight.Intern("paper"), paper);  // idempotent

  flight.Record(FlightEventType::kRequest, paper, 1, 5000);
  flight.Record(FlightEventType::kShed, dblp, 0, 2);
  flight.Record(FlightEventType::kEpochBump, paper, 3, 2, /*t_us=*/77);
  EXPECT_EQ(flight.recorded(), 3u);

  const std::vector<FlightEventView> events = flight.Dump();
  ASSERT_EQ(events.size(), 3u);
  // One writer thread lands on one shard, so seqs stride by kShards —
  // strictly ascending in record order, not consecutive.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_EQ(events[0].type, FlightEventType::kRequest);
  EXPECT_EQ(events[0].name, "paper");
  EXPECT_EQ(events[0].b, 1u);
  EXPECT_EQ(events[0].c, 5000u);
  EXPECT_EQ(events[0].t_us, 0u);  // hot events are clock-free
  EXPECT_EQ(events[1].type, FlightEventType::kShed);
  EXPECT_EQ(events[1].name, "dblp");
  EXPECT_EQ(events[2].type, FlightEventType::kEpochBump);
  EXPECT_EQ(events[2].t_us, 77u);  // caller-passed timestamp survives
}

TEST(FlightRecorderTest, RingBoundsAndKeepsNewest) {
  // 4 slots per shard. A single writer thread lands on one shard, so
  // only its newest 4 survive; the `b` payload identifies each event.
  FlightRecorder flight(FlightRecorder::kShards * FlightRecorder::kSlotBytes *
                        4);
  for (uint64_t i = 1; i <= 10; ++i) {
    flight.Record(FlightEventType::kMark, 0, i, 0);
  }
  EXPECT_EQ(flight.recorded(), 10u);
  const std::vector<FlightEventView> events = flight.Dump();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().b, 7u);
  EXPECT_EQ(events.back().b, 10u);

  // Dump(max_events) truncates to the newest suffix.
  const std::vector<FlightEventView> tail = flight.Dump(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.front().b, 9u);
  EXPECT_EQ(tail.back().b, 10u);
}

TEST(FlightRecorderTest, InternTableIsBoundedWithOverflowId) {
  FlightRecorder flight(1 << 12, /*max_strings=*/3);
  const uint32_t a = flight.Intern("tenant-a");
  const uint32_t b = flight.Intern("tenant-b");
  EXPECT_EQ(a, 1u);  // id 0 is reserved for "__overflow__"
  EXPECT_EQ(b, 2u);
  // Table full: new names degrade to the overflow id, old ids stick.
  EXPECT_EQ(flight.Intern("tenant-c"), FlightRecorder::kOverflowId);
  EXPECT_EQ(flight.Intern("tenant-a"), a);

  flight.Record(FlightEventType::kRequest, flight.Intern("tenant-z"), 0, 0);
  const std::vector<FlightEventView> events = flight.Dump();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "__overflow__");
}

TEST(FlightRecorderTest, ZeroBudgetDisables) {
  FlightRecorder flight(0);
  EXPECT_FALSE(flight.enabled());
  EXPECT_EQ(flight.capacity(), 0u);
  EXPECT_EQ(flight.Intern("paper"), FlightRecorder::kOverflowId);
  flight.Record(FlightEventType::kRequest, 0, 1, 2);
  EXPECT_EQ(flight.recorded(), 0u);
  EXPECT_TRUE(flight.Dump().empty());
  EXPECT_EQ(flight.ToJson(),
            "{\"enabled\":false,\"recorded\":0,\"capacity\":0,"
            "\"events\":[]}");
}

TEST(FlightRecorderTest, ConcurrentRecordSmoke) {
  // 1024 slots *per shard*: every event survives no matter how the
  // writer threads map onto shards (4 threads take 4 consecutive
  // thread-local indices, so they land on 4 distinct shards).
  FlightRecorder flight(1 << 19);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 300;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&flight] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        flight.Record(FlightEventType::kMark, 0, i, 0);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(flight.recorded(), kThreads * kPerThread);
  const std::vector<FlightEventView> events = flight.Dump();
  EXPECT_EQ(events.size(), kThreads * kPerThread);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);  // strictly merged
  }
}

// --- TimeSeriesStore ------------------------------------------------

TEST(TimeSeriesTest, CounterDeltaScrapeAndIntervalGating) {
  Registry reg;
  Counter& c = reg.GetCounter("svc.total");
  TimeSeriesOptions opt;
  opt.interval_us = 1'000'000;
  TimeSeriesStore ts(&reg, opt);
  ts.WatchCounter("svc.total");

  c.Add(5);
  EXPECT_TRUE(ts.Sample(1'000'000));   // first call always samples
  EXPECT_FALSE(ts.Sample(1'999'999));  // inside the interval: no-op
  EXPECT_EQ(ts.samples(), 1u);
  c.Add(7);
  EXPECT_TRUE(ts.Sample(2'000'000));
  EXPECT_EQ(ts.samples(), 2u);
  EXPECT_EQ(ts.last_sample_us(), 2'000'000u);

  const std::vector<TsPoint> pts = ts.Points("svc.total");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].t_us, 1'000'000u);
  EXPECT_EQ(pts[0].value, 5.0);  // delta, not cumulative
  EXPECT_EQ(pts[1].t_us, 2'000'000u);
  EXPECT_EQ(pts[1].value, 7.0);
}

TEST(TimeSeriesTest, PrefixWatchPicksUpRowsThatAppearLater) {
  Registry reg;
  TimeSeriesOptions opt;
  opt.interval_us = 1'000'000;
  TimeSeriesStore ts(&reg, opt);
  ts.WatchCounterPrefix("tenant.");

  EXPECT_TRUE(ts.Sample(1'000'000));  // no matching rows yet
  EXPECT_EQ(ts.series_count(), 0u);

  reg.GetCounter("tenant.requests", "tenant=a").Add(3);  // lazy row
  EXPECT_TRUE(ts.Sample(2'000'000));
  const std::vector<TsPoint> pts = ts.Points("tenant.requests{tenant=a}");
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].value, 3.0);
}

TEST(TimeSeriesTest, CardinalityBoundDropsExcessSeries) {
  Registry reg;
  TimeSeriesOptions opt;
  opt.interval_us = 1'000'000;
  opt.max_series = 2;
  TimeSeriesStore ts(&reg, opt);
  ts.WatchCounterPrefix("tenant.");
  for (const char* label : {"tenant=a", "tenant=b", "tenant=c"}) {
    reg.GetCounter("tenant.requests", label).Add(1);
  }
  EXPECT_TRUE(ts.Sample(1'000'000));
  EXPECT_EQ(ts.series_count(), 2u);
  EXPECT_GE(ts.dropped_series(), 1u);
}

TEST(TimeSeriesTest, RetentionRingKeepsNewestPoints) {
  Registry reg;
  Counter& c = reg.GetCounter("svc.total");
  TimeSeriesOptions opt;
  opt.interval_us = 1'000'000;
  opt.retention = 4;
  TimeSeriesStore ts(&reg, opt);
  ts.WatchCounter("svc.total");
  for (uint64_t i = 1; i <= 6; ++i) {
    c.Add(i);
    ASSERT_TRUE(ts.Sample(i * 1'000'000));
  }
  const std::vector<TsPoint> pts = ts.Points("svc.total");
  ASSERT_EQ(pts.size(), 4u);  // ring bound, oldest first
  EXPECT_EQ(pts.front().t_us, 3'000'000u);
  EXPECT_EQ(pts.front().value, 3.0);
  EXPECT_EQ(pts.back().t_us, 6'000'000u);
  EXPECT_EQ(pts.back().value, 6.0);
}

TEST(TimeSeriesTest, WindowAggregatesSumMaxRate) {
  Registry reg;
  Counter& c = reg.GetCounter("svc.total");
  TimeSeriesOptions opt;
  opt.interval_us = 1'000'000;
  TimeSeriesStore ts(&reg, opt);
  ts.WatchCounter("svc.total");
  const double deltas[] = {10, 40, 20, 30, 5};
  for (size_t i = 0; i < 5; ++i) {
    c.Add(static_cast<uint64_t>(deltas[i]));
    ASSERT_TRUE(ts.Sample((i + 1) * 1'000'000));
  }
  // Window (3s, 5s]: the points at 4s and 5s.
  EXPECT_EQ(ts.SumOver("svc.total", 2'000'000, 5'000'000), 35.0);
  EXPECT_EQ(ts.MaxOver("svc.total", 2'000'000, 5'000'000), 30.0);
  EXPECT_EQ(ts.RatePerSec("svc.total", 2'000'000, 5'000'000), 17.5);
  // A window covering everything.
  EXPECT_EQ(ts.SumOver("svc.total", 10'000'000, 5'000'000), 105.0);
  EXPECT_EQ(ts.MaxOver("svc.total", 10'000'000, 5'000'000), 40.0);
  // Unknown series: identity values, no throw.
  EXPECT_EQ(ts.SumOver("nope", 1'000'000, 5'000'000), 0.0);
}

TEST(TimeSeriesTest, HistogramWatchExpandsToSubSeries) {
  Registry reg;
  obs::Histogram& h = reg.GetHistogram("svc.lat");
  TimeSeriesOptions opt;
  opt.interval_us = 1'000'000;
  TimeSeriesStore ts(&reg, opt);
  ts.WatchHistogram("svc.lat", &h);

  for (int i = 0; i < 8; ++i) h.Record(1000);
  ASSERT_TRUE(ts.Sample(1'000'000));
  const std::vector<TsPoint> count = ts.Points("svc.lat.count");
  ASSERT_EQ(count.size(), 1u);
  EXPECT_EQ(count[0].value, 8.0);  // per-interval count, not cumulative
  ASSERT_EQ(ts.Points("svc.lat.p50").size(), 1u);
  EXPECT_GE(ts.Points("svc.lat.p50")[0].value, 1000.0);
  ASSERT_EQ(ts.Points("svc.lat.p99").size(), 1u);
  EXPECT_GE(ts.Points("svc.lat.p99")[0].value, 1000.0);
  ASSERT_EQ(ts.Points("svc.lat.mean").size(), 1u);
  EXPECT_GT(ts.Points("svc.lat.mean")[0].value, 0.0);

  // The next interval sees only the next interval's recordings.
  for (int i = 0; i < 3; ++i) h.Record(1000);
  ASSERT_TRUE(ts.Sample(2'000'000));
  EXPECT_EQ(ts.Points("svc.lat.count")[1].value, 3.0);
}

// --- SloEngine ------------------------------------------------------

/// Shared harness: an availability SLO over two hand-driven counters.
/// objective 0.9 -> error budget 0.1, so bad/total = r burns at r/0.1.
struct SloBed {
  Registry reg;
  Counter& total = reg.GetCounter("svc.total");
  Counter& bad = reg.GetCounter("svc.bad");
  TimeSeriesStore ts;
  SloEngine slo;

  static SloSpec Spec(double fast_burn, double slow_burn) {
    SloSpec s;
    s.name = "avail";
    s.kind = SloKind::kAvailability;
    s.objective = 0.9;
    s.total_series = "svc.total";
    s.bad_series = {"svc.bad"};
    s.fast_window_us = 1'000'000;   // the newest sample only
    s.slow_window_us = 3'000'000;   // the newest three samples
    s.fast_burn = fast_burn;
    s.slow_burn = slow_burn;
    return s;
  }

  explicit SloBed(double fast_burn = 2.0, double slow_burn = 1.0)
      : ts(&reg,
           [] {
             TimeSeriesOptions o;
             o.interval_us = 1'000'000;
             return o;
           }()),
        slo(&ts, &reg, {Spec(fast_burn, slow_burn)}) {
    ts.WatchCounter("svc.total");
    ts.WatchCounter("svc.bad");
  }

  /// One interval of traffic, scraped and evaluated at `t_us`.
  AlertState Tick(uint64_t t_us, uint64_t good, uint64_t errors) {
    total.Add(good + errors);
    bad.Add(errors);
    EXPECT_TRUE(ts.Sample(t_us));
    slo.Evaluate(t_us);
    return slo.Alerts()[0].state;
  }
};

TEST(SloEngineTest, AvailabilityAlertFullLifecycle) {
  SloBed bed;
  EXPECT_EQ(bed.Tick(1'000'000, 100, 0), AlertState::kInactive);
  // 50% errors: fast burn 5.0 >= 2, slow burn 2.5 >= 1 -> fires.
  EXPECT_EQ(bed.Tick(2'000'000, 50, 50), AlertState::kFiring);
  EXPECT_EQ(bed.Tick(3'000'000, 50, 50), AlertState::kActive);
  // Clean interval: the fast window recovers -> resolves immediately.
  EXPECT_EQ(bed.Tick(4'000'000, 100, 0), AlertState::kResolved);
  EXPECT_EQ(bed.Tick(5'000'000, 100, 0), AlertState::kInactive);

  EXPECT_EQ(bed.slo.TotalFired(), 1u);
  EXPECT_EQ(bed.slo.TotalResolved(), 1u);
  EXPECT_EQ(bed.slo.BurningCount(), 0u);
  EXPECT_EQ(bed.slo.evaluations(), 5u);
  // Transitions are counted in the registry for the time-series.
  EXPECT_EQ(bed.reg.CounterValue("slo.alert", "slo=avail,transition=fired"),
            1u);
  EXPECT_EQ(
      bed.reg.CounterValue("slo.alert", "slo=avail,transition=resolved"), 1u);

  const obs::AlertStatus status = bed.slo.Alerts()[0];
  EXPECT_EQ(status.slo, "avail");
  EXPECT_EQ(status.kind, SloKind::kAvailability);
  EXPECT_EQ(status.since_us, 5'000'000u);
}

TEST(SloEngineTest, MultiWindowGuardDelaysFiringUntilSlowWindowBurns) {
  SloBed bed(/*fast_burn=*/2.0, /*slow_burn=*/4.0);
  EXPECT_EQ(bed.Tick(1'000'000, 100, 0), AlertState::kInactive);
  // Fast window burns at 5.0 immediately, but the slow window still
  // averages in the clean interval: 50/200 -> burn 2.5 < 4. Guard holds.
  EXPECT_EQ(bed.Tick(2'000'000, 50, 50), AlertState::kInactive);
  // Slow window (0s,3s]: 100/300 -> burn 3.33 < 4. Still guarded.
  EXPECT_EQ(bed.Tick(3'000'000, 50, 50), AlertState::kInactive);
  // Slow window (1s,4s]: 150/300 -> burn 5.0 >= 4. Now it pages.
  EXPECT_EQ(bed.Tick(4'000'000, 50, 50), AlertState::kFiring);
  // Conservation with an alert still burning.
  EXPECT_EQ(bed.slo.TotalFired(),
            bed.slo.TotalResolved() + bed.slo.BurningCount());
  EXPECT_EQ(bed.slo.BurningCount(), 1u);
}

TEST(SloEngineTest, TransitionHookSeesEveryEdge) {
  SloBed bed;
  std::vector<std::pair<AlertState, AlertState>> edges;
  bed.slo.SetTransitionHook([&edges](const SloSpec& spec, AlertState from,
                                     AlertState to, uint64_t now_us) {
    EXPECT_EQ(spec.name, "avail");
    EXPECT_GT(now_us, 0u);
    edges.emplace_back(from, to);
  });
  bed.Tick(1'000'000, 100, 0);
  bed.Tick(2'000'000, 50, 50);   // -> firing
  bed.Tick(3'000'000, 50, 50);   // -> active
  bed.Tick(4'000'000, 100, 0);   // -> resolved
  bed.Tick(5'000'000, 100, 0);   // -> inactive
  const std::vector<std::pair<AlertState, AlertState>> want = {
      {AlertState::kInactive, AlertState::kFiring},
      {AlertState::kFiring, AlertState::kActive},
      {AlertState::kActive, AlertState::kResolved},
      {AlertState::kResolved, AlertState::kInactive},
  };
  EXPECT_EQ(edges, want);
}

TEST(SloEngineTest, ThresholdKindTracksWorstLevelInWindow) {
  Registry reg;
  Gauge& level = reg.GetGauge("svc.level");
  TimeSeriesOptions opt;
  opt.interval_us = 1'000'000;
  TimeSeriesStore ts(&reg, opt);
  ts.WatchGauge("svc.level");
  SloSpec spec;
  spec.name = "level";
  spec.kind = SloKind::kThreshold;
  spec.objective = 100.0;  // ceiling, in series units
  spec.value_series = "svc.level";
  spec.fast_window_us = 1'000'000;
  spec.slow_window_us = 2'000'000;
  spec.fast_burn = 1.0;  // "at the objective"
  spec.slow_burn = 1.0;
  SloEngine slo(&ts, &reg, {spec});

  auto tick = [&](uint64_t t_us, int64_t v) {
    level.Set(v);
    EXPECT_TRUE(ts.Sample(t_us));
    slo.Evaluate(t_us);
    return slo.Alerts()[0].state;
  };
  EXPECT_EQ(tick(1'000'000, 50), AlertState::kInactive);   // burn 0.5
  EXPECT_EQ(tick(2'000'000, 250), AlertState::kFiring);    // burn 2.5
  // Fast window sees only the recovered level; the slow window still
  // holds the 250 spike but either-window recovery resolves.
  EXPECT_EQ(tick(3'000'000, 50), AlertState::kResolved);
  EXPECT_EQ(slo.Alerts()[0].fast_burn, 0.5);
}

// --- Service wiring -------------------------------------------------

estimator::Synopsis PaperSynopsis() {
  return estimator::Synopsis::Build(testing::MakePaperDocument(), {});
}

/// Tail-based retention is auditable by conservation: every record that
/// enters the tail ring bumps exactly one "service.trace.tail{class=_}"
/// counter, and every request classifies into at most one tail class,
/// so the ring's tail_recorded() equals the sum over classes and no
/// request is double-retained across the recent/tail rings.
TEST(ServiceFlightTest, TailRetentionConservesAcrossOutcomeClasses) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.max_inflight = 1;
  opt.trace_sample = 1;   // time everything
  opt.slow_trace_ns = 1;  // every timed request classifies slow...
  opt.accuracy_sample = 0;
  service::EstimationService svc(opt);
  svc.registry().Register("paper", PaperSynopsis());

  // ...unless a stronger class takes precedence.
  ASSERT_TRUE(svc.Estimate("paper", "//A/B").ok());            // slow
  ASSERT_TRUE(svc.Estimate("paper", "//B/unknown-tag").ok());  // pruned
  ASSERT_FALSE(svc.Estimate("paper", "((").ok());              // error
  service::QueryRequest expired{"paper", "//A/B"};
  expired.deadline = Deadline::AlreadyExpired();
  ASSERT_FALSE(svc.Estimate(expired).ok());                    // deadline
  // max_inflight 1: a batch of three admits one member, sheds two.
  std::vector<service::QueryRequest> batch(3);
  for (service::QueryRequest& r : batch) r = {"paper", "//A/B"};
  const std::vector<service::EstimateOutcome> results =
      svc.EstimateBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  int shed = 0;
  for (const service::EstimateOutcome& r : results) shed += r.shed ? 1 : 0;
  ASSERT_EQ(shed, 2);  // the admitted member is another slow record

  const Registry& reg = svc.obs();
  const uint64_t by_class[] = {
      reg.CounterValue("service.trace.tail", "class=shed"),      // 2
      reg.CounterValue("service.trace.tail", "class=deadline"),  // 1
      reg.CounterValue("service.trace.tail", "class=error"),     // 1
      reg.CounterValue("service.trace.tail", "class=pruned"),    // 1
      reg.CounterValue("service.trace.tail", "class=degraded"),  // 0
      reg.CounterValue("service.trace.tail", "class=slow"),      // 2
  };
  EXPECT_EQ(by_class[0], 2u);
  EXPECT_EQ(by_class[1], 1u);
  EXPECT_EQ(by_class[2], 1u);
  EXPECT_EQ(by_class[3], 1u);
  EXPECT_EQ(by_class[4], 0u);
  EXPECT_EQ(by_class[5], 2u);

  uint64_t sum = 0;
  for (uint64_t v : by_class) sum += v;
  EXPECT_EQ(svc.traces().tail_recorded(), sum);  // conservation
  EXPECT_EQ(svc.traces().Tail().size(), sum);
  // Exactly-one-ring routing: every record here classified, so the
  // recent ring holds nothing and nothing was counted twice.
  EXPECT_TRUE(svc.traces().Recent().empty());
  EXPECT_EQ(svc.traces().recorded(), sum);
}

/// With the head sample off (trace_sample = 0: no request is ever
/// timed), tail retention still captures every bad outcome — the whole
/// point of deciding at completion time.
TEST(ServiceFlightTest, TailRetentionSurvivesZeroHeadSampling) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.trace_sample = 0;
  opt.accuracy_sample = 0;
  service::EstimationService svc(opt);
  svc.registry().Register("paper", PaperSynopsis());

  ASSERT_TRUE(svc.Estimate("paper", "//A/B").ok());  // ok: not retained
  ASSERT_FALSE(svc.Estimate("paper", "((").ok());    // error: retained
  service::QueryRequest expired{"paper", "//A/B"};
  expired.deadline = Deadline::AlreadyExpired();
  ASSERT_FALSE(svc.Estimate(expired).ok());          // deadline: retained

  EXPECT_EQ(svc.traces().tail_recorded(), 2u);
  EXPECT_EQ(svc.obs().CounterValue("service.trace.tail", "class=error"), 1u);
  EXPECT_EQ(svc.obs().CounterValue("service.trace.tail", "class=deadline"),
            1u);
  EXPECT_TRUE(svc.traces().Recent().empty());  // nothing head-sampled
}

TEST(ServiceFlightTest, DisablingTailRetentionRestoresHeadSamplingOnly) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.trace_sample = 0;
  opt.tail_retention = false;
  opt.accuracy_sample = 0;
  service::EstimationService svc(opt);
  svc.registry().Register("paper", PaperSynopsis());
  ASSERT_FALSE(svc.Estimate("paper", "((").ok());
  EXPECT_EQ(svc.traces().tail_recorded(), 0u);
  EXPECT_EQ(svc.traces().recorded(), 0u);
}

TEST(ServiceFlightTest, FlightRingRecordsRequestShedAndFaultEvents) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.max_inflight = 1;
  opt.trace_sample = 0;
  opt.accuracy_sample = 0;
  service::EstimationService svc(opt);
  ASSERT_NE(svc.flight(), nullptr);
  svc.registry().Register("paper", PaperSynopsis());

  ASSERT_TRUE(svc.Estimate("paper", "//A/B").ok());
  std::vector<service::QueryRequest> batch(3);
  for (service::QueryRequest& r : batch) r = {"paper", "//A/B"};
  svc.EstimateBatch(batch);
  {
    // A finite deadline consults the deadline.expire site; arming it
    // forces expiry, and the service's fire observer must land the
    // fire in the flight ring.
    ScopedFault fault(std::string(Deadline::kFaultSite));
    service::QueryRequest doomed{"paper", "//A/B"};
    doomed.deadline = Deadline::AfterMs(60'000);
    ASSERT_FALSE(svc.Estimate(doomed).ok());
  }

  bool saw_request = false, saw_shed = false, saw_fault = false;
  for (const FlightEventView& e : svc.flight()->Dump()) {
    if (e.type == FlightEventType::kRequest && e.name == "paper") {
      saw_request = true;
    }
    if (e.type == FlightEventType::kShed && e.name == "paper") {
      saw_shed = true;
    }
    if (e.type == FlightEventType::kFaultFire &&
        e.name == Deadline::kFaultSite) {
      saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_shed);
  EXPECT_TRUE(saw_fault);
}

TEST(ServiceFlightTest, ObsTickDrivesSlosAndAlertsReachFlightRing) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.trace_sample = 0;
  opt.accuracy_sample = 0;
  opt.slos = service::DefaultSloSpecs(0.999, 0, 0.0);  // availability only
  service::EstimationService svc(opt);
  ASSERT_NE(svc.slo(), nullptr);
  svc.registry().Register("paper", PaperSynopsis());

  // An interval of 50% deadline failures: burn = 0.5/0.001 = 500, far
  // past both availability windows' thresholds.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(svc.Estimate("paper", "//A/B").ok());
    service::QueryRequest expired{"paper", "//A/B"};
    expired.deadline = Deadline::AlreadyExpired();
    ASSERT_FALSE(svc.Estimate(expired).ok());
  }
  svc.ObsTick(1'000'000);
  ASSERT_EQ(svc.slo()->Alerts().size(), 1u);
  EXPECT_EQ(svc.slo()->Alerts()[0].state, AlertState::kFiring);

  // Clean traffic, scraped well past both windows: recovery resolves.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(svc.Estimate("paper", "//A/B").ok());
  }
  svc.ObsTick(60'000'000);
  EXPECT_EQ(svc.slo()->Alerts()[0].state, AlertState::kResolved);
  svc.ObsTick(61'000'000);
  EXPECT_EQ(svc.slo()->Alerts()[0].state, AlertState::kInactive);
  EXPECT_EQ(svc.slo()->TotalFired(), 1u);
  EXPECT_EQ(svc.slo()->TotalResolved(), 1u);

  int alert_events = 0;
  for (const FlightEventView& e : svc.flight()->Dump()) {
    if (e.type == FlightEventType::kAlert) {
      ++alert_events;
      EXPECT_EQ(e.name, "availability");
      EXPECT_GT(e.t_us, 0u);  // alert events carry the scrape time
    }
  }
  EXPECT_EQ(alert_events, 3);  // ->firing, ->resolved, ->inactive
}

TEST(ServiceFlightTest, PerTenantRowsAreBoundedWithOverflowSlot) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.trace_sample = 0;
  opt.accuracy_sample = 0;
  opt.tenant_max = 2;
  service::EstimationService svc(opt);
  svc.registry().Register("a", PaperSynopsis());
  svc.registry().Register("b", PaperSynopsis());
  svc.registry().Register("c", PaperSynopsis());
  ASSERT_TRUE(svc.Estimate("a", "//A/B").ok());
  ASSERT_TRUE(svc.Estimate("b", "//A/B").ok());
  ASSERT_TRUE(svc.Estimate("c", "//A/B").ok());  // past the bound
  ASSERT_TRUE(svc.Estimate("c", "//A/B").ok());

  const Registry& reg = svc.obs();
  EXPECT_EQ(reg.CounterValue("tenant.requests", "tenant=a"), 1u);
  EXPECT_EQ(reg.CounterValue("tenant.requests", "tenant=b"), 1u);
  // Tenant "c" never got its own row: both requests landed in the
  // overflow slot, so hostile name cardinality cannot grow the registry.
  EXPECT_EQ(reg.CounterValue("tenant.requests", "tenant=c"), 0u);
  EXPECT_EQ(reg.CounterValue("tenant.requests", "tenant=__other__"), 2u);
}

}  // namespace
}  // namespace xee
