// Tests for the traffic simulator (src/sim, DESIGN.md §12): engine
// ordering, arrival-process determinism, alias canonical-equality, the
// time-windowed fault schedule, windowed metric scraping, the new
// shed-attribution counters, and end-to-end scenario determinism.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "eval/exact_evaluator.h"
#include "fuzz/fuzz.h"
#include "paper_fixture.h"
#include "obs/window.h"
#include "service/service.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "sim/traffic.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xee {
namespace {

// ---------------------------------------------------------------- engine

TEST(EngineTest, DispatchesInTimeOrder) {
  sim::Engine eng;
  std::vector<int> order;
  eng.At(30, [&] { order.push_back(3); });
  eng.At(10, [&] { order.push_back(1); });
  eng.At(20, [&] { order.push_back(2); });
  eng.Drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now_us(), 30u);
}

TEST(EngineTest, TiesDispatchInScheduleOrder) {
  sim::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.At(5, [&order, i] { order.push_back(i); });
  }
  eng.Drain();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, SchedulingIntoThePastClampsToNow) {
  sim::Engine eng;
  std::vector<int> order;
  eng.At(10, [&] {
    // now == 10; try to schedule "at 3" — must run, at now.
    eng.At(3, [&] { order.push_back(2); });
    order.push_back(1);
  });
  eng.Drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now_us(), 10u);
}

TEST(EngineTest, RunStopsAtHorizonAndDrainFinishes) {
  sim::Engine eng;
  int fired = 0;
  eng.At(10, [&] { ++fired; });
  eng.At(100, [&] { ++fired; });
  eng.Run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now_us(), 50u);
  EXPECT_EQ(eng.pending(), 1u);
  eng.Drain();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(EngineTest, TimeAdvanceHookSeesMonotoneClock) {
  sim::Engine eng;
  std::vector<uint64_t> ticks;
  eng.on_time_advance = [&](uint64_t t) { ticks.push_back(t); };
  eng.At(5, [] {});
  eng.At(5, [] {});  // same instant: no second advance
  eng.At(9, [] {});
  eng.Drain();
  EXPECT_EQ(ticks, (std::vector<uint64_t>{5, 9}));
}

// -------------------------------------------------------------- arrivals

TEST(ArrivalsTest, SameSeedSameSequence) {
  for (auto kind : {sim::ArrivalModel::Kind::kPoisson,
                    sim::ArrivalModel::Kind::kBursty,
                    sim::ArrivalModel::Kind::kDiurnal}) {
    sim::ArrivalModel model;
    model.kind = kind;
    sim::ArrivalProcess a(model, Rng(7));
    sim::ArrivalProcess b(model, Rng(7));
    uint64_t ta = 0, tb = 0;
    for (int i = 0; i < 200; ++i) {
      ta = a.Next(ta);
      tb = b.Next(tb);
      ASSERT_EQ(ta, tb) << sim::ArrivalKindName(kind) << " diverged at " << i;
    }
  }
}

TEST(ArrivalsTest, StrictlyIncreasing) {
  for (auto kind : {sim::ArrivalModel::Kind::kPoisson,
                    sim::ArrivalModel::Kind::kBursty,
                    sim::ArrivalModel::Kind::kDiurnal}) {
    sim::ArrivalModel model;
    model.kind = kind;
    sim::ArrivalProcess p(model, Rng(11));
    uint64_t t = 0;
    for (int i = 0; i < 500; ++i) {
      const uint64_t next = p.Next(t);
      ASSERT_GT(next, t);
      t = next;
    }
  }
}

TEST(ArrivalsTest, PoissonRateIsRoughlyRight) {
  sim::ArrivalModel model;
  model.kind = sim::ArrivalModel::Kind::kPoisson;
  model.rate_qps = 1000.0;  // mean gap 1000us
  sim::ArrivalProcess p(model, Rng(13));
  uint64_t t = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) t = p.Next(t);
  const double mean_gap = static_cast<double>(t) / n;
  EXPECT_GT(mean_gap, 900.0);
  EXPECT_LT(mean_gap, 1100.0);
}

TEST(ArrivalsTest, BurstyRunsFasterThanBaseOnAverage) {
  sim::ArrivalModel model;
  model.kind = sim::ArrivalModel::Kind::kBursty;
  model.rate_qps = 50.0;
  model.burst_rate_qps = 2000.0;
  sim::ArrivalProcess p(model, Rng(17));
  uint64_t t = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) t = p.Next(t);
  // Mean rate must land strictly between base and burst.
  const double qps = n / (static_cast<double>(t) / 1e6);
  EXPECT_GT(qps, 60.0);
  EXPECT_LT(qps, 1900.0);
}

// ---------------------------------------------------------------- traffic

TEST(TrafficTest, AliasSpellingPreservesCanonicalPlan) {
  const std::vector<std::string> tags = {"a", "bb", "ccc", "d"};
  Rng gen(23);
  int respelled = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string q = fuzz::GenerateQueryString(gen, tags);
    auto parsed = xpath::ParseXPath(q);
    if (!parsed.ok()) continue;  // grammar emits some rejects on purpose
    Rng alias_rng(100 + i);
    const std::string alias = sim::TrafficSource::AliasSpelling(alias_rng, q);
    auto reparsed = xpath::ParseXPath(alias);
    ASSERT_TRUE(reparsed.ok())
        << "alias broke parse: '" << q << "' -> '" << alias << "'";
    EXPECT_EQ(xpath::CanonicalKey(parsed.value()),
              xpath::CanonicalKey(reparsed.value()))
        << "alias changed plan: '" << q << "' -> '" << alias << "'";
    respelled += alias != q ? 1 : 0;
  }
  // The generator must actually respell a healthy share of queries —
  // an AliasSpelling that never fires would pass the loop vacuously.
  EXPECT_GT(respelled, 200);
}

TEST(TrafficTest, SemanticAliasSpellingPreservesExactCounts) {
  // Unlike AliasSpelling, the semantic respelling produces a *different*
  // canonical query — so the soundness oracle is the exact evaluator,
  // not key equality: anchoring "//x..." under the document root must
  // select the same nodes on the paper document.
  const xml::Document doc = testing::MakePaperDocument();
  const eval::ExactEvaluator exact(doc);
  const std::vector<std::string> tags = {"A", "B", "C", "D", "E", "F"};
  Rng gen(29);
  int respelled = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string q = fuzz::GenerateQueryString(gen, tags);
    auto parsed = xpath::ParseXPath(q);
    if (!parsed.ok()) continue;  // grammar emits some rejects on purpose
    const std::string alias =
        sim::TrafficSource::SemanticAliasSpelling("Root", q);
    auto reparsed = xpath::ParseXPath(alias);
    ASSERT_TRUE(reparsed.ok())
        << "semantic alias broke parse: '" << q << "' -> '" << alias << "'";
    const auto want = exact.Count(parsed.value());
    const auto got = exact.Count(reparsed.value());
    ASSERT_EQ(want.ok(), got.ok()) << "'" << q << "' -> '" << alias << "'";
    if (want.ok()) {
      EXPECT_EQ(want.value(), got.value())
          << "semantic alias changed the answer: '" << q << "' -> '" << alias
          << "'";
    }
    respelled += alias != q ? 1 : 0;
  }
  // Only "//name..." queries respell, but the grammar must produce
  // enough of them for the loop to mean anything.
  EXPECT_GT(respelled, 100);
}

TEST(TrafficTest, SameSeedSameRequests) {
  sim::TrafficModel model;
  model.alias_prob = 0.5;
  model.garbage_prob = 0.1;
  model.unknown_tenant_prob = 0.05;
  const std::vector<std::string> tenants = {"t0", "t1", "t2"};
  const std::vector<std::string> tags = {"a", "b", "c"};
  sim::TrafficSource a(model, tenants, tags, Rng(31));
  sim::TrafficSource b(model, tenants, tags, Rng(31));
  for (int i = 0; i < 500; ++i) {
    const auto ra = a.Make();
    const auto rb = b.Make();
    ASSERT_EQ(ra.synopsis, rb.synopsis);
    ASSERT_EQ(ra.xpath, rb.xpath);
  }
}

// ------------------------------------------------------- fault schedules

TEST(FaultWindowTest, FiresOnlyInsideWindow) {
  FaultInjector& faults = FaultInjector::Global();
  faults.Reset();
  FaultConfig cfg;
  cfg.probability = 1.0;
  cfg.window_start = 10;
  cfg.window_end = 20;
  ScopedFault fault("sim.test.window", cfg);

  EXPECT_FALSE(FaultFires("sim.test.window"));  // clock 0: before window
  faults.AdvanceTime(10);
  EXPECT_TRUE(FaultFires("sim.test.window"));
  faults.AdvanceTime(19);
  EXPECT_TRUE(FaultFires("sim.test.window"));
  faults.AdvanceTime(20);  // end is exclusive
  EXPECT_FALSE(FaultFires("sim.test.window"));
  EXPECT_EQ(faults.HitCount("sim.test.window"), 4u);
  EXPECT_EQ(faults.FireCount("sim.test.window"), 2u);
  faults.Reset();
}

TEST(FaultWindowTest, OutOfWindowHitsDoNotConsumeSkips) {
  FaultInjector& faults = FaultInjector::Global();
  faults.Reset();
  FaultConfig cfg;
  cfg.probability = 1.0;
  cfg.skip = 2;
  cfg.window_start = 100;
  ScopedFault fault("sim.test.skip", cfg);

  // 50 hits before the window: none fire, none consume the skip budget.
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(FaultFires("sim.test.skip"));
  faults.AdvanceTime(100);
  // The skip budget is measured from the window edge.
  EXPECT_FALSE(FaultFires("sim.test.skip"));
  EXPECT_FALSE(FaultFires("sim.test.skip"));
  EXPECT_TRUE(FaultFires("sim.test.skip"));
  faults.Reset();
}

TEST(FaultWindowTest, ResetRewindsScheduleClock) {
  FaultInjector& faults = FaultInjector::Global();
  faults.AdvanceTime(12345);
  faults.Reset();
  EXPECT_EQ(faults.ScheduleTime(), 0u);
}

// ------------------------------------------------------ windowed scraping

TEST(ObsWindowTest, CounterWindowReturnsDeltas) {
  obs::CounterWindow w;
  EXPECT_EQ(w.Advance(5), 5u);
  EXPECT_EQ(w.Advance(5), 0u);
  EXPECT_EQ(w.Advance(12), 7u);
}

TEST(ObsWindowTest, HistogramWindowSnapshotsOnlyTheDelta) {
  obs::Histogram h;
  obs::HistogramWindow w;
  h.Record(100);
  h.Record(200);
  auto first = w.Advance(h);
  EXPECT_EQ(first.count, 2u);
  auto empty = w.Advance(h);
  EXPECT_EQ(empty.count, 0u);
  h.Record(1000);
  auto second = w.Advance(h);
  EXPECT_EQ(second.count, 1u);
  // The delta's quantiles describe only the new sample.
  EXPECT_GE(second.p50, 900u);
}

// ------------------------------------------- service shed attribution

TEST(ShedAttributionTest, SingleAndBatchShedsAreAttributed) {
  service::ServiceOptions opt;
  opt.max_inflight = 1;
  opt.threads = 2;
  service::EstimationService svc(opt);

  // Occupy the only slot virtually; every real request now sheds.
  ASSERT_TRUE(svc.HoldInflightSlot());
  const auto out = svc.Estimate("nosuch", "/a");
  EXPECT_TRUE(out.shed);
  EXPECT_GT(out.retry_after_ms, 0u);

  std::vector<service::QueryRequest> batch(3);
  for (auto& r : batch) {
    r.synopsis = "nosuch";
    r.xpath = "/a";
  }
  const auto results = svc.EstimateBatch(batch);
  size_t batch_shed = 0;
  for (const auto& r : results) batch_shed += r.shed ? 1 : 0;
  EXPECT_EQ(batch_shed, 3u);
  svc.ReleaseInflightSlot();

  const auto stats = svc.Stats();
  EXPECT_EQ(stats.shed, 4u);
  EXPECT_EQ(stats.shed_single, 1u);
  EXPECT_EQ(stats.shed_batch, 3u);
  EXPECT_EQ(stats.retry_after_ms.count, 4u);
  EXPECT_EQ(stats.inflight, 0);
}

TEST(ShedAttributionTest, HoldRespectsBudgetAndUnboundedIsNoop) {
  service::ServiceOptions opt;
  opt.max_inflight = 2;
  opt.threads = 1;
  service::EstimationService svc(opt);
  EXPECT_TRUE(svc.HoldInflightSlot());
  EXPECT_TRUE(svc.HoldInflightSlot());
  EXPECT_FALSE(svc.HoldInflightSlot());
  svc.ReleaseInflightSlot();
  svc.ReleaseInflightSlot();

  service::EstimationService unbounded(service::ServiceOptions{});
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unbounded.HoldInflightSlot());
  for (int i = 0; i < 100; ++i) unbounded.ReleaseInflightSlot();
}

// ----------------------------------------------------------- end to end

TEST(SimulatorTest, ScaledScenarioScalesDurationsOnly) {
  sim::Scenario s = sim::BurstyOverloadChaos();
  const double rate = s.arrival.rate_qps;
  sim::Scenario t = sim::ScaledScenario(s, 0.1);
  EXPECT_EQ(t.duration_us, s.duration_us / 10);
  EXPECT_EQ(t.window_us, s.window_us / 10);
  EXPECT_EQ(t.arrival.mean_on_us, s.arrival.mean_on_us / 10);
  EXPECT_EQ(t.arrival.rate_qps, rate);
  ASSERT_FALSE(t.chaos.empty());
  EXPECT_EQ(t.chaos[0].config.window_start,
            s.chaos[0].config.window_start / 10);
  EXPECT_EQ(t.chaos[0].config.window_end, s.chaos[0].config.window_end / 10);
}

TEST(SimulatorTest, ScenarioByNameKnowsAllNames) {
  for (const std::string& name : sim::ScenarioNames()) {
    sim::Scenario s;
    EXPECT_TRUE(sim::ScenarioByName(name, &s));
    EXPECT_EQ(s.name, name);
  }
  sim::Scenario s;
  EXPECT_FALSE(sim::ScenarioByName("nope", &s));
}

TEST(SimulatorTest, SameSeedSameFingerprint) {
  // A short but non-trivial slice of the steady-state scenario, run
  // twice: bit-identical deterministic trajectories.
  sim::Scenario sc = sim::ScaledScenario(sim::PoissonSteady(), 0.05);
  const sim::SimResult a = sim::RunScenario(sc);
  const sim::SimResult b = sim::RunScenario(sc);
  EXPECT_TRUE(a.ok()) << a.invariants.Summary();
  EXPECT_TRUE(b.ok()) << b.invariants.Summary();
  EXPECT_GT(a.totals.arrivals, 50u);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].arrivals, b.trajectory[i].arrivals);
    EXPECT_EQ(a.trajectory[i].vqueue, b.trajectory[i].vqueue);
  }
}

TEST(SimulatorTest, DifferentSeedDifferentFingerprint) {
  sim::Scenario sc = sim::ScaledScenario(sim::PoissonSteady(), 0.05);
  const sim::SimResult a = sim::RunScenario(sc);
  sc.seed += 1;
  const sim::SimResult b = sim::RunScenario(sc);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(SimulatorTest, IntelAliasStormPrunes) {
  // The storm's grammar families include impossible tag edges, so the
  // analyzer must actually prune some of its requests.
  const sim::SimResult r =
      sim::RunScenario(sim::ScaledScenario(sim::IntelAliasStorm(), 0.05));
  EXPECT_TRUE(r.ok()) << r.invariants.Summary();
  EXPECT_GT(r.totals.arrivals, 50u);
  uint64_t pruned = 0;
  for (const sim::WindowRow& w : r.trajectory) pruned += w.analyzer_pruned;
  EXPECT_GT(pruned, 0u);
}

TEST(SimulatorTest, ChaosScenarioIsDeterministicAndBudgeted) {
  sim::Scenario sc = sim::ScaledScenario(sim::BurstyOverloadChaos(), 0.1);
  const sim::SimResult a = sim::RunScenario(sc);
  const sim::SimResult b = sim::RunScenario(sc);
  EXPECT_TRUE(a.ok()) << a.invariants.Summary();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  // Overload must actually shed in this scenario.
  EXPECT_GT(a.totals.shed, 0u);
}

TEST(SimulatorTest, LiveChurnScenarioIsDeterministicAndSelfHeals) {
  // Half-scale keeps both delta bursts and the budget-blowing novel
  // skew inside the horizon. Run twice: same fingerprint (rebuild
  // completions and background fault fires are wall-clock-dependent and
  // deliberately outside it), and the self-healing loop must actually
  // engage — patches blow the budget (stale marks) and the drained run
  // ends settled, which the "self-heal" invariant checks.
  sim::Scenario sc = sim::ScaledScenario(sim::LiveUpdateChurn(), 0.5);
  const sim::SimResult a = sim::RunScenario(sc);
  const sim::SimResult b = sim::RunScenario(sc);
  EXPECT_TRUE(a.ok()) << a.invariants.Summary();
  EXPECT_TRUE(b.ok()) << b.invariants.Summary();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_GT(a.totals.deltas_applied, 0u);
  EXPECT_EQ(a.totals.deltas_attempted,
            a.totals.deltas_applied + a.totals.deltas_rejected);
  EXPECT_GT(a.totals.stale_marks, 0u);
  EXPECT_EQ(a.totals.epoch_regressions, 0u);
  EXPECT_EQ(a.totals.deltas_applied, b.totals.deltas_applied);
}

TEST(SimulatorTest, SloBurnFiresResolvesAndConserves) {
  // A quarter-scale slice still spans several burst on/off cycles, so
  // the availability alert must actually fire — and alert conservation
  // (fired == resolved + still-burning, the "alert-conservation" drain
  // invariant) must close the books at drain.
  sim::Scenario sc = sim::ScaledScenario(sim::SloBurn(), 0.25);
  const sim::SimResult r = sim::RunScenario(sc);
  EXPECT_TRUE(r.ok()) << r.invariants.Summary();
  EXPECT_GT(r.totals.arrivals, 50u);
  EXPECT_GT(r.totals.shed, 0u);
  uint64_t fired = 0, resolved = 0;
  for (const sim::WindowRow& w : r.trajectory) {
    fired += w.alerts_fired;
    resolved += w.alerts_resolved;
  }
  EXPECT_GE(fired, 1u);  // the burst burned the budget
  EXPECT_EQ(fired, resolved + r.trajectory.back().alerts_burning);
}

TEST(SimulatorTest, SloBurnAlertTrajectoryIsDeterministic) {
  // The alert columns are fingerprinted: two runs must agree window by
  // window on when alerts fired, resolved, and how many were burning.
  sim::Scenario sc = sim::ScaledScenario(sim::SloBurn(), 0.25);
  const sim::SimResult a = sim::RunScenario(sc);
  const sim::SimResult b = sim::RunScenario(sc);
  EXPECT_TRUE(a.ok()) << a.invariants.Summary();
  EXPECT_TRUE(b.ok()) << b.invariants.Summary();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].alerts_fired, b.trajectory[i].alerts_fired);
    EXPECT_EQ(a.trajectory[i].alerts_resolved,
              b.trajectory[i].alerts_resolved);
    EXPECT_EQ(a.trajectory[i].alerts_burning,
              b.trajectory[i].alerts_burning);
  }
}

TEST(SimulatorTest, ConcurrentModeHoldsInvariants) {
  sim::Scenario sc = sim::ScaledScenario(sim::PoissonSteady(), 0.05);
  sc.workers = 4;
  const sim::SimResult r = sim::RunScenario(sc);
  EXPECT_TRUE(r.ok()) << r.invariants.Summary();
  EXPECT_GT(r.totals.arrivals, 0u);
  // No virtual residency in concurrent mode.
  EXPECT_EQ(r.totals.holds, 0u);
}

}  // namespace
}  // namespace xee
