// Unit coverage for the accuracy-observability layer (DESIGN.md §11):
// the AccuracyTracker's seeded sampling, error math, per-class
// accumulators, drift EWMA with its sample gate, the bounded
// worst-offenders ring, the conservation counters, the query
// classifier, and the registry's health/ground-truth plumbing. The
// concurrent tests here are in the TSan slice (scripts/check_tsan.sh).

#include "obs/accuracy.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "paper_fixture.h"
#include "service/service.h"
#include "service/synopsis_registry.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xee::obs {
namespace {

AccuracyOptions SmallOptions() {
  AccuracyOptions o;
  o.sample = 1;
  o.drift_min_samples = 4;
  o.drift_qerror_limit = 2.0;
  o.offender_capacity = 4;
  o.max_pending = 2;
  return o;
}

TEST(AccuracyMathTest, QErrorAndSignedError) {
  EXPECT_DOUBLE_EQ(AccuracyMath::QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(AccuracyMath::QError(20, 10), 2.0);
  EXPECT_DOUBLE_EQ(AccuracyMath::QError(10, 20), 2.0);
  // Operands floor at 1: zero truth or sub-1 estimates never divide by
  // zero, and an (0.1, 0) pair is "no error" by convention.
  EXPECT_DOUBLE_EQ(AccuracyMath::QError(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(AccuracyMath::QError(5, 0), 5.0);
  EXPECT_DOUBLE_EQ(AccuracyMath::SignedRelError(15, 10), 0.5);
  EXPECT_DOUBLE_EQ(AccuracyMath::SignedRelError(5, 10), -0.5);
  EXPECT_DOUBLE_EQ(AccuracyMath::SignedRelError(3, 0), 3.0);
}

TEST(QueryClassTest, LabelRendersEveryDimension) {
  QueryClass c;
  EXPECT_EQ(c.Label(), "axis=child,shape=chain,pred=0,depth=1-4");
  c.descendant = true;
  c.depth = 6;
  EXPECT_EQ(c.Label(), "axis=desc,shape=chain,pred=0,depth=5-8");
  c.order = true;  // order wins over descendant in the axis dimension
  c.branched = true;
  c.predicate = true;
  c.depth = 9;
  EXPECT_EQ(c.Label(), "axis=order,shape=branch,pred=1,depth=9+");
}

TEST(AccuracyTrackerTest, SamplingIsSeedDeterministic) {
  Registry r1, r2, r3;
  AccuracyOptions o;
  o.sample = 4;
  o.seed = 99;
  AccuracyTracker a(&r1, o), b(&r2, o);
  o.seed = 100;
  AccuracyTracker c(&r3, o);

  std::vector<bool> da, db, dc;
  for (int i = 0; i < 4096; ++i) {
    da.push_back(a.ShouldSample(i));
    db.push_back(b.ShouldSample(i));
    dc.push_back(c.ShouldSample(i));
  }
  // Same (seed, rate): identical decision sequence, tick by tick.
  EXPECT_EQ(da, db);
  // A different seed samples different positions (with 2^-4096 odds of
  // a false failure).
  EXPECT_NE(da, dc);
  // The mixed stream hits ~1-in-4 of ticks.
  const size_t hits = static_cast<size_t>(
      std::count(da.begin(), da.end(), true));
  EXPECT_GT(hits, 4096 / 4 / 2);
  EXPECT_LT(hits, 4096 / 4 * 2);
  EXPECT_EQ(r1.CounterValue("accuracy.samples", "phase=started"), hits);
}

TEST(AccuracyTrackerTest, SampleZeroDisablesAndOneAlwaysFires) {
  Registry r;
  AccuracyOptions o = SmallOptions();
  o.sample = 0;
  AccuracyTracker off(&r, o);
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(off.ShouldSample(i));

  Registry r2;
  o.sample = 1;
  AccuracyTracker on(&r2, o);
  EXPECT_TRUE(on.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(on.ShouldSample(i));
}

TEST(AccuracyTrackerTest, PendingCapSuppressesBacklog) {
  Registry r;
  AccuracyTracker t(&r, SmallOptions());  // max_pending = 2
  EXPECT_TRUE(t.TryBeginShadow());
  EXPECT_TRUE(t.TryBeginShadow());
  EXPECT_EQ(t.pending(), 2u);
  EXPECT_FALSE(t.TryBeginShadow());
  EXPECT_EQ(r.CounterValue("accuracy.samples", "phase=backlog_suppressed"),
            1u);
  t.EndShadow();
  EXPECT_TRUE(t.TryBeginShadow());
  t.EndShadow();
  t.EndShadow();
  EXPECT_EQ(t.pending(), 0u);
}

TEST(AccuracyTrackerTest, RecordAccumulatesExactClassStats) {
  Registry r;
  AccuracyTracker t(&r, SmallOptions());
  QueryClass cls;
  cls.descendant = true;
  cls.depth = 3;

  t.Record("syn", 1, cls, "//a/b", 20, 10);  // q=2, signed=+1
  t.Record("syn", 1, cls, "//a/c", 5, 10);   // q=2, signed=-0.5
  const std::vector<ClassAccuracy> classes = t.Classes();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].label, "axis=desc,shape=chain,pred=0,depth=1-4");
  EXPECT_EQ(classes[0].count, 2u);
  EXPECT_DOUBLE_EQ(classes[0].mean_qerror, 2.0);
  EXPECT_DOUBLE_EQ(classes[0].max_qerror, 2.0);
  EXPECT_DOUBLE_EQ(classes[0].mean_signed_error, 0.25);
  EXPECT_DOUBLE_EQ(classes[0].mean_abs_error, 0.75);

  // The histogram mirror records milli-q-error / ppm under the label.
  EXPECT_EQ(r.HistogramSnap("accuracy.qerror_milli", classes[0].label).count,
            2u);
  EXPECT_EQ(
      r.HistogramSnap("accuracy.error_ppm", "dir=over," + classes[0].label)
          .count,
      1u);
  EXPECT_EQ(
      r.HistogramSnap("accuracy.error_ppm", "dir=under," + classes[0].label)
          .count,
      1u);
  EXPECT_EQ(r.CounterValue("accuracy.samples", "phase=recorded"), 2u);
}

TEST(AccuracyTrackerTest, DriftTripsOnlyPastSampleGate) {
  Registry r;
  AccuracyTracker t(&r, SmallOptions());  // limit 2.0, min_samples 4
  QueryClass cls;
  // Three terrible samples: EWMA far over the limit, but under the gate.
  for (int i = 0; i < 3; ++i) {
    SynopsisAccuracy s = t.Record("syn", 7, cls, "//a", 100, 1);
    EXPECT_FALSE(s.stale) << "sample " << i;
  }
  // The fourth crosses drift_min_samples: now the verdict lands.
  SynopsisAccuracy s = t.Record("syn", 7, cls, "//a", 100, 1);
  EXPECT_TRUE(s.stale);
  EXPECT_EQ(s.samples, 4u);
  EXPECT_EQ(s.epoch, 7u);
  EXPECT_GT(s.ewma_qerror, 2.0);
}

TEST(AccuracyTrackerTest, HealthySynopsisNeverTrips) {
  Registry r;
  AccuracyTracker t(&r, SmallOptions());
  QueryClass cls;
  for (int i = 0; i < 64; ++i) {
    SynopsisAccuracy s = t.Record("good", 1, cls, "//a", 101, 100);
    EXPECT_FALSE(s.stale);
  }
}

TEST(AccuracyTrackerTest, EpochChangeResetsDrift) {
  Registry r;
  AccuracyTracker t(&r, SmallOptions());
  QueryClass cls;
  for (int i = 0; i < 8; ++i) t.Record("syn", 1, cls, "//a", 100, 1);
  ASSERT_TRUE(t.SynopsisState("syn")->stale);
  // A new epoch (re-registered synopsis): drift restarts clean — the
  // old version's verdict says nothing about the new one.
  SynopsisAccuracy s = t.Record("syn", 2, cls, "//a", 1, 1);
  EXPECT_EQ(s.samples, 1u);
  EXPECT_EQ(s.epoch, 2u);
  EXPECT_FALSE(s.stale);
  EXPECT_DOUBLE_EQ(s.ewma_qerror, 1.0);
}

TEST(AccuracyTrackerTest, OffenderRingIsBoundedTopK) {
  Registry r;
  AccuracyTracker t(&r, SmallOptions());  // capacity 4
  QueryClass cls;
  for (int q = 1; q <= 10; ++q) {
    t.Record("syn", 1, cls, "query-" + std::to_string(q),
             static_cast<double>(q * 10), 10);
  }
  const std::vector<AccuracyOffender> worst = t.Offenders();
  ASSERT_EQ(worst.size(), 4u);
  // Top-4 by q-error, descending: the q=10..7 estimates.
  EXPECT_EQ(worst[0].query, "query-10");
  EXPECT_EQ(worst[1].query, "query-9");
  EXPECT_EQ(worst[2].query, "query-8");
  EXPECT_EQ(worst[3].query, "query-7");
  EXPECT_DOUBLE_EQ(worst[0].qerror, 10.0);
  EXPECT_EQ(worst[0].label, cls.Label());
}

TEST(AccuracyTrackerTest, ConservationAcrossAllPhases) {
  Registry r;
  AccuracyOptions o = SmallOptions();
  o.sample = 2;
  AccuracyTracker t(&r, o);
  QueryClass cls;
  uint64_t sampled = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!t.ShouldSample(i)) continue;
    ++sampled;
    switch (sampled % 4) {
      case 0:
        t.Record("syn", 1, cls, "//a", 2, 1);
        break;
      case 1:
        t.SkipNoDocument();
        break;
      case 2:
        t.SuppressDeadline();
        break;
      case 3:
        t.SkipEvalError();
        break;
    }
  }
  auto phase = [&](const char* p) {
    return r.CounterValue("accuracy.samples", std::string("phase=") + p);
  };
  EXPECT_EQ(phase("started"), sampled);
  EXPECT_EQ(phase("started"),
            phase("recorded") + phase("skipped_no_document") +
                phase("deadline_suppressed") + phase("backlog_suppressed") +
                phase("eval_error"));
}

TEST(AccuracyTrackerTest, ToJsonIsValidAndCarriesState) {
  Registry r;
  AccuracyTracker t(&r, SmallOptions());
  QueryClass cls;
  cls.predicate = true;
  // A query carrying every JSON-hostile byte class the ring might meet.
  t.Record("syn\"\\\n", 3, cls, "//a[.=\"x\\y\n\xff\"]", 42, 7);

  Result<json::Value> doc = json::Parse(t.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value& v = doc.value();
  EXPECT_TRUE(v.Find("enabled")->boolean);
  EXPECT_EQ(v.Find("sample")->number, 1.0);
  EXPECT_TRUE(v.Find("samples")->Has("started"));
  EXPECT_TRUE(v.Find("samples")->Has("recorded"));
  ASSERT_EQ(v.Find("classes")->members.size(), 1u);
  EXPECT_EQ(v.Find("classes")->members[0].first,
            "axis=child,shape=chain,pred=1,depth=1-4");
  ASSERT_EQ(v.Find("offenders")->items.size(), 1u);
  EXPECT_TRUE(v.Find("offenders")->items[0].Has("qerror"));
}

// TSan target: concurrent sampling, admission, and recording must be
// race-free and conserve every counter.
TEST(AccuracyTrackerTest, ConcurrentRecordingConserves) {
  Registry r;
  AccuracyOptions o;
  o.sample = 2;
  o.max_pending = 8;
  o.offender_capacity = 8;
  AccuracyTracker t(&r, o);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&t, ti] {
      QueryClass cls;
      cls.depth = ti + 1;
      for (int i = 0; i < kPerThread; ++i) {
        if (!t.ShouldSample(i)) continue;
        if (!t.TryBeginShadow()) continue;
        t.Record("syn-" + std::to_string(ti % 2), 1, cls, "//a/b",
                 static_cast<double>(i % 7 + 1), 3);
        t.EndShadow();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  auto phase = [&](const char* p) {
    return r.CounterValue("accuracy.samples", std::string("phase=") + p);
  };
  EXPECT_EQ(t.pending(), 0u);
  EXPECT_EQ(phase("started"), phase("recorded") + phase("backlog_suppressed"));
  uint64_t class_total = 0;
  for (const ClassAccuracy& c : t.Classes()) class_total += c.count;
  EXPECT_EQ(class_total, phase("recorded"));
  uint64_t drift_total = 0;
  for (const SynopsisAccuracy& s : t.Synopses()) drift_total += s.samples;
  EXPECT_EQ(drift_total, phase("recorded"));
  Result<json::Value> doc = json::Parse(t.ToJson());
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
}

}  // namespace
}  // namespace xee::obs

namespace xee::service {
namespace {

xpath::Query MustParse(const std::string& text) {
  Result<xpath::Query> q = xpath::ParseXPath(text);
  EXPECT_TRUE(q.ok()) << text;
  return xpath::Canonicalize(q.value());
}

TEST(ClassifyQueryTest, DimensionsFollowTheQueryShape) {
  obs::QueryClass c = ClassifyQuery(MustParse("/Root/A/B"));
  EXPECT_FALSE(c.order);
  EXPECT_FALSE(c.descendant);
  EXPECT_FALSE(c.branched);
  EXPECT_FALSE(c.predicate);
  EXPECT_EQ(c.depth, 3);

  // A root-anywhere query starts with an implicit '//'.
  EXPECT_TRUE(ClassifyQuery(MustParse("//A/B")).descendant);
  EXPECT_TRUE(ClassifyQuery(MustParse("/Root//B")).descendant);
  EXPECT_TRUE(ClassifyQuery(MustParse("/Root/A[B]/C")).branched);
  EXPECT_TRUE(ClassifyQuery(MustParse("/Root/A[.=\"x\"]")).predicate);
  const obs::QueryClass order =
      ClassifyQuery(MustParse("//A/B/following-sibling::C"));
  EXPECT_TRUE(order.order);
  EXPECT_EQ(order.Label().substr(0, 10), "axis=order");
}

TEST(RegistryHealthTest, MarkHealthIsEpochGuarded) {
  SynopsisRegistry reg;
  const uint64_t e1 = reg.Register(
      "d", estimator::Synopsis::Build(testing::MakePaperDocument(), {}));
  EXPECT_EQ(reg.Health("d"), SynopsisHealth::kUnknown);

  EXPECT_TRUE(reg.MarkHealth("d", e1, SynopsisHealth::kStale));
  EXPECT_EQ(reg.Health("d"), SynopsisHealth::kStale);
  EXPECT_EQ(reg.Snapshot("d")->health, SynopsisHealth::kStale);

  // A verdict against a replaced epoch must not taint the successor.
  const uint64_t e2 = reg.Register(
      "d", estimator::Synopsis::Build(testing::MakePaperDocument(), {}));
  EXPECT_EQ(reg.Health("d"), SynopsisHealth::kUnknown);
  EXPECT_FALSE(reg.MarkHealth("d", e1, SynopsisHealth::kStale));
  EXPECT_EQ(reg.Health("d"), SynopsisHealth::kUnknown);
  EXPECT_TRUE(reg.MarkHealth("d", e2, SynopsisHealth::kHealthy));
  EXPECT_EQ(reg.Health("d"), SynopsisHealth::kHealthy);
  EXPECT_FALSE(reg.MarkHealth("absent", 1, SynopsisHealth::kHealthy));
}

TEST(RegistryHealthTest, DocumentAttachBuildsGroundTruth) {
  SynopsisRegistry reg;
  auto doc = std::make_shared<const xml::Document>(
      testing::MakePaperDocument());
  reg.Register("d", estimator::Synopsis::Build(*doc, {}), doc);

  std::optional<SynopsisSnapshot> snap = reg.Snapshot("d");
  ASSERT_TRUE(snap.has_value());
  ASSERT_NE(snap->truth, nullptr);
  EXPECT_EQ(snap->truth->document.get(), doc.get());
  // The oracle really answers: //A/B has 4 matches in the paper tree.
  Result<uint64_t> n = snap->truth->evaluator.Count(MustParse("//A/B"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 4u);

  // Registering a new version drops the oracle (it described the old
  // version's source); AttachDocument restores one without an epoch bump.
  reg.Register("d", estimator::Synopsis::Build(*doc, {}));
  const uint64_t epoch = reg.Snapshot("d")->epoch;
  EXPECT_EQ(reg.Snapshot("d")->truth, nullptr);
  EXPECT_TRUE(reg.AttachDocument("d", doc));
  EXPECT_NE(reg.Snapshot("d")->truth, nullptr);
  EXPECT_EQ(reg.Snapshot("d")->epoch, epoch);
  EXPECT_FALSE(reg.AttachDocument("absent", doc));
}

TEST(RegistryHealthTest, HealthRowsAndQuarantinedNames) {
  SynopsisRegistry reg;
  auto doc = std::make_shared<const xml::Document>(
      testing::MakePaperDocument());
  reg.Register("b", estimator::Synopsis::Build(*doc, {}), doc);
  const uint64_t ea = reg.Register(
      "a", estimator::Synopsis::Build(*doc, {}));
  reg.MarkHealth("a", ea, SynopsisHealth::kHealthy);
  reg.RegisterSerialized("broken", "not a synopsis blob");

  const std::vector<SynopsisHealthRow> rows = reg.HealthRows();
  ASSERT_EQ(rows.size(), 2u);  // quarantined names are not serving
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_EQ(rows[0].health, SynopsisHealth::kHealthy);
  EXPECT_FALSE(rows[0].has_truth);
  EXPECT_EQ(rows[1].name, "b");
  EXPECT_EQ(rows[1].health, SynopsisHealth::kUnknown);
  EXPECT_TRUE(rows[1].has_truth);

  const auto quarantined = reg.QuarantinedNames();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].first, "broken");
  EXPECT_FALSE(quarantined[0].second.ok());

  EXPECT_EQ(SynopsisHealthName(SynopsisHealth::kUnknown), "unknown");
  EXPECT_EQ(SynopsisHealthName(SynopsisHealth::kHealthy), "healthy");
  EXPECT_EQ(SynopsisHealthName(SynopsisHealth::kStale), "stale");
}

}  // namespace
}  // namespace xee::service
