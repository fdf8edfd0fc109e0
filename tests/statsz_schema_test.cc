// Golden-schema test for the JSON export surfaces (STATSZ / TRACEZ /
// ACCZ / healthz): parses each document with the strict common/json
// parser and asserts the key names and types dashboards scrape. An
// accidental metric rename now fails ctest here instead of silently
// zeroing a production graph.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "estimator/synopsis.h"
#include "paper_fixture.h"
#include "service/service.h"

namespace xee::service {
namespace {

using json::Value;

/// A service that has exercised every export-visible path: cache miss /
/// exact hit / canonical hit, a degraded answer, a failed parse, a shed
/// (via max_inflight 0 → unbounded, so instead deadline), and full-rate
/// shadow sampling against an attached oracle.
class StatszSchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions opt;
    opt.threads = 1;
    opt.trace_sample = 1;
    opt.accuracy_sample = 1;
    opt.accuracy_max_pending = 1024;
    opt.drift_min_samples = 2;
    // The flight-data surfaces: a generous p99 objective (nothing
    // fires; the schema is what's under test) plus the full SLO set.
    opt.slos = DefaultSloSpecs(0.999, 5'000'000'000, 4.0);
    svc_ = std::make_unique<EstimationService>(opt);
    auto doc = std::make_shared<const xml::Document>(
        testing::MakePaperDocument());
    svc_->registry().Register(
        "paper", estimator::Synopsis::Build(*doc, {}), doc);

    ASSERT_TRUE(svc_->Estimate("paper", "//A/B").ok());  // miss
    ASSERT_TRUE(svc_->Estimate("paper", "//A/B").ok());  // exact hit
    ASSERT_TRUE(svc_->Estimate("paper", "//A[B][C]/B/D").ok());  // miss
    // Different text, same canonical key: a canonical hit.
    ASSERT_TRUE(svc_->Estimate("paper", " //A[C][B] / B / child::D ").ok());
    ASSERT_FALSE(svc_->Estimate("paper", "((").ok());    // parse error
    QueryRequest expired{"paper", "//A/B"};
    expired.deadline = Deadline::AlreadyExpired();
    ASSERT_FALSE(svc_->Estimate(expired).ok());              // deadline
    ASSERT_TRUE(svc_->DrainShadow());
    // Two scrape ticks a full interval apart: the time-series gets real
    // points and the SLO engine real evaluations.
    svc_->ObsTick(1'000'000);
    svc_->ObsTick(2'500'000);
  }

  const Value* MustFind(const Value& v, const std::string& key) {
    const Value* found = v.Find(key);
    EXPECT_NE(found, nullptr) << "missing key: " << key;
    return found;
  }

  std::unique_ptr<EstimationService> svc_;
};

TEST_F(StatszSchemaTest, TopLevelSectionsAndScrapedKeys) {
  Result<Value> parsed = json::Parse(svc_->StatszJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Value& root = parsed.value();
  ASSERT_TRUE(root.is_object());

  // The four top-level sections, all objects.
  for (const char* section : {"counters", "gauges", "histograms",
                              "accuracy"}) {
    const Value* s = MustFind(root, section);
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->is_object()) << section;
  }

  // Counters dashboards alert on. Values are JSON numbers.
  const Value& counters = *root.Find("counters");
  for (const char* key : {
           "service.requests",
           "service.plan_cache{outcome=exact_hit}",
           "service.plan_cache{outcome=canonical_hit}",
           "service.plan_cache{outcome=miss}",
           "service.outcome{reason=deadline_exceeded}",
           "service.analyzer{outcome=checked}",
           "service.analyzer{outcome=pruned}",
           "accuracy.samples{phase=started}",
           "accuracy.samples{phase=recorded}",
       }) {
    const Value* c = MustFind(counters, key);
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->is_number()) << key;
  }
  // The exercised paths counted.
  EXPECT_EQ(counters.Find("service.requests")->number, 6.0);
  EXPECT_EQ(counters.Find("service.plan_cache{outcome=exact_hit}")->number,
            1.0);
  EXPECT_EQ(
      counters.Find("service.plan_cache{outcome=canonical_hit}")->number,
      1.0);
  // One answer cache: no second cache tier exports rows of its own.
  // Pruning is the whole analyzer: no rewrite outcome is exported.
  for (const auto& [key, value] : counters.members) {
    EXPECT_EQ(key.find("memo"), std::string::npos) << key;
    EXPECT_EQ(key.find("rewritten"), std::string::npos) << key;
  }

  // Answer-cache occupancy gauges (named for the plan cache they
  // replaced, so dashboards keep working).
  const Value& gauges = *root.Find("gauges");
  for (const char* key : {"service.plan_cache.entries",
                          "service.plan_cache.bytes",
                          "service.plan_cache.evictions"}) {
    const Value* g = MustFind(gauges, key);
    ASSERT_NE(g, nullptr);
    EXPECT_TRUE(g->is_number()) << key;
  }

  // Histogram rendering: each entry is an object carrying the quantile
  // fields scrapers read.
  const Value& hists = *root.Find("histograms");
  const Value* request_ns = MustFind(hists, "service.request_ns");
  ASSERT_NE(request_ns, nullptr);
  for (const char* field :
       {"count", "sum", "mean", "p50", "p90", "p95", "p99", "max"}) {
    const Value* f = MustFind(*request_ns, field);
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->is_number()) << field;
  }
  // Per-stage spans render under their stage names.
  EXPECT_TRUE(hists.Has("service.stage.parse_ns"));
  EXPECT_TRUE(hists.Has("service.stage.snapshot_ns"));
}

TEST_F(StatszSchemaTest, AccuracySectionSchema) {
  Result<Value> parsed = json::Parse(svc_->StatszJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Value& acc = *MustFind(parsed.value(), "accuracy");

  EXPECT_TRUE(MustFind(acc, "enabled")->is_bool());
  EXPECT_TRUE(MustFind(acc, "sample")->is_number());
  EXPECT_TRUE(MustFind(acc, "drift_qerror_limit")->is_number());
  EXPECT_TRUE(MustFind(acc, "drift_min_samples")->is_number());

  const Value& samples = *MustFind(acc, "samples");
  for (const char* phase :
       {"started", "recorded", "skipped_no_document", "deadline_suppressed",
        "backlog_suppressed", "eval_error", "pending"}) {
    const Value* p = MustFind(samples, phase);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(p->is_number()) << phase;
  }
  // Conservation holds in the export itself.
  EXPECT_EQ(samples.Find("started")->number,
            samples.Find("recorded")->number +
                samples.Find("skipped_no_document")->number +
                samples.Find("deadline_suppressed")->number +
                samples.Find("backlog_suppressed")->number +
                samples.Find("eval_error")->number);

  // Per-class rows: label-keyed objects with the exact-mean fields.
  const Value& classes = *MustFind(acc, "classes");
  ASSERT_TRUE(classes.is_object());
  ASSERT_FALSE(classes.members.empty());
  for (const auto& [label, cls] : classes.members) {
    EXPECT_NE(label.find("axis="), std::string::npos) << label;
    for (const char* field : {"count", "mean_signed_error", "mean_abs_error",
                              "mean_qerror", "max_qerror"}) {
      const Value* f = cls.Find(field);
      ASSERT_NE(f, nullptr) << label << "." << field;
      EXPECT_TRUE(f->is_number());
    }
  }

  // Drift rows and the offender ring.
  const Value& synopses = *MustFind(acc, "synopses");
  const Value* paper = MustFind(synopses, "paper");
  ASSERT_NE(paper, nullptr);
  EXPECT_TRUE(paper->Find("epoch")->is_number());
  EXPECT_TRUE(paper->Find("samples")->is_number());
  EXPECT_TRUE(paper->Find("ewma_qerror")->is_number());
  EXPECT_TRUE(paper->Find("stale")->is_bool());

  const Value& offenders = *MustFind(acc, "offenders");
  ASSERT_TRUE(offenders.is_array());
  ASSERT_FALSE(offenders.items.empty());
  for (const char* field :
       {"synopsis", "query", "class", "estimate", "truth", "qerror"}) {
    EXPECT_TRUE(offenders.items[0].Has(field)) << field;
  }

  // ACCZ is the same document standalone.
  Result<Value> accz = json::Parse(svc_->AccuracyJson());
  ASSERT_TRUE(accz.ok()) << accz.status().ToString();
  EXPECT_TRUE(accz.value().Has("samples"));
}

TEST_F(StatszSchemaTest, TracezSchema) {
  Result<Value> parsed = json::Parse(svc_->traces().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Value& root = parsed.value();
  const Value* recent = MustFind(root, "recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_TRUE(recent->is_array());
  ASSERT_FALSE(recent->items.empty());
  const Value& entry = recent->items[0];
  for (const char* field : {"seq", "total_ns", "synopsis", "query",
                            "outcome", "tail", "degraded", "stages_ns"}) {
    EXPECT_TRUE(entry.Has(field)) << field;
  }
  // The fixture's parse error and expired deadline are tail-retained.
  const Value* tail = MustFind(root, "tail");
  ASSERT_TRUE(tail->is_array());
  ASSERT_FALSE(tail->items.empty());
  EXPECT_TRUE(tail->items[0].Has("tail"));
  // Exemplars link latency octaves to trace seqs.
  const Value* exemplars = MustFind(root, "exemplars");
  ASSERT_TRUE(exemplars->is_array());
  ASSERT_FALSE(exemplars->items.empty());
  for (const char* field : {"bucket_ns", "seq", "total_ns", "outcome"}) {
    EXPECT_TRUE(exemplars->items[0].Has(field)) << field;
  }
}

TEST_F(StatszSchemaTest, TszSchema) {
  Result<Value> parsed = json::Parse(svc_->TszJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Value& root = parsed.value();
  EXPECT_TRUE(MustFind(root, "enabled")->is_bool());
  EXPECT_TRUE(MustFind(root, "interval_us")->is_number());
  EXPECT_TRUE(MustFind(root, "samples")->is_number());
  EXPECT_EQ(MustFind(root, "samples")->number, 2.0);
  const Value& series = *MustFind(root, "series");
  ASSERT_TRUE(series.is_object());
  // Core series scrapers chart, including one per-tenant labeled row
  // and the histogram sub-series.
  for (const char* key :
       {"service.requests", "tenant.requests{tenant=paper}",
        "service.request_ns.count", "service.request_ns.p99"}) {
    const Value* s = MustFind(series, key);
    ASSERT_NE(s, nullptr) << key;
    ASSERT_TRUE(s->is_array()) << key;
    ASSERT_FALSE(s->items.empty()) << key;
    // Each point is a [t_us, value] pair.
    ASSERT_TRUE(s->items[0].is_array()) << key;
    ASSERT_EQ(s->items[0].items.size(), 2u) << key;
  }
  // The first interval saw all six requests.
  const Value& req = *series.Find("service.requests");
  EXPECT_EQ(req.items[0].items[1].number, 6.0);
}

TEST_F(StatszSchemaTest, AlertzSchema) {
  Result<Value> parsed = json::Parse(svc_->AlertzJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Value& root = parsed.value();
  EXPECT_TRUE(MustFind(root, "enabled")->is_bool());
  EXPECT_TRUE(MustFind(root, "evaluations")->is_number());
  EXPECT_EQ(MustFind(root, "evaluations")->number, 2.0);
  const Value* alerts = MustFind(root, "alerts");
  ASSERT_TRUE(alerts->is_array());
  ASSERT_EQ(alerts->items.size(), 3u);  // availability, latency, q-error
  for (const Value& a : alerts->items) {
    for (const char* field :
         {"slo", "kind", "state", "objective", "fast_burn", "slow_burn",
          "fast_window_us", "slow_window_us", "fired", "resolved",
          "since_us"}) {
      EXPECT_TRUE(a.Has(field)) << field;
    }
  }
  // SLO transition counters export through STATSZ too.
  Result<Value> statsz = json::Parse(svc_->StatszJson());
  ASSERT_TRUE(statsz.ok());
  const Value& counters = *MustFind(statsz.value(), "counters");
  EXPECT_TRUE(counters.Has("slo.alert{slo=availability,transition=fired}"));
  EXPECT_TRUE(
      counters.Has("slo.alert{slo=availability,transition=resolved}"));
}

TEST_F(StatszSchemaTest, FlightzSchema) {
  Result<Value> parsed = json::Parse(svc_->FlightzJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Value& root = parsed.value();
  EXPECT_TRUE(MustFind(root, "enabled")->is_bool());
  EXPECT_TRUE(MustFind(root, "recorded")->is_number());
  EXPECT_TRUE(MustFind(root, "capacity")->is_number());
  const Value* events = MustFind(root, "events");
  ASSERT_TRUE(events->is_array());
  // Six requests plus the first-publish epoch bump, at minimum.
  ASSERT_GE(events->items.size(), 7u);
  bool saw_request = false;
  bool saw_epoch = false;
  for (const Value& e : events->items) {
    for (const char* field : {"seq", "t_us", "type", "a", "name", "b", "c"}) {
      EXPECT_TRUE(e.Has(field)) << field;
    }
    if (e.Find("type")->str == "request") saw_request = true;
    if (e.Find("type")->str == "epoch") saw_epoch = true;
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_epoch);
}

TEST_F(StatszSchemaTest, TailRetentionCountersExport) {
  Result<Value> parsed = json::Parse(svc_->StatszJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Value& counters = *MustFind(parsed.value(), "counters");
  // The fixture produced one parse error and one expired deadline;
  // both retained.
  EXPECT_EQ(counters.Find("service.trace.tail{class=error}")->number, 1.0);
  EXPECT_EQ(counters.Find("service.trace.tail{class=deadline}")->number,
            1.0);
}

TEST_F(StatszSchemaTest, HealthzSchema) {
  Result<Value> parsed = json::Parse(svc_->HealthzJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Value& root = parsed.value();
  const Value* status = MustFind(root, "status");
  ASSERT_NE(status, nullptr);
  EXPECT_TRUE(status->is_string());
  EXPECT_TRUE(status->str == "ok" || status->str == "stale");
  const Value* paper = MustFind(*MustFind(root, "synopses"), "paper");
  ASSERT_NE(paper, nullptr);
  EXPECT_TRUE(paper->Find("epoch")->is_number());
  EXPECT_TRUE(paper->Find("health")->is_string());
  EXPECT_TRUE(paper->Find("order_quarantined")->is_bool());
  EXPECT_TRUE(paper->Find("has_truth")->is_bool());
  EXPECT_TRUE(MustFind(root, "quarantined")->is_array());
}

}  // namespace
}  // namespace xee::service
