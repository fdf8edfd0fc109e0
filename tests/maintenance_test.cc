// Service-layer maintenance tests (DESIGN.md §14): registry epoch
// semantics under live mutation and background rebuilds — epoch bumps
// invalidate the answer cache, rebuild.alloc failures retry with
// backoff and eventually abandon, the blown patch-error budget marks
// the snapshot stale and (policy-gated) self-heals back to healthy,
// estimates keep serving across publishes, and the maintenance ledger
// shows up in healthz.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "delta/document_delta.h"
#include "service/maintenance.h"
#include "service/service.h"
#include "xml/tree.h"

namespace xee {
namespace {

xml::Document SmallDoc() {
  xml::Document doc;
  auto root = doc.CreateRoot("Root");
  for (int i = 0; i < 3; ++i) {
    auto a = doc.AppendChild(root, "A");
    auto b = doc.AppendChild(a, "B");
    doc.AppendChild(b, "D");
    doc.AppendChild(a, "C");
  }
  doc.Finalize();
  return doc;
}

delta::DocumentDelta CloneDelta(const service::EstimationService& svc,
                                const std::string& name, uint32_t rank) {
  auto op = svc.maintenance().CloneOp(name, rank);
  EXPECT_TRUE(op.ok()) << op.status().message();
  delta::DocumentDelta d;
  d.ops.push_back(std::move(op).value());
  return d;
}

delta::DocumentDelta NovelDelta(const std::string& tag) {
  delta::DeltaOp op;
  op.kind = delta::DeltaOp::Kind::kInsert;
  op.target = 1;
  op.subtree.tags = {tag};
  op.subtree.parent = {-1};
  delta::DocumentDelta d;
  d.ops.push_back(op);
  return d;
}

// Returns by value: callers pass the temporary vector from Rows(), so a
// reference into it would dangle past the full expression.
service::MaintenanceRow RowOf(
    const std::vector<service::MaintenanceRow>& rows,
    const std::string& name) {
  for (const auto& r : rows) {
    if (r.name == name) return r;
  }
  ADD_FAILURE() << "no maintenance row for " << name;
  return {};
}

class MaintenanceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(MaintenanceTest, ApplyDeltaBumpsEpochAndInvalidatesMemo) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.accuracy_sample = 0;
  service::EstimationService svc(opt);
  const uint64_t epoch0 = svc.RegisterLive("live", SmallDoc());

  // Warm the answer cache: a miss, then an exact hit.
  const std::string q = "//A/B";
  const double before = svc.Estimate("live", q).value();
  EXPECT_EQ(svc.Estimate("live", q).value(), before);

  // Doubling every A/B via clones must show up in the next estimate:
  // the cache is epoch-keyed, so the publish invalidates it for free.
  auto out = svc.ApplyDelta("live", CloneDelta(svc, "live", 1));
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out.value().epoch, epoch0);
  const double after = svc.Estimate("live", q).value();
  EXPECT_GT(after, before);
  EXPECT_EQ(svc.Stats().misses, 2u);  // re-estimated, not served stale

  const auto& row = RowOf(svc.maintenance().Rows(), "live");
  EXPECT_EQ(row.deltas_applied, 1u);
  EXPECT_EQ(row.state, service::MaintenanceState::kPatched);
}

TEST_F(MaintenanceTest, RebuildRetriesAllocFailureThenCompletes) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.accuracy_sample = 0;
  opt.rebuild_backoff_ms = 1;
  service::EstimationService svc(opt);
  svc.RegisterLive("live", SmallDoc());

  FaultConfig cfg;
  cfg.probability = 1.0;
  cfg.max_fires = 2;  // first two build attempts fail, the third lands
  FaultInjector::Global().Arm(service::MaintenanceManager::kAllocFaultSite,
                              cfg);
  EXPECT_TRUE(svc.ScheduleRebuild("live", "manual"));
  ASSERT_TRUE(svc.DrainMaintenance(30'000));
  FaultInjector::Global().Reset();

  const auto& row = RowOf(svc.maintenance().Rows(), "live");
  EXPECT_EQ(row.rebuilds_scheduled, 1u);
  EXPECT_EQ(row.rebuilds_completed, 1u);
  EXPECT_EQ(row.rebuilds_retried, 2u);
  EXPECT_EQ(row.rebuilds_abandoned, 0u);
  EXPECT_EQ(row.state, service::MaintenanceState::kHealthy);
}

TEST_F(MaintenanceTest, RebuildAbandonsAfterRetryBudget) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.accuracy_sample = 0;
  opt.rebuild_max_retries = 1;
  opt.rebuild_backoff_ms = 1;
  service::EstimationService svc(opt);
  const uint64_t epoch0 = svc.RegisterLive("live", SmallDoc());

  FaultConfig cfg;
  cfg.probability = 1.0;  // every attempt fails
  FaultInjector::Global().Arm(service::MaintenanceManager::kAllocFaultSite,
                              cfg);
  EXPECT_TRUE(svc.ScheduleRebuild("live", "manual"));
  ASSERT_TRUE(svc.DrainMaintenance(30'000));
  FaultInjector::Global().Reset();

  const auto& row = RowOf(svc.maintenance().Rows(), "live");
  EXPECT_EQ(row.rebuilds_scheduled, 1u);
  EXPECT_EQ(row.rebuilds_completed, 0u);
  EXPECT_EQ(row.rebuilds_abandoned, 1u);
  // The ledger closes: scheduled == completed + abandoned.
  EXPECT_EQ(row.rebuilds_scheduled,
            row.rebuilds_completed + row.rebuilds_abandoned);

  // No publish happened, and the service keeps serving the last
  // snapshot: estimates still answer.
  EXPECT_EQ(RowOf(svc.maintenance().Rows(), "live").epoch, epoch0);
  EXPECT_TRUE(svc.Estimate("live", "//A/B").ok());

  // A later un-faulted rebuild recovers.
  EXPECT_TRUE(svc.ScheduleRebuild("live", "manual"));
  ASSERT_TRUE(svc.DrainMaintenance(30'000));
  const auto& row2 = RowOf(svc.maintenance().Rows(), "live");
  EXPECT_EQ(row2.rebuilds_completed, 1u);
  EXPECT_GT(row2.epoch, epoch0);
  EXPECT_EQ(row2.state, service::MaintenanceState::kHealthy);
}

TEST_F(MaintenanceTest, BudgetExhaustionSelfHealsUnderAutoRebuild) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.accuracy_sample = 0;
  opt.auto_rebuild = true;
  opt.patch_error_budget = 1e-6;  // any inexact patch blows it
  service::EstimationService svc(opt);
  svc.RegisterLive("live", SmallDoc());

  auto out = svc.ApplyDelta("live", NovelDelta("Zed"));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().budget_exhausted);

  ASSERT_TRUE(svc.DrainMaintenance(30'000));
  const auto& row = RowOf(svc.maintenance().Rows(), "live");
  EXPECT_GE(row.rebuilds_completed, 1u);
  EXPECT_EQ(row.state, service::MaintenanceState::kHealthy);
  EXPECT_EQ(row.patch_error, 0.0);
  EXPECT_FALSE(row.budget_exhausted);

  // The rebuilt synopsis represents the novel path: it is estimable now.
  auto est = svc.Estimate("live", "//A/Zed");
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est.value(), 0.0);
}

TEST_F(MaintenanceTest, WithoutAutoRebuildStaleStateSticks) {
  service::ServiceOptions opt;
  opt.threads = 1;
  opt.accuracy_sample = 0;
  opt.auto_rebuild = false;
  opt.patch_error_budget = 1e-6;
  service::EstimationService svc(opt);
  svc.RegisterLive("live", SmallDoc());

  auto out = svc.ApplyDelta("live", NovelDelta("Zed"));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().budget_exhausted);
  ASSERT_TRUE(svc.DrainMaintenance(5'000));

  const auto& row = RowOf(svc.maintenance().Rows(), "live");
  EXPECT_EQ(row.rebuilds_scheduled, 0u);  // observability first, no policy
  EXPECT_EQ(row.state, service::MaintenanceState::kStale);
  EXPECT_TRUE(row.budget_exhausted);

  // Healthz carries the verdict and the ledger.
  const std::string hz = svc.HealthzJson();
  EXPECT_NE(hz.find("\"maintenance\""), std::string::npos);
  EXPECT_NE(hz.find("\"stale\""), std::string::npos);
}

TEST_F(MaintenanceTest, EstimatesServeAcrossSlowRebuildPublishes) {
  service::ServiceOptions opt;
  opt.threads = 2;
  opt.accuracy_sample = 0;
  service::EstimationService svc(opt);
  svc.RegisterLive("live", SmallDoc());

  // Stretch each rebuild so estimate batches genuinely overlap the
  // rebuild pipeline and its publishes.
  FaultConfig slow;
  slow.probability = 1.0;
  slow.payload = 5;  // ms
  FaultInjector::Global().Arm(service::MaintenanceManager::kSlowFaultSite,
                              slow);

  std::vector<service::QueryRequest> reqs;
  for (int i = 0; i < 16; ++i) {
    reqs.push_back(service::QueryRequest{"live", "//A/B", {}});
  }
  for (int round = 0; round < 4; ++round) {
    svc.ScheduleRebuild("live", "manual");
    for (const auto& outcome : svc.EstimateBatch(reqs)) {
      ASSERT_TRUE(outcome.ok()) << outcome.status().message();
      EXPECT_GT(outcome.value(), 0.0);
    }
  }
  FaultInjector::Global().Reset();
  ASSERT_TRUE(svc.DrainMaintenance(30'000));

  const auto& row = RowOf(svc.maintenance().Rows(), "live");
  EXPECT_EQ(row.rebuilds_scheduled,
            row.rebuilds_completed + row.rebuilds_abandoned);
  EXPECT_GE(row.rebuilds_completed, 1u);
}

TEST_F(MaintenanceTest, ScheduleRebuildCoalescesWhileInFlight) {
  service::ServiceOptions opt;
  opt.threads = 2;
  opt.accuracy_sample = 0;
  service::EstimationService svc(opt);
  svc.RegisterLive("live", SmallDoc());

  FaultConfig slow;
  slow.probability = 1.0;
  slow.payload = 20;  // ms: long enough to overlap the re-schedules
  slow.max_fires = 1;
  FaultInjector::Global().Arm(service::MaintenanceManager::kSlowFaultSite,
                              slow);
  EXPECT_TRUE(svc.ScheduleRebuild("live", "manual"));
  EXPECT_TRUE(svc.ScheduleRebuild("live", "manual"));
  EXPECT_TRUE(svc.ScheduleRebuild("live", "manual"));
  ASSERT_TRUE(svc.DrainMaintenance(30'000));
  FaultInjector::Global().Reset();

  const auto& row = RowOf(svc.maintenance().Rows(), "live");
  // At least the first schedule ran; the overlapping ones coalesced
  // into it rather than queueing duplicate builds.
  EXPECT_GE(row.rebuilds_completed, 1u);
  EXPECT_EQ(row.rebuilds_scheduled + row.rebuilds_coalesced, 3u);
  EXPECT_EQ(row.rebuilds_scheduled,
            row.rebuilds_completed + row.rebuilds_abandoned);
}

TEST_F(MaintenanceTest, ScheduleRebuildUnknownNameIsFalse) {
  service::EstimationService svc;
  EXPECT_FALSE(svc.ScheduleRebuild("nope", "manual"));
  // Static (non-live) registrations are not maintainable either.
  service::ServiceOptions opt;
  opt.threads = 1;
  service::EstimationService svc2(opt);
  xml::Document doc = SmallDoc();
  auto syn = std::make_shared<estimator::Synopsis>(
      estimator::Synopsis::Build(doc, estimator::SynopsisOptions{}));
  svc2.registry().Register("static", std::move(syn), nullptr);
  EXPECT_FALSE(svc2.ScheduleRebuild("static", "manual"));
  auto out = svc2.ApplyDelta("static", NovelDelta("Z"));
  EXPECT_FALSE(out.ok());
}

}  // namespace
}  // namespace xee
