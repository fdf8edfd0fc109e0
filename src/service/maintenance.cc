#include "service/maintenance.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/fault.h"

namespace xee::service {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

void SleepMs(uint64_t ms) {
  if (ms == 0) return;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

const char* MaintenanceStateName(MaintenanceState s) {
  switch (s) {
    case MaintenanceState::kHealthy:
      return "healthy";
    case MaintenanceState::kPatched:
      return "patched";
    case MaintenanceState::kStale:
      return "stale";
    case MaintenanceState::kRebuilding:
      return "rebuilding";
  }
  return "unknown";
}

MaintenanceManager::MaintenanceManager(
    SynopsisRegistry* registry, obs::Registry* obs, Options options,
    std::function<void(std::function<void()>)> executor)
    : registry_(registry),
      obs_(obs),
      options_(options),
      executor_(std::move(executor)) {
  XEE_CHECK(registry_ != nullptr && obs_ != nullptr);
}

uint64_t MaintenanceManager::RegisterLive(
    const std::string& name, xml::Document doc,
    const estimator::SynopsisOptions& build) {
  if (!doc.finalized()) doc.Finalize();
  auto entry = std::make_unique<Entry>();
  entry->live = std::make_unique<delta::LiveDocument>(std::move(doc));
  entry->build = build;
  // The fresh document is pristine, so building straight off the live
  // tree is safe — the never-label-the-live-tree rule starts mattering
  // at the first mutation.
  auto synopsis = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(entry->live->doc(), build));
  delta::PatchOptions patch;
  patch.error_budget = options_.error_budget;
  patch.histo_patch_tolerance = options_.histo_patch_tolerance;
  patch.build = build;
  entry->synopsis = std::make_unique<delta::LiveSynopsis>(
      synopsis, entry->live.get(), patch);
  const uint64_t epoch = Publish(name, entry.get(), std::move(synopsis));
  std::lock_guard<std::mutex> lock(mu_);
  entries_[name] = std::move(entry);
  return epoch;
}

bool MaintenanceManager::Managed(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.find(name) != entries_.end();
}

MaintenanceManager::Entry* MaintenanceManager::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

uint64_t MaintenanceManager::Publish(
    const std::string& name, Entry* entry,
    std::shared_ptr<const estimator::Synopsis> synopsis) {
  std::shared_ptr<const xml::Document> truth;
  if (options_.attach_truth) {
    truth = std::make_shared<const xml::Document>(entry->live->Materialize());
  }
  entry->epoch = registry_->Register(name, std::move(synopsis),
                                     std::move(truth));
  return entry->epoch;
}

Result<ApplyOutcome> MaintenanceManager::ApplyDelta(
    const std::string& name, const delta::DocumentDelta& delta) {
  Entry* entry = Find(name);
  if (entry == nullptr) {
    return Status(StatusCode::kNotFound, "no live document: " + name);
  }
  const Clock::time_point t0 = Clock::now();
  std::lock_guard<std::mutex> lock(entry->mu);
  Result<delta::ApplyResult> applied = entry->synopsis->Apply(delta);
  if (!applied.ok()) {
    ++entry->deltas_rejected;
    obs_->GetCounter("service.delta.rejected").Inc();
    return applied.status();
  }
  ApplyOutcome out;
  out.apply = std::move(applied).value();
  out.epoch = Publish(name, entry, out.apply.synopsis);
  out.budget_exhausted = out.apply.budget_exhausted;
  ++entry->deltas_applied;
  if (out.budget_exhausted) {
    // The budget no longer covers the accumulated patch error: the
    // freshly published snapshot starts life convicted, skipping the
    // shadow-sampling trial its drift would eventually lose.
    entry->state = MaintenanceState::kStale;
    registry_->MarkHealth(name, out.epoch, SynopsisHealth::kStale);
  } else if (entry->state == MaintenanceState::kHealthy) {
    entry->state = MaintenanceState::kPatched;
  }
  obs_->GetCounter("service.delta.applied").Inc();
  obs_->GetCounter("service.delta.ops").Add(out.apply.ops_applied);
  obs_->GetCounter("service.delta.nodes_inserted")
      .Add(out.apply.nodes_inserted);
  obs_->GetCounter("service.delta.nodes_deleted")
      .Add(out.apply.nodes_deleted);
  obs_->GetCounter("service.delta.histos_patched")
      .Add(out.apply.histos_patched);
  obs_->GetCounter("service.delta.histos_rebuilt")
      .Add(out.apply.histos_rebuilt);
  obs_->GetHistogram("service.delta.apply_ns").Record(NsSince(t0));
  return out;
}

Result<delta::DeltaOp> MaintenanceManager::CloneOp(const std::string& name,
                                                   uint32_t rank) const {
  Entry* entry = Find(name);
  if (entry == nullptr) {
    return Status(StatusCode::kNotFound, "no live document: " + name);
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (rank == 0 || rank >= entry->live->live_nodes()) {
    return Status(StatusCode::kInvalidArgument,
                  "clone rank out of range (and never 0: the root has "
                  "no parent to clone under)");
  }
  const std::vector<xml::NodeId> by_rank = entry->live->PreorderNodes();
  const xml::NodeId node = by_rank[rank];
  const xml::NodeId parent = entry->live->doc().Parent(node);
  uint32_t parent_rank = 0;
  for (size_t i = 0; i < by_rank.size(); ++i) {
    if (by_rank[i] == parent) {
      parent_rank = static_cast<uint32_t>(i);
      break;
    }
  }
  delta::DeltaOp op;
  op.kind = delta::DeltaOp::Kind::kInsert;
  op.target = parent_rank;
  op.subtree = delta::SpecFromSubtree(*entry->live, node);
  return op;
}

size_t MaintenanceManager::LiveNodeCount(const std::string& name) const {
  Entry* entry = Find(name);
  if (entry == nullptr) return 0;
  std::lock_guard<std::mutex> lock(entry->mu);
  return entry->live->live_nodes();
}

bool MaintenanceManager::ScheduleRebuild(const std::string& name,
                                         const std::string& reason) {
  Entry* entry = Find(name);
  if (entry == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->rebuild_inflight) {
      ++entry->coalesced;
      obs_->GetCounter("service.rebuild.coalesced").Inc();
      return true;
    }
    entry->rebuild_inflight = true;
    entry->state = MaintenanceState::kRebuilding;
    ++entry->scheduled;
  }
  obs_->GetCounter("service.rebuild.scheduled", reason).Inc();
  if (executor_) {
    executor_([this, name]() { RebuildTask(name); });
  } else {
    RebuildTask(name);
  }
  return true;
}

void MaintenanceManager::RebuildTask(std::string name) {
  Entry* entry = Find(name);
  if (entry == nullptr) return;  // replaced while queued
  const Clock::time_point t0 = Clock::now();
  Backoff backoff(options_.backoff, options_.backoff_seed);
  size_t retries = 0;
  size_t restarts = 0;
  const auto abandon = [&]() {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->rebuild_inflight = false;
    // Whatever drove the schedule (drift verdict, blown budget) is
    // still true of the serving snapshot.
    entry->state = MaintenanceState::kStale;
    ++entry->abandoned;
    obs_->GetCounter("service.rebuild.abandoned").Inc();
  };
  while (true) {
    // Snapshot the source under the lock; build outside it, so
    // estimates and further deltas proceed during the rebuild.
    uint64_t source_seq = 0;
    xml::Document source;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      source_seq = entry->live->seq();
      source = entry->live->Materialize();
    }
    uint64_t slow_ms = 0;
    if (FaultFires(kSlowFaultSite, &slow_ms)) SleepMs(slow_ms);
    estimator::SynopsisOptions build;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      build = entry->build;
    }
    auto rebuilt = std::make_shared<const estimator::Synopsis>(
        estimator::Synopsis::Build(source, build));
    if (FaultFires(kAllocFaultSite)) {
      if (retries >= options_.max_retries) return abandon();
      ++retries;
      {
        std::lock_guard<std::mutex> lock(entry->mu);
        ++entry->retried;
      }
      obs_->GetCounter("service.rebuild.retried").Inc();
      SleepMs(backoff.NextDelayMs());
      continue;
    }
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->live->seq() != source_seq) {
      // The document moved while we were building: this synopsis
      // describes a shape no longer live. Restart from the new shape.
      if (restarts >= options_.max_restarts) {
        entry->rebuild_inflight = false;
        entry->state = MaintenanceState::kStale;
        ++entry->abandoned;
        obs_->GetCounter("service.rebuild.abandoned").Inc();
        return;
      }
      ++restarts;
      ++entry->restarted;
      obs_->GetCounter("service.rebuild.restarted").Inc();
      continue;
    }
    // Publish: swap the registry snapshot (epoch bump retires the old
    // version's answer-cache namespaces), compact the live
    // arena to the shape we just built, and re-base the incremental
    // state with a fresh error budget.
    Publish(name, entry, rebuilt);
    entry->live->Compact(std::move(source));
    entry->synopsis->ResetToBase(std::move(rebuilt));
    entry->state = MaintenanceState::kHealthy;
    entry->rebuild_inflight = false;
    ++entry->completed;
    obs_->GetCounter("service.rebuild.completed").Inc();
    obs_->GetHistogram("service.rebuild.duration_ns").Record(NsSince(t0));
    return;
  }
}

bool MaintenanceManager::DrainMaintenance(uint64_t timeout_ms) {
  const auto give_up = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    bool inflight = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [name, entry] : entries_) {
        std::lock_guard<std::mutex> el(entry->mu);
        if (entry->rebuild_inflight) inflight = true;
      }
    }
    if (!inflight) return true;
    if (Clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::vector<MaintenanceRow> MaintenanceManager::Rows() const {
  std::vector<MaintenanceRow> rows;
  std::lock_guard<std::mutex> lock(mu_);
  rows.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    std::lock_guard<std::mutex> el(entry->mu);
    MaintenanceRow row;
    row.name = name;
    row.state = entry->state;
    row.epoch = entry->epoch;
    row.patch_error = entry->synopsis->patch_error();
    row.budget_exhausted = entry->synopsis->budget_exhausted();
    row.deltas_applied = entry->deltas_applied;
    row.deltas_rejected = entry->deltas_rejected;
    row.rebuilds_scheduled = entry->scheduled;
    row.rebuilds_completed = entry->completed;
    row.rebuilds_retried = entry->retried;
    row.rebuilds_restarted = entry->restarted;
    row.rebuilds_abandoned = entry->abandoned;
    row.rebuilds_coalesced = entry->coalesced;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace xee::service
