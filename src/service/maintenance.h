#ifndef XEE_SERVICE_MAINTENANCE_H_
#define XEE_SERVICE_MAINTENANCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/status.h"
#include "delta/document_delta.h"
#include "delta/live_synopsis.h"
#include "obs/metrics.h"
#include "service/synopsis_registry.h"

namespace xee::service {

/// The maintenance state machine of one live synopsis (DESIGN.md §14).
/// healthy -> patched on the first applied delta; patched -> stale when
/// the patch-error budget is exhausted (or drift sampling convicts the
/// version); any state -> rebuilding while a background rebuild is in
/// flight; a published rebuild returns to healthy.
enum class MaintenanceState : uint8_t {
  kHealthy = 0,
  kPatched = 1,
  kStale = 2,
  kRebuilding = 3,
};

const char* MaintenanceStateName(MaintenanceState s);

/// One row of MaintenanceManager::Rows() — the healthz view.
struct MaintenanceRow {
  std::string name;
  MaintenanceState state = MaintenanceState::kHealthy;
  uint64_t epoch = 0;
  double patch_error = 0;
  bool budget_exhausted = false;
  uint64_t deltas_applied = 0;
  uint64_t deltas_rejected = 0;
  uint64_t rebuilds_scheduled = 0;
  uint64_t rebuilds_completed = 0;
  uint64_t rebuilds_retried = 0;
  uint64_t rebuilds_restarted = 0;
  uint64_t rebuilds_abandoned = 0;
  uint64_t rebuilds_coalesced = 0;
};

/// What one ApplyDelta call did, plus where it left the version.
struct ApplyOutcome {
  delta::ApplyResult apply;
  /// Epoch of the patched snapshot published by this batch.
  uint64_t epoch = 0;
  /// The patch-error budget is exhausted: the snapshot was marked
  /// stale, and the caller should schedule a rebuild (or have
  /// auto-rebuild do it).
  bool budget_exhausted = false;
};

/// Owns the live documents behind registered synopses and keeps their
/// published snapshots current under mutation: each applied delta
/// patches the synopsis incrementally and publishes a new epoch through
/// the registry swap (estimates never block on maintenance — they hold
/// refcounted snapshots), and a background rebuild pipeline restores
/// exactness when patching has drifted too far.
///
/// Rebuilds run on the caller-supplied executor (the service's worker
/// pool), materialize a pristine copy of the live tree, build from
/// scratch, and publish — unless the document moved underneath them, in
/// which case they restart from the new shape (bounded), or the armed
/// `rebuild.alloc` fault fails the attempt, in which case they retry on
/// a jittered backoff schedule while the patched synopsis keeps
/// serving. A rebuild that exhausts its retries is abandoned: the
/// stale-marked snapshot keeps serving and the next schedule tries
/// again.
///
/// Thread-safety: all public methods may be called from any thread.
/// Per-name state is mutex-guarded; the registry publish is the
/// linearization point readers observe.
class MaintenanceManager {
 public:
  /// Fault site: fails a rebuild attempt after the build ran, modeling
  /// allocation failure in the publish path. The attempt is retried
  /// with backoff; the serving snapshot is untouched.
  static constexpr const char* kAllocFaultSite = "rebuild.alloc";
  /// Fault site: stalls a rebuild attempt for `payload` milliseconds
  /// before the build, widening the window in which estimates must keep
  /// serving from the patched snapshot.
  static constexpr const char* kSlowFaultSite = "rebuild.slow";

  struct Options {
    /// Patch-error budget and histogram fold tolerance for every
    /// registered live synopsis (LiveSynopsis::PatchOptions fields; the
    /// build options come from RegisterLive).
    double error_budget = 0.05;
    double histo_patch_tolerance = 0.0;
    /// Attach a materialized ground-truth document to every published
    /// snapshot, keeping the PR 5 shadow pipeline auditing the patched
    /// estimates. Costs one document copy per publish.
    bool attach_truth = true;
    /// Rebuild attempts beyond the first before the rebuild is
    /// abandoned.
    size_t max_retries = 3;
    /// Publish-time restarts (document moved during the build) before
    /// the rebuild is abandoned.
    size_t max_restarts = 3;
    BackoffPolicy backoff{/*initial_ms=*/1, /*max_ms=*/50};
    uint64_t backoff_seed = 7;
  };

  /// `registry` and `obs` must outlive the manager. `executor` runs
  /// rebuild tasks; pass {} to run them inline on the scheduling
  /// thread (tests, single-threaded services).
  MaintenanceManager(SynopsisRegistry* registry, obs::Registry* obs,
                     Options options,
                     std::function<void(std::function<void()>)> executor);

  /// Takes ownership of `doc` as the live document behind `name`,
  /// builds its synopsis, and publishes the first snapshot. Returns the
  /// published epoch. Re-registering a name replaces its live state.
  uint64_t RegisterLive(const std::string& name, xml::Document doc,
                        const estimator::SynopsisOptions& build = {});

  bool Managed(const std::string& name) const;

  /// Applies one delta batch to `name`: mutates the live document,
  /// patches the synopsis, publishes the patched clone under a new
  /// epoch (invalidating answer-cache entries for free via the
  /// epoch-keyed namespaces), and marks the snapshot stale when the
  /// patch-error budget is exhausted. A rejected batch (invalid target,
  /// corrupt-fault) changes nothing and fails with kInvalidArgument;
  /// an unknown name fails with kNotFound.
  Result<ApplyOutcome> ApplyDelta(const std::string& name,
                                  const delta::DocumentDelta& delta);

  /// Builds the insert op that clones the subtree at live preorder rank
  /// `rank` under that subtree's own parent — the canonical exactly-
  /// patchable mutation (every path and pid combination the clone
  /// introduces already occurs earlier in document order). Fails for
  /// rank 0 (the root cannot be cloned into itself) or an out-of-range
  /// rank. Delta generators in the CLI, simulator and benches build
  /// their patch-friendly traffic from this.
  Result<delta::DeltaOp> CloneOp(const std::string& name,
                                 uint32_t rank) const;

  /// Live node count of `name` (0 when unmanaged); generators pick
  /// target ranks below it.
  size_t LiveNodeCount(const std::string& name) const;

  /// Schedules a background rebuild of `name` (reason is an obs label:
  /// "drift", "budget", "manual"). Returns false for unmanaged names.
  /// A schedule while a rebuild is already in flight coalesces into it.
  bool ScheduleRebuild(const std::string& name, const std::string& reason);

  /// Blocks until no rebuild is in flight or `timeout_ms` elapses;
  /// true when drained. Abandoned rebuilds count as drained.
  bool DrainMaintenance(uint64_t timeout_ms);

  /// Point-in-time maintenance state of every managed name, sorted by
  /// name (healthz).
  std::vector<MaintenanceRow> Rows() const;

 private:
  struct Entry {
    mutable std::mutex mu;
    std::unique_ptr<delta::LiveDocument> live;        // guarded by mu
    std::unique_ptr<delta::LiveSynopsis> synopsis;    // guarded by mu
    estimator::SynopsisOptions build;                 // guarded by mu
    MaintenanceState state = MaintenanceState::kHealthy;  // guarded by mu
    uint64_t epoch = 0;                               // guarded by mu
    bool rebuild_inflight = false;                    // guarded by mu
    uint64_t deltas_applied = 0;                      // guarded by mu
    uint64_t deltas_rejected = 0;                     // guarded by mu
    uint64_t scheduled = 0;                           // guarded by mu
    uint64_t completed = 0;                           // guarded by mu
    uint64_t retried = 0;                             // guarded by mu
    uint64_t restarted = 0;                           // guarded by mu
    uint64_t abandoned = 0;                           // guarded by mu
    uint64_t coalesced = 0;                           // guarded by mu
  };

  Entry* Find(const std::string& name) const;
  /// Publishes (synopsis, truth) for `entry` under the registry swap
  /// and records the new epoch. Caller holds entry->mu.
  uint64_t Publish(const std::string& name, Entry* entry,
                   std::shared_ptr<const estimator::Synopsis> synopsis);
  void RebuildTask(std::string name);

  SynopsisRegistry* registry_;
  obs::Registry* obs_;
  Options options_;
  std::function<void(std::function<void()>)> executor_;

  mutable std::mutex mu_;  // guards entries_ (the map, not the entries)
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace xee::service

#endif  // XEE_SERVICE_MAINTENANCE_H_
