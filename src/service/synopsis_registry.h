#ifndef XEE_SERVICE_SYNOPSIS_REGISTRY_H_
#define XEE_SERVICE_SYNOPSIS_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/lanes.h"
#include "estimator/synopsis.h"
#include "eval/exact_evaluator.h"
#include "xml/tree.h"

namespace xee::service {

/// A synopsis version's accuracy health, fed back by the shadow-
/// evaluation pipeline (obs/accuracy.h, DESIGN.md §11). kUnknown until
/// enough shadow samples accumulate; kStale when the drift EWMA crossed
/// `drift_qerror_limit` — the synopsis no longer describes the data it
/// claims to summarize.
enum class SynopsisHealth { kUnknown, kHealthy, kStale };

std::string_view SynopsisHealthName(SynopsisHealth h);

/// The ground-truth oracle optionally attached to a synopsis version:
/// the source Document plus an exact evaluator over it. Immutable after
/// construction and shared by reference, so shadow evaluations keep it
/// alive across Register/Remove just like the synopsis itself.
struct GroundTruth {
  explicit GroundTruth(std::shared_ptr<const xml::Document> doc)
      : document(std::move(doc)), evaluator(*document) {}

  std::shared_ptr<const xml::Document> document;
  eval::ExactEvaluator evaluator;  ///< over *document
};

/// A refcounted view of one registered synopsis at a point in time.
/// Holding a snapshot keeps its synopsis alive while Register/Remove
/// replace it in the registry, so a dataset can be reloaded under
/// queries in flight. `epoch` uniquely identifies the version across
/// the registry's lifetime (cache keys embed it, so swapping a name
/// implicitly invalidates every plan compiled against the old version).
struct SynopsisSnapshot {
  std::shared_ptr<const estimator::Synopsis> synopsis;
  uint64_t epoch = 0;
  /// This version loaded from a blob whose o-histogram section was
  /// corrupt and dropped (RegisterSerialized salvage): order-free
  /// queries are exact as usual, but everything served from it is
  /// degraded and order-axis queries cannot run at full fidelity.
  bool order_quarantined = false;
  /// Shadow-sampled accuracy verdict for this version (kUnknown until
  /// the drift gate has seen enough samples).
  SynopsisHealth health = SynopsisHealth::kUnknown;
  /// Ground-truth oracle for shadow evaluation; null when no Document
  /// was attached (shadow sampling then skips this synopsis).
  std::shared_ptr<const GroundTruth> truth;
};

/// One row of SynopsisRegistry::HealthRows() — the healthz view.
struct SynopsisHealthRow {
  std::string name;
  uint64_t epoch = 0;
  SynopsisHealth health = SynopsisHealth::kUnknown;
  bool order_quarantined = false;
  bool has_truth = false;
};

/// What RegisterSerialized did with a blob.
struct LoadOutcome {
  /// Ok when a version was registered (possibly degraded); the
  /// deserialization error when the blob was rejected and the name
  /// quarantined.
  Status status;
  /// New version epoch; 0 when rejected.
  uint64_t epoch = 0;
  /// The version registered without its order statistics.
  bool order_dropped = false;

  bool ok() const { return status.ok(); }
};

/// What serving one name needs from the registry at one moment: the
/// version to answer from, or the reason there is none.
struct NameLookup {
  /// The current version; empty when the name is unknown or quarantined.
  std::optional<SynopsisSnapshot> snapshot;
  /// The rejection status when the name is quarantined.
  std::optional<Status> quarantined;
};

/// Thread-safe name -> synopsis map with swap semantics.
///
/// Thread-safety: every method may be called concurrently; the map is
/// guarded by one mutex (operations are O(1) pointer shuffles — the
/// synopses themselves are immutable and shared by reference).
/// RegisterSerialized deserializes outside the lock. Every mutation
/// bumps a generation counter under the mutex, which is what lets
/// Lookup serve repeat reads from a per-thread copy without locking.
class SynopsisRegistry {
 public:
  SynopsisRegistry();
  SynopsisRegistry(const SynopsisRegistry&) = delete;
  SynopsisRegistry& operator=(const SynopsisRegistry&) = delete;

  /// Registers `synopsis` under `name`, replacing any previous version
  /// and clearing any quarantine on the name. Returns the new epoch.
  /// `document`, when non-null, becomes the version's ground-truth
  /// oracle (shadow evaluation builds an ExactEvaluator over it); a new
  /// version always starts with kUnknown health and, unless `document`
  /// is passed here, no truth — a synopsis's health and oracle describe
  /// one version, never carry over to the next.
  uint64_t Register(const std::string& name, estimator::Synopsis synopsis,
                    std::shared_ptr<const xml::Document> document = nullptr);
  uint64_t Register(const std::string& name,
                    std::shared_ptr<const estimator::Synopsis> synopsis,
                    std::shared_ptr<const xml::Document> document = nullptr);

  /// Attaches (or replaces) the ground-truth Document of the current
  /// version of `name` without bumping the epoch — the oracle does not
  /// change what estimates the synopsis produces, only whether they can
  /// be audited. False when `name` is not serving.
  bool AttachDocument(const std::string& name,
                      std::shared_ptr<const xml::Document> document);

  /// Sets the health verdict of `name`, but only while its current
  /// version still is `epoch` — a shadow verdict computed against a
  /// replaced version must not taint its successor. Returns whether the
  /// verdict was applied.
  bool MarkHealth(const std::string& name, uint64_t epoch,
                  SynopsisHealth health);

  /// Current health of `name`, or nullopt when not serving.
  std::optional<SynopsisHealth> Health(const std::string& name) const;

  /// Every serving name's health row, sorted by name (the healthz
  /// payload; quarantined names are not serving — see
  /// QuarantinedNames).
  std::vector<SynopsisHealthRow> HealthRows() const;

  /// Quarantined names, sorted, with their rejection statuses.
  std::vector<std::pair<std::string, Status>> QuarantinedNames() const;

  /// Deserializes `blob` and registers the result under `name`. A blob
  /// whose damage is confined to the o-histogram section registers as a
  /// degraded (order-quarantined) version; any other corruption rejects
  /// the blob, removes `name` from serving, and quarantines it — the
  /// serving layer answers kUnavailable until a good version arrives.
  LoadOutcome RegisterSerialized(const std::string& name,
                                 std::string_view blob);

  /// Drops `name` (and any quarantine record); in-flight snapshots stay
  /// valid. False if absent.
  bool Remove(const std::string& name);

  /// The current version of `name`, or nullopt.
  std::optional<SynopsisSnapshot> Snapshot(const std::string& name) const;

  /// The rejection status of a quarantined name, or nullopt when the
  /// name is serving (or simply unknown).
  std::optional<Status> Quarantined(const std::string& name) const;

  /// The request read path: Snapshot and Quarantined in one step,
  /// answered from a small per-thread cache of lookups that is valid
  /// while the registry's generation is unchanged. A repeat lookup is
  /// one acquire load of the generation plus a name compare — no lock,
  /// no refcount — and only the first lookup after a mutation takes the
  /// mutex. The cache lives in the registry, one lane per thread (the
  /// first LaneClaims::kLanes threads; later threads keep one entry in
  /// thread-local storage). The returned reference points into the
  /// calling thread's entries: it stays valid until that thread's next
  /// Lookup on this registry, or the registry's destruction. Each
  /// thread's entries hold at most kLookupSlots versions, and a miss
  /// drops every entry of an older generation, so a replaced version
  /// can outlive its replacement until each thread that served it looks
  /// up again or the registry dies.
  const NameLookup& Lookup(const std::string& name) const;
  static constexpr size_t kLookupSlots = 4;

  /// Registered names, unordered. Quarantined names are not serving and
  /// not listed.
  std::vector<std::string> Names() const;

  /// Fault site (common/fault.h) fired inside RegisterSerialized: when
  /// armed, one bit of the incoming blob is flipped (position chosen by
  /// the fault payload) before deserialization — chaos tests use it to
  /// exercise the quarantine and salvage paths with real bit-rot.
  static constexpr std::string_view kBitrotFaultSite = "registry.bitrot";

 private:
  /// Bumps the generation and hands the graveyard to `*dead`, which the
  /// caller declares before its lock guard so the versions are torn
  /// down on the mutating thread after mu_ is released. Caller holds
  /// mu_.
  using Graveyard = std::vector<std::shared_ptr<const void>>;
  void Mutated(Graveyard* dead) {
    gen_.fetch_add(1, std::memory_order_release);
    dead->swap(graveyard_);
  }

  /// One cached lookup: valid while the generation is still `gen`.
  struct LookupSlot {
    uint64_t gen = 0;  // 0 = never filled (gen_ starts at 1)
    std::string name;
    NameLookup lookup;
  };
  /// One thread's cached lookups, written only by that thread.
  struct alignas(64) LookupLane {
    LookupSlot slots[kLookupSlots];
    size_t next = 0;  // round-robin refill cursor
  };

  /// Empties `slot`, moving each version it held alone into
  /// graveyard_. Caller holds mu_.
  void Bury(LookupSlot* slot) const;
  /// Fills `slot` for `name` at the current generation. Caller holds mu_.
  const NameLookup& Fill(LookupSlot* slot, const std::string& name) const;

  /// Unique per instance (never reused): keys the thread-local entry of
  /// threads without a lane.
  const uint64_t id_;
  /// Written only under mu_; read lock-free by Lookup.
  std::atomic<uint64_t> gen_{1};
  mutable LaneClaims lookup_claims_;
  const std::unique_ptr<LookupLane[]> lookup_lanes_;
  /// Versions a lookup slot held last: a request dropping a replaced
  /// version must not pay for tearing down a synopsis and its document,
  /// so the next mutation frees them instead (guarded by mu_).
  mutable Graveyard graveyard_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, SynopsisSnapshot> map_;
  std::unordered_map<std::string, Status> quarantine_;
  uint64_t next_epoch_ = 1;  // guarded by mu_
};

}  // namespace xee::service

#endif  // XEE_SERVICE_SYNOPSIS_REGISTRY_H_
