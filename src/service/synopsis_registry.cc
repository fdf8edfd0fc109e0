#include "service/synopsis_registry.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/fault.h"

namespace xee::service {

std::string_view SynopsisHealthName(SynopsisHealth h) {
  switch (h) {
    case SynopsisHealth::kHealthy:
      return "healthy";
    case SynopsisHealth::kStale:
      return "stale";
    case SynopsisHealth::kUnknown:
      break;
  }
  return "unknown";
}

namespace {
std::atomic<uint64_t> g_registry_id{1};
}  // namespace

SynopsisRegistry::SynopsisRegistry()
    : id_(g_registry_id.fetch_add(1, std::memory_order_relaxed)),
      lookup_lanes_(new LookupLane[LaneClaims::kLanes]) {}

uint64_t SynopsisRegistry::Register(
    const std::string& name, estimator::Synopsis synopsis,
    std::shared_ptr<const xml::Document> document) {
  return Register(name,
                  std::make_shared<const estimator::Synopsis>(
                      std::move(synopsis)),
                  std::move(document));
}

uint64_t SynopsisRegistry::Register(
    const std::string& name,
    std::shared_ptr<const estimator::Synopsis> synopsis,
    std::shared_ptr<const xml::Document> document) {
  // ExactEvaluator construction walks the whole document; do it outside
  // the lock, like deserialization in RegisterSerialized.
  std::shared_ptr<const GroundTruth> truth;
  if (document != nullptr) {
    truth = std::make_shared<const GroundTruth>(std::move(document));
  }
  Graveyard dead;
  std::lock_guard<std::mutex> lock(mu_);
  quarantine_.erase(name);
  SynopsisSnapshot& slot = map_[name];
  slot.synopsis = std::move(synopsis);
  slot.epoch = next_epoch_++;
  slot.order_quarantined = false;
  slot.health = SynopsisHealth::kUnknown;
  slot.truth = std::move(truth);
  Mutated(&dead);
  return slot.epoch;
}

bool SynopsisRegistry::AttachDocument(
    const std::string& name, std::shared_ptr<const xml::Document> document) {
  std::shared_ptr<const GroundTruth> truth;
  if (document != nullptr) {
    truth = std::make_shared<const GroundTruth>(std::move(document));
  }
  Graveyard dead;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(name);
  if (it == map_.end()) return false;
  it->second.truth = std::move(truth);
  Mutated(&dead);
  return true;
}

bool SynopsisRegistry::MarkHealth(const std::string& name, uint64_t epoch,
                                  SynopsisHealth health) {
  Graveyard dead;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(name);
  if (it == map_.end() || it->second.epoch != epoch) return false;
  // Shadow verdicts mostly repeat; only a change invalidates lookups.
  if (it->second.health != health) {
    it->second.health = health;
    Mutated(&dead);
  }
  return true;
}

std::optional<SynopsisHealth> SynopsisRegistry::Health(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(name);
  if (it == map_.end()) return std::nullopt;
  return it->second.health;
}

std::vector<SynopsisHealthRow> SynopsisRegistry::HealthRows() const {
  std::vector<SynopsisHealthRow> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(map_.size());
    for (const auto& [name, snap] : map_) {
      SynopsisHealthRow row;
      row.name = name;
      row.epoch = snap.epoch;
      row.health = snap.health;
      row.order_quarantined = snap.order_quarantined;
      row.has_truth = snap.truth != nullptr;
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const SynopsisHealthRow& a, const SynopsisHealthRow& b) {
              return a.name < b.name;
            });
  return rows;
}

std::vector<std::pair<std::string, Status>> SynopsisRegistry::QuarantinedNames()
    const {
  std::vector<std::pair<std::string, Status>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(quarantine_.size());
    for (const auto& [name, status] : quarantine_) {
      out.emplace_back(name, status);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

LoadOutcome SynopsisRegistry::RegisterSerialized(const std::string& name,
                                                 std::string_view blob) {
  // Deserialization is the expensive part; run it (and the injected
  // bit-rot) outside the lock so loads never stall serving.
  std::string bytes(blob);
  uint64_t rot = 0;
  if (!bytes.empty() && FaultFires(kBitrotFaultSite, &rot)) {
    bytes[rot % bytes.size()] ^=
        static_cast<char>(1u << ((rot >> 32) % 8));
  }

  estimator::DeserializeOptions opts;
  opts.salvage_order_corruption = true;
  estimator::DeserializeReport report;
  Result<estimator::Synopsis> syn =
      estimator::Synopsis::Deserialize(bytes, opts, &report);

  LoadOutcome out;
  if (!syn.ok()) {
    out.status = syn.status();
    Graveyard dead;
    std::lock_guard<std::mutex> lock(mu_);
    // The old version (if any) is as suspect as the blob that was meant
    // to replace it is broken — a swap is a statement that the previous
    // data is stale. Pull the name from serving entirely.
    map_.erase(name);
    quarantine_[name] = out.status;
    Mutated(&dead);
    return out;
  }

  auto shared = std::make_shared<const estimator::Synopsis>(
      std::move(syn).value());
  Graveyard dead;
  std::lock_guard<std::mutex> lock(mu_);
  quarantine_.erase(name);
  SynopsisSnapshot& slot = map_[name];
  slot.synopsis = std::move(shared);
  slot.epoch = next_epoch_++;
  slot.order_quarantined = report.order_dropped;
  // A blob carries no source document: the new version starts unaudited
  // (no oracle) until AttachDocument supplies one.
  slot.health = SynopsisHealth::kUnknown;
  slot.truth = nullptr;
  Mutated(&dead);
  out.epoch = slot.epoch;
  out.order_dropped = report.order_dropped;
  return out;
}

bool SynopsisRegistry::Remove(const std::string& name) {
  Graveyard dead;
  std::lock_guard<std::mutex> lock(mu_);
  const bool quarantined = quarantine_.erase(name) > 0;
  const bool removed = map_.erase(name) > 0 || quarantined;
  if (removed) Mutated(&dead);
  return removed;
}

std::optional<SynopsisSnapshot> SynopsisRegistry::Snapshot(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(name);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

const NameLookup& SynopsisRegistry::Lookup(const std::string& name) const {
  // A slot filled under mu_ at generation g is exactly what the locked
  // reads would return for as long as the generation stays g; the
  // acquire pairs with Mutated's release, so a lookup that sees a
  // mutation's generation also sees the mutation.
  const uint64_t gen = gen_.load(std::memory_order_acquire);
  const size_t lane = lookup_claims_.Mine();
  if (lane == LaneClaims::kLanes) {
    // Past the lanes: one entry per thread, keyed by registry.
    struct Overflow {
      uint64_t registry = 0;
      LookupSlot slot;
    };
    thread_local Overflow overflow;
    if (overflow.registry == id_ && overflow.slot.gen == gen &&
        overflow.slot.name == name) {
      return overflow.slot.lookup;
    }
    std::lock_guard<std::mutex> lock(mu_);
    Bury(&overflow.slot);
    overflow.registry = id_;
    return Fill(&overflow.slot, name);
  }
  LookupLane& mine = lookup_lanes_[lane];
  for (const LookupSlot& s : mine.slots) {
    if (s.gen == gen && s.name == name) return s.lookup;
  }
  // A miss. Slots of an older generation can never match again (the
  // generation only grows), so drop the versions they hold now rather
  // than when the round-robin cursor reaches them: after a mutation this
  // thread pins nothing older than what it last looked up.
  std::lock_guard<std::mutex> lock(mu_);
  LookupSlot* slot = nullptr;
  for (LookupSlot& s : mine.slots) {
    if (s.gen == gen) continue;
    Bury(&s);
    if (slot == nullptr) slot = &s;
  }
  if (slot == nullptr) {
    slot = &mine.slots[mine.next];
    mine.next = (mine.next + 1) % kLookupSlots;
    Bury(slot);
  }
  return Fill(slot, name);
}

void SynopsisRegistry::Bury(LookupSlot* slot) const {
  slot->gen = 0;
  if (slot->lookup.snapshot.has_value()) {
    // Sole owner (the registry no longer serves it and no other slot or
    // request holds it): keep it for the next mutation to free. No new
    // reference can appear meanwhile — references come only from map_.
    auto keep = [&](std::shared_ptr<const void> p) {
      if (p != nullptr && p.use_count() == 1) {
        graveyard_.push_back(std::move(p));
      }
    };
    keep(std::move(slot->lookup.snapshot->synopsis));
    keep(std::move(slot->lookup.snapshot->truth));
  }
  slot->lookup = NameLookup{};
}

const NameLookup& SynopsisRegistry::Fill(LookupSlot* slot,
                                         const std::string& name) const {
  slot->gen = gen_.load(std::memory_order_relaxed);
  slot->name = name;
  auto it = map_.find(name);
  if (it != map_.end()) slot->lookup.snapshot = it->second;
  auto q = quarantine_.find(name);
  if (q != quarantine_.end()) slot->lookup.quarantined = q->second;
  return slot->lookup;
}

std::optional<Status> SynopsisRegistry::Quarantined(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = quarantine_.find(name);
  if (it == quarantine_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> SynopsisRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(map_.size());
  for (const auto& [name, snap] : map_) names.push_back(name);
  return names;
}

}  // namespace xee::service
