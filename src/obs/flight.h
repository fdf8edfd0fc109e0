#ifndef XEE_OBS_FLIGHT_H_
#define XEE_OBS_FLIGHT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

/// Black-box flight recorder (DESIGN.md §16): an always-on, lock-light
/// binary event ring that answers "what was the service doing just
/// before X?" after the fact — the aviation-recorder counterpart to the
/// sampled trace ring. Writers append fixed-size packed events to one
/// of a few cache-line-aligned shards selected by a thread-local index;
/// each shard is single-writer in the common case, so the hot path is a
/// plain relaxed load/store pair plus a handful of relaxed stores — no
/// atomic RMW, no clock read, no mutex, no allocation. Readers
/// (Dump / ToJson) merge the shards sorted by a derived sequence number
/// that is unique globally and ordered within each shard.
///
/// Because slots are claimed without coordination and written with
/// relaxed atomics, a reader racing a writer — or two writers a full
/// ring lap apart — can observe a mixed-field event. That is the
/// accepted price of a zero-coordination hot path in a diagnostic
/// surface: dumps are for post-mortems, not accounting, and every
/// field is individually well-defined (no torn word reads).
///
/// Variable-length data (tenant names, fault sites, SLO names) never
/// enters the ring; events carry 32-bit ids from a bounded intern
/// table, so cardinality attacks degrade to the overflow id instead of
/// growing memory.
namespace xee::obs {

/// What one flight event describes. The a/b/c payload fields are
/// per-type (documented on each enumerator); `a` is an intern-table id
/// for every type that names something.
enum class FlightEventType : uint32_t {
  kNone = 0,
  /// One finished request. a = tenant id, b = outcome code
  /// (service-defined small enum), c = total latency ns (0 when the
  /// request was untimed — the recorder never forces a clock read).
  kRequest = 1,
  /// One shed admission decision. a = tenant id, b = reason code,
  /// c = retry-after hint ms.
  kShed = 2,
  /// A synopsis version swap. a = tenant id, b = new epoch.
  kEpochBump = 3,
  /// A rebuild-pipeline transition. a = tenant id, b = transition code
  /// (service-defined), c = epoch when known.
  kRebuild = 4,
  /// A fault site fired. a = site id, b = injector schedule clock.
  kFaultFire = 5,
  /// An SLO alert transition. a = SLO name id, b = new state code,
  /// c = previous state code.
  kAlert = 6,
  /// Free-form marker from tests / tooling. a = text id.
  kMark = 7,
};

inline std::string_view FlightEventTypeName(FlightEventType t) {
  switch (t) {
    case FlightEventType::kRequest: return "request";
    case FlightEventType::kShed: return "shed";
    case FlightEventType::kEpochBump: return "epoch";
    case FlightEventType::kRebuild: return "rebuild";
    case FlightEventType::kFaultFire: return "fault";
    case FlightEventType::kAlert: return "alert";
    case FlightEventType::kMark: return "mark";
    case FlightEventType::kNone: break;
  }
  return "none";
}

/// One decoded event, as Dump() returns it (oldest first).
struct FlightEventView {
  uint64_t seq = 0;
  uint64_t t_us = 0;  ///< coarse timestamp; 0 for clock-free hot events
  FlightEventType type = FlightEventType::kNone;
  uint32_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  std::string name;  ///< intern-table resolution of `a` ("" when none)
};

/// The live recorder. Thread-safety: Record/Intern from any thread;
/// Dump/ToJson from any thread, concurrently with writers.
class FlightRecorder {
 public:
  static constexpr size_t kShards = 8;
  /// In-ring footprint of one event slot (cache-line aligned, so the
  /// five 8-byte fields pad out to a full line). Exposed so callers and
  /// tests can size ring budgets: a budget of `bytes` yields
  /// floor(bytes / (kShards * kSlotBytes)) slots per shard, rounded
  /// down to a power of two (minimum 1 when bytes > 0).
  static constexpr size_t kSlotBytes = 64;

  /// `bytes` is the total ring budget across all shards; 0 disables the
  /// recorder (Record becomes an early-out branch). `max_strings`
  /// bounds the intern table; Intern past the bound returns kOverflowId.
  explicit FlightRecorder(size_t bytes, size_t max_strings = 512);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return slots_per_shard_ != 0; }
  size_t capacity() const { return slots_per_shard_ * kShards; }

  /// Id 0 renders as "__overflow__": returned once the table is full,
  /// so hostile cardinality costs nothing past the bound. Takes a
  /// mutex — intern once and cache the id, not per event.
  static constexpr uint32_t kOverflowId = 0;
  uint32_t Intern(std::string_view s);

  /// Appends one event. The hot path is single-writer per shard: a
  /// plain relaxed load + store advances the shard's claim counter (no
  /// atomic RMW, no lock prefix), then five relaxed stores fill the
  /// slot — ~3ns measured, versus ~23ns for the fetch_add version this
  /// replaced (bench "service_obs2" is what forced the change). No
  /// clock read — pass t_us when the caller already has a timestamp
  /// (alert/rebuild/epoch events), 0 otherwise.
  ///
  /// The sequence number is derived, not allocated: seq = claim *
  /// kShards + shard + 1, globally unique and strictly increasing
  /// within a shard. Cross-shard order in a dump is per-shard progress
  /// order, not true arrival order — for a post-mortem surface whose
  /// writers already use relaxed atomics, that trade buys the RMW-free
  /// hot path. When more threads than kShards record, shard-sharing
  /// threads can race the unsynchronized claim and merge (lose) an
  /// occasional event — same spirit as the documented mixed-field
  /// caveat above: bounded, diagnostic-only damage.
  void Record(FlightEventType type, uint32_t a, uint64_t b, uint64_t c,
              uint64_t t_us = 0) {
    if (slots_per_shard_ == 0) return;
    const size_t shard = ShardIndex();
    Shard& sh = shards_[shard];
    const uint64_t n = sh.pos.load(std::memory_order_relaxed);
    sh.pos.store(n + 1, std::memory_order_relaxed);
    const uint64_t seq = n * kShards + shard + 1;
    Slot& s = sh.slots[static_cast<size_t>(n) & slot_mask_];
    s.t_us.store(t_us, std::memory_order_relaxed);
    s.type_a.store((static_cast<uint64_t>(type) << 32) | a,
                   std::memory_order_relaxed);
    s.b.store(b, std::memory_order_relaxed);
    s.c.store(c, std::memory_order_relaxed);
    s.seq.store(seq, std::memory_order_release);
#if defined(__GNUC__) || defined(__clang__)
    // Between two Records the ring line gets evicted by request work,
    // so the next append would stall on a read-for-ownership miss.
    // Warming the next slot now hides that latency where it is free.
    __builtin_prefetch(&sh.slots[static_cast<size_t>(n + 1) & slot_mask_],
                       /*rw=*/1, /*locality=*/1);
#endif
  }

  /// Total events claimed across all shards (retained or overwritten).
  uint64_t recorded() const {
    uint64_t n = 0;
    for (const Shard& sh : shards_) {
      n += sh.pos.load(std::memory_order_relaxed);
    }
    return n;
  }

  /// Every retained event, oldest first (seq ascending), truncated to
  /// the newest `max_events` when non-zero.
  std::vector<FlightEventView> Dump(size_t max_events = 0) const;

  /// The .flightz rendering:
  ///   {"enabled":true,"recorded":n,"capacity":n,
  ///    "events":[{"seq":n,"t_us":n,"type":"request","a":n,
  ///               "name":"...","b":n,"c":n},...]}
  std::string ToJson(size_t max_events = 256) const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};  ///< 0 = never written
    std::atomic<uint64_t> t_us{0};
    std::atomic<uint64_t> type_a{0};  ///< type in the high word, a low
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> c{0};
  };
  struct alignas(64) Shard {
    std::atomic<uint64_t> pos{0};
    std::vector<Slot> slots;
  };

  static size_t ShardIndex() {
    static std::atomic<size_t> next{0};
    thread_local const size_t idx =
        next.fetch_add(1, std::memory_order_relaxed);
    return idx % kShards;
  }

  size_t slots_per_shard_ = 0;
  size_t slot_mask_ = 0;  ///< slots_per_shard_ - 1 (power of two)
  size_t max_strings_;
  Shard shards_[kShards];

  mutable std::mutex strings_mu_;
  std::unordered_map<std::string, uint32_t> string_ids_;  // guarded
  std::vector<std::string> strings_;                      // guarded
};

}  // namespace xee::obs

#endif  // XEE_OBS_FLIGHT_H_
