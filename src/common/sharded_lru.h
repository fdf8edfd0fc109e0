#ifndef XEE_COMMON_SHARDED_LRU_H_
#define XEE_COMMON_SHARDED_LRU_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/lanes.h"

namespace xee {

/// Aggregated cache counters (monotonic except `bytes`/`entries`).
struct LruStats {
  uint64_t evictions = 0;
  uint64_t bytes = 0;    ///< current charged bytes across shards
  uint64_t entries = 0;  ///< current entry count across shards
};

/// A reader/writer lock whose readers write only their own lane's cache
/// line. std::shared_mutex counts readers in one word, so every shared
/// acquire is a read-modify-write of a line all readers write, and on a
/// hot cache the line bounces between cores on every lookup. Here a
/// reader announces itself in its lane's flag (the lane comes from the
/// owner's LaneClaims) and then checks the writer flag; a writer raises
/// the writer flag and then waits for every reader flag to clear — the
/// store-then-load handshake (sequentially consistent on both sides)
/// means at least one of the two sees the other. Readers that find a
/// writer step back and wait, so a writer waits only for readers
/// already inside. Threads without a lane share one counted slot.
/// Writers are serialized by a plain mutex. Not reentrant.
class LaneRwLock {
 public:
  void lock_shared(size_t lane) {
    Slot& r = readers_[lane];
    while (true) {
      r.count.fetch_add(1, std::memory_order_seq_cst);
      if (writer_.count.load(std::memory_order_seq_cst) == 0) return;
      r.count.fetch_sub(1, std::memory_order_release);
      while (writer_.count.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
      }
    }
  }
  void unlock_shared(size_t lane) {
    readers_[lane].count.fetch_sub(1, std::memory_order_release);
  }

  void lock() {
    writers_.lock();
    writer_.count.store(1, std::memory_order_seq_cst);
    for (Slot& r : readers_) {
      while (r.count.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
    }
  }
  void unlock() {
    writer_.count.store(0, std::memory_order_release);
    writers_.unlock();
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint32_t> count{0};
  };
  /// One flag per lane, plus the shared slot at index kLanes.
  Slot readers_[LaneClaims::kLanes + 1];
  Slot writer_;
  std::mutex writers_;
};

/// A thread-safe cache sharded by key hash, with byte-budget accounting:
/// each entry is charged the byte size the caller reports at Put()
/// time, and entries are evicted until every shard fits its slice of
/// the budget.
///
/// Recency is approximated by CLOCK (second chance): a lookup sets the
/// entry's reference bit — only when it is clear, so a hot entry's line
/// is read, not written, by the threads hitting it — and eviction walks
/// the shard from its oldest entry, clearing set bits (the entry goes
/// round once more) and evicting the first entry whose bit is clear.
/// An entry looked up since the sweep last passed it therefore survives
/// one eviction pass; an untouched one does not. Lookups take the shard
/// lock (a LaneRwLock) in shared mode and never reorder anything, so
/// concurrent hits on one shard neither serialize behind each other nor
/// write a line another thread writes.
///
/// Values are held as shared_ptr<const V>. Get() hands out a reference
/// that stays valid after the entry is evicted; Copy() copies the value
/// out under the shared lock instead, touching no refcount.
///
/// Thread-safety contract: all methods may be called concurrently; each
/// shard is guarded by its own reader/writer lock and no operation takes
/// more than one shard lock (so none may be called from inside another).
template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLru {
 public:
  /// `byte_budget` is the total charged-byte capacity; `shards` is
  /// rounded up to at least 1. Entries larger than a whole shard slice
  /// are admitted alone (the shard transiently exceeds its slice until
  /// the next Put).
  explicit ShardedLru(size_t byte_budget, size_t shards = 8)
      : shard_count_(shards < 1 ? 1 : shards),
        shard_budget_(byte_budget / (shards < 1 ? 1 : shards)),
        shards_(new Shard[shard_count_]) {}

  /// Returns the cached value and marks it referenced, or nullptr.
  std::shared_ptr<const V> Get(const K& key) {
    Shard& s = ShardFor(key);
    ReadLock lock(&s.mu, claims_.Mine());
    auto it = s.map.find(key);
    if (it == s.map.end()) return nullptr;
    Touch(*it->second);
    return it->second->value;
  }

  /// Copies the cached value into `*out` and marks it referenced;
  /// false (leaving `*out` alone) when `key` is absent.
  bool Copy(const K& key, V* out) {
    Shard& s = ShardFor(key);
    ReadLock lock(&s.mu, claims_.Mine());
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    Touch(*it->second);
    *out = *it->second->value;
    return true;
  }

  /// Inserts or replaces `key`, charging `bytes` against the budget and
  /// evicting as needed. The entry just put is never the one evicted.
  void Put(const K& key, std::shared_ptr<const V> value, size_t bytes) {
    XEE_CHECK(value != nullptr);
    Shard& s = ShardFor(key);
    std::lock_guard<LaneRwLock> lock(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      s.bytes -= it->second->bytes;
      s.ring.erase(it->second);
      s.map.erase(it);
    }
    // Newest at the front; the sweep starts from the back.
    s.ring.emplace_front(key, std::move(value), bytes);
    const auto fresh = s.ring.begin();
    s.map.emplace(key, fresh);
    s.bytes += bytes;
    while (s.bytes > shard_budget_ && s.ring.size() > 1) {
      const auto victim = std::prev(s.ring.end());
      if (victim == fresh ||
          victim->referenced.load(std::memory_order_relaxed)) {
        // Second chance: clear the bit and send it round again.
        victim->referenced.store(false, std::memory_order_relaxed);
        s.ring.splice(s.ring.begin(), s.ring, victim);
        continue;
      }
      s.bytes -= victim->bytes;
      s.map.erase(victim->key);
      s.ring.erase(victim);
      ++s.evictions;
    }
  }

  /// Drops every entry (the eviction count is kept).
  void Clear() {
    for (size_t i = 0; i < shard_count_; ++i) {
      Shard& s = shards_[i];
      std::lock_guard<LaneRwLock> lock(s.mu);
      s.ring.clear();
      s.map.clear();
      s.bytes = 0;
    }
  }

  /// Debug audit: recomputes every shard's charged bytes from its live
  /// entries and compares against the running totals kept by Put/evict —
  /// the overwrite-with-different-size path in particular must credit
  /// the old charge before debiting the new one. O(entries); tests call
  /// this after randomized insert/overwrite/evict sequences.
  bool DebugCheckBalanced() const {
    for (size_t i = 0; i < shard_count_; ++i) {
      Shard& s = shards_[i];
      std::lock_guard<LaneRwLock> lock(s.mu);
      size_t sum = 0;
      for (const Entry& e : s.ring) sum += e.bytes;
      if (sum != s.bytes) return false;
      if (s.ring.size() != s.map.size()) return false;
    }
    return true;
  }

  /// Sums counters across shards. The result is a consistent snapshot
  /// per shard, not across shards (adequate for monitoring).
  LruStats stats() const {
    LruStats out;
    for (size_t i = 0; i < shard_count_; ++i) {
      Shard& s = shards_[i];
      std::lock_guard<LaneRwLock> lock(s.mu);
      out.evictions += s.evictions;
      out.bytes += s.bytes;
      out.entries += s.ring.size();
    }
    return out;
  }

 private:
  struct Entry {
    Entry(const K& k, std::shared_ptr<const V> v, size_t b)
        : key(k), value(std::move(v)), bytes(b) {}

    K key;
    std::shared_ptr<const V> value;
    size_t bytes = 0;
    /// The CLOCK bit: set by lookups under the shared lock, cleared by
    /// the sweep under the exclusive one.
    std::atomic<bool> referenced{false};
  };
  /// Scoped shared hold of a shard lock under the calling thread's lane.
  class ReadLock {
   public:
    ReadLock(LaneRwLock* mu, size_t lane) : mu_(mu), lane_(lane) {
      mu_->lock_shared(lane_);
    }
    ~ReadLock() { mu_->unlock_shared(lane_); }
    ReadLock(const ReadLock&) = delete;
    ReadLock& operator=(const ReadLock&) = delete;

   private:
    LaneRwLock* mu_;
    size_t lane_;
  };
  struct Shard {
    mutable LaneRwLock mu;
    std::list<Entry> ring;  // front = newest; the sweep takes the back
    // The custom Hash must reach the map too, not just ShardFor — a key
    // type without a std::hash specialization fails to compile (and one
    // with a *different* std::hash would shard on one function and
    // bucket on another).
    std::unordered_map<K, typename std::list<Entry>::iterator, Hash> map;
    size_t bytes = 0;
    uint64_t evictions = 0;
  };

  static void Touch(Entry& e) {
    if (!e.referenced.load(std::memory_order_relaxed)) {
      e.referenced.store(true, std::memory_order_relaxed);
    }
  }

  Shard& ShardFor(const K& key) const {
    return shards_[Hash{}(key) % shard_count_];
  }

  const size_t shard_count_;
  const size_t shard_budget_;
  std::unique_ptr<Shard[]> shards_;
  /// Reader lanes, shared by every shard's lock.
  LaneClaims claims_;
};

}  // namespace xee

#endif  // XEE_COMMON_SHARDED_LRU_H_
