#ifndef XEE_COMMON_SHARDED_LRU_H_
#define XEE_COMMON_SHARDED_LRU_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

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
/// Every lookup and Put has a form that carries the key's hash
/// (HashOf(key)), so a caller that probes and fills under one key hashes
/// it once: the hash picks the shard and the index slot, and is stored
/// with the entry, so neither an index resize nor an eviction rehashes a
/// key.
/// The forms without it compute HashOf themselves.
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

  /// The hash the hash-carrying forms below expect for `key`.
  static size_t HashOf(const K& key) { return Hash{}(key); }

  /// Returns the cached value and marks it referenced, or nullptr.
  std::shared_ptr<const V> Get(const K& key) { return Get(key, HashOf(key)); }
  /// Get() with `hash` == HashOf(key) precomputed.
  std::shared_ptr<const V> Get(const K& key, size_t hash) {
    Shard& s = ShardFor(hash);
    ReadLock lock(&s.mu, claims_.Mine());
    const Slot* slot = s.index.Find(key, hash);
    if (slot == nullptr) return nullptr;
    Touch(*slot->entry);
    return slot->entry->value;
  }

  /// Copies the cached value into `*out` and marks it referenced;
  /// false (leaving `*out` alone) when `key` is absent.
  bool Copy(const K& key, V* out) { return Copy(key, HashOf(key), out); }
  /// Copy() with `hash` == HashOf(key) precomputed.
  bool Copy(const K& key, size_t hash, V* out) {
    Shard& s = ShardFor(hash);
    ReadLock lock(&s.mu, claims_.Mine());
    const Slot* slot = s.index.Find(key, hash);
    if (slot == nullptr) return false;
    Touch(*slot->entry);
    *out = *slot->entry->value;
    return true;
  }

  /// Inserts or replaces `key`, charging `bytes` against the budget and
  /// evicting as needed. The entry just put is never the one evicted.
  void Put(const K& key, std::shared_ptr<const V> value, size_t bytes) {
    Put(key, HashOf(key), std::move(value), bytes);
  }
  /// Put() with `hash` == HashOf(key) precomputed.
  void Put(const K& key, size_t hash, std::shared_ptr<const V> value,
           size_t bytes) {
    XEE_CHECK(value != nullptr);
    Shard& s = ShardFor(hash);
    std::lock_guard<LaneRwLock> lock(s.mu);
    // Newest at the front; the sweep starts from the back.
    s.ring.emplace_front(key, hash, std::move(value), bytes);
    const auto fresh = s.ring.begin();
    if (Slot* slot = s.index.Find(key, hash)) {
      s.bytes -= slot->entry->bytes;
      s.ring.erase(slot->entry);
      slot->entry = fresh;
    } else {
      s.index.Insert(hash, fresh);
    }
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
      s.index.Erase(victim);
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
      s.index.Clear();
      s.bytes = 0;
    }
  }

  /// Debug audit: recomputes every shard's charged bytes from its live
  /// entries and compares against the running totals kept by Put/evict —
  /// the overwrite-with-different-size path in particular must credit
  /// the old charge before debiting the new one. Also checks that every
  /// entry lives in its hash's shard, stores HashOf(key), and is what
  /// the index finds for it. O(entries); tests call this after randomized
  /// insert/overwrite/evict sequences.
  bool DebugCheckBalanced() const {
    for (size_t i = 0; i < shard_count_; ++i) {
      Shard& s = shards_[i];
      std::lock_guard<LaneRwLock> lock(s.mu);
      size_t sum = 0;
      for (auto e = s.ring.begin(); e != s.ring.end(); ++e) {
        sum += e->bytes;
        if (e->hash != HashOf(e->key) || &ShardFor(e->hash) != &s) {
          return false;
        }
        const Slot* slot = s.index.Find(e->key, e->hash);
        if (slot == nullptr || slot->entry != e) return false;
      }
      if (sum != s.bytes) return false;
      if (s.ring.size() != s.index.size()) return false;
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
    Entry(const K& k, size_t h, std::shared_ptr<const V> v, size_t b)
        : key(k), hash(h), value(std::move(v)), bytes(b) {}

    K key;
    size_t hash;  ///< HashOf(key), for evicting without rehashing
    std::shared_ptr<const V> value;
    size_t bytes = 0;
    /// The CLOCK bit: set by lookups under the shared lock, cleared by
    /// the sweep under the exclusive one.
    std::atomic<bool> referenced{false};
  };
  using RingIter = typename std::list<Entry>::iterator;
  /// One index slot: a ring entry and its hash with the low bit forced
  /// on (`tag`), so 0 marks an empty slot.
  struct Slot {
    size_t tag = 0;
    RingIter entry{};
  };
  /// A shard's open-addressed index over its ring. A slot's home is
  /// picked by the top bits of its tag times a Fibonacci constant (the
  /// low bits of a hash also pick the shard, so they repeat within one);
  /// probing is linear, the table stays at most half full, and an erase
  /// shifts the rest of its run back, so a miss reads one short run of
  /// adjacent slots and compares a key only on a tag match. Growing
  /// re-places slots by their tags: no key is rehashed.
  class Index {
   public:
    Slot* Find(const K& key, size_t hash) {
      if (slots_.empty()) return nullptr;
      const size_t tag = hash | 1;
      for (size_t i = Home(tag);; i = (i + 1) & mask_) {
        Slot& slot = slots_[i];
        if (slot.tag == 0) return nullptr;
        if (slot.tag == tag && slot.entry->key == key) return &slot;
      }
    }
    /// Files `entry` (whose key is absent) under `hash`.
    void Insert(size_t hash, RingIter entry) {
      if (2 * (size_ + 1) > slots_.size()) Grow();
      Place(Slot{hash | 1, entry});
      ++size_;
    }
    /// Removes the slot of `entry`, found by its stored hash.
    void Erase(RingIter entry) {
      const size_t tag = entry->hash | 1;
      size_t i = Home(tag);
      while (slots_[i].tag != tag || slots_[i].entry != entry) {
        i = (i + 1) & mask_;
      }
      // Backward shift: a later slot of the run moves into the hole
      // unless its home lies cyclically in (hole, slot].
      for (size_t j = (i + 1) & mask_; slots_[j].tag != 0;
           j = (j + 1) & mask_) {
        const size_t home = Home(slots_[j].tag);
        const bool stays = i <= j ? (i < home && home <= j)
                                  : (i < home || home <= j);
        if (!stays) {
          slots_[i] = slots_[j];
          i = j;
        }
      }
      slots_[i] = Slot{};
      --size_;
    }
    void Clear() {
      slots_.clear();
      size_ = 0;
      mask_ = 0;
      shift_ = 64;
    }
    size_t size() const { return size_; }

   private:
    size_t Home(size_t tag) const {
      return static_cast<size_t>(
          (static_cast<uint64_t>(tag) * 0x9e3779b97f4a7c15ull) >> shift_);
    }
    void Place(const Slot& slot) {
      size_t i = Home(slot.tag);
      while (slots_[i].tag != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
    void Grow() {
      std::vector<Slot> old = std::move(slots_);
      const size_t cap = old.empty() ? 16 : 2 * old.size();
      slots_.assign(cap, Slot{});
      mask_ = cap - 1;
      shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
      for (const Slot& slot : old) {
        if (slot.tag != 0) Place(slot);
      }
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
    size_t mask_ = 0;
    unsigned shift_ = 64;
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
    Index index;            // over `ring`; the custom Hash reaches it via HashOf
    size_t bytes = 0;
    uint64_t evictions = 0;
  };

  static void Touch(Entry& e) {
    if (!e.referenced.load(std::memory_order_relaxed)) {
      e.referenced.store(true, std::memory_order_relaxed);
    }
  }

  Shard& ShardFor(size_t hash) const { return shards_[hash % shard_count_]; }

  const size_t shard_count_;
  const size_t shard_budget_;
  std::unique_ptr<Shard[]> shards_;
  /// Reader lanes, shared by every shard's lock.
  LaneClaims claims_;
};

}  // namespace xee

#endif  // XEE_COMMON_SHARDED_LRU_H_
