#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/bitset.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/sharded_lru.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace xee {
namespace {

// --- PathIdBits -------------------------------------------------------

TEST(PathIdBits, SetAndTest) {
  PathIdBits b(10);
  EXPECT_EQ(b.num_bits(), 10u);
  EXPECT_TRUE(b.IsZero());
  b.Set(1);
  b.Set(10);
  EXPECT_TRUE(b.Test(1));
  EXPECT_FALSE(b.Test(2));
  EXPECT_TRUE(b.Test(10));
  EXPECT_EQ(b.PopCount(), 2u);
  EXPECT_FALSE(b.IsZero());
}

TEST(PathIdBits, BitStringRoundTrip) {
  const std::string s = "0010110001";
  PathIdBits b = PathIdBits::FromBitString(s);
  EXPECT_EQ(b.ToBitString(), s);
  EXPECT_EQ(b.PopCount(), 4u);
}

TEST(PathIdBits, WideBitStringCrossesWordBoundary) {
  std::string s(130, '0');
  s[0] = s[63] = s[64] = s[129] = '1';
  PathIdBits b = PathIdBits::FromBitString(s);
  EXPECT_EQ(b.ToBitString(), s);
  EXPECT_TRUE(b.Test(1));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(65));
  EXPECT_TRUE(b.Test(130));
  EXPECT_EQ(b.PopCount(), 4u);
}

TEST(PathIdBits, OrAndAnd) {
  PathIdBits a = PathIdBits::FromBitString("1100");
  PathIdBits b = PathIdBits::FromBitString("1010");
  EXPECT_EQ((a | b).ToBitString(), "1110");
  EXPECT_EQ((a & b).ToBitString(), "1000");
}

TEST(PathIdBits, PaperContainmentExamples) {
  // Example 2.3: p3 (0011) contains p2 (0010).
  PathIdBits p3 = PathIdBits::FromBitString("0011");
  PathIdBits p2 = PathIdBits::FromBitString("0010");
  EXPECT_TRUE(p3.Contains(p2));
  EXPECT_FALSE(p2.Contains(p3));
  // Containment is strict: a pid does not contain itself...
  EXPECT_FALSE(p3.Contains(p3));
  // ...but covers itself.
  EXPECT_TRUE(p3.Covers(p3));
}

TEST(PathIdBits, CoversIsSubsetTest) {
  PathIdBits p8 = PathIdBits::FromBitString("1100");
  PathIdBits p6 = PathIdBits::FromBitString("1010");
  EXPECT_FALSE(p8.Covers(p6));
  EXPECT_FALSE(p6.Covers(p8));
  PathIdBits p9 = PathIdBits::FromBitString("1111");
  EXPECT_TRUE(p9.Covers(p8));
  EXPECT_TRUE(p9.Covers(p6));
}

TEST(PathIdBits, ForEachSetBitAscending) {
  PathIdBits b = PathIdBits::FromBitString("0101001");
  std::vector<uint32_t> bits = b.SetBits();
  EXPECT_EQ(bits, (std::vector<uint32_t>{2, 4, 7}));
}

TEST(PathIdBits, LexLessMatchesStringOrder) {
  // Bit strings in increasing lexicographic order.
  const std::vector<std::string> strings = {"0001", "0010", "0011", "0100",
                                            "1000", "1010", "1011", "1100",
                                            "1111"};
  for (size_t i = 0; i < strings.size(); ++i) {
    for (size_t j = 0; j < strings.size(); ++j) {
      PathIdBits a = PathIdBits::FromBitString(strings[i]);
      PathIdBits b = PathIdBits::FromBitString(strings[j]);
      EXPECT_EQ(PathIdBits::LexLess(a, b), strings[i] < strings[j])
          << strings[i] << " vs " << strings[j];
    }
  }
}

TEST(PathIdBits, LexLessWideRandom) {
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    std::string x(100, '0'), y(100, '0');
    for (auto* s : {&x, &y}) {
      for (char& c : *s) c = rng.Bernoulli(0.3) ? '1' : '0';
    }
    PathIdBits a = PathIdBits::FromBitString(x);
    PathIdBits b = PathIdBits::FromBitString(y);
    EXPECT_EQ(PathIdBits::LexLess(a, b), x < y);
  }
}

TEST(PathIdBits, HashEqualForEqualValues) {
  PathIdBits a = PathIdBits::FromBitString("0110");
  PathIdBits b = PathIdBits::FromBitString("0110");
  EXPECT_EQ(PathIdBits::Hash{}(a), PathIdBits::Hash{}(b));
}

// --- Rng ---------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(3, 17);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 17u);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0));
    EXPECT_TRUE(rng.Bernoulli(1));
  }
}

TEST(Rng, ZipfSkewsLow) {
  Rng rng(11);
  int low = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Zipf(100, 1.0) <= 10) ++low;
  }
  // With s=1 the first decile carries well over half the mass.
  EXPECT_GT(low, trials / 2);
}

TEST(Rng, WeightedIndexRespectsZeros) {
  Rng rng(13);
  std::vector<double> w = {0, 1, 0, 3};
  for (int i = 0; i < 200; ++i) {
    size_t idx = rng.WeightedIndex(w);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

// --- Status / Result ----------------------------------------------------

TEST(Status, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  Status e(StatusCode::kParseError, "bad");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.ToString(), "parse-error: bad");
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> v = 42;
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  Result<int> e = Status(StatusCode::kNotFound, "nope");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

// --- strings -------------------------------------------------------------

TEST(Strings, SplitAndJoin) {
  auto parts = SplitString("a/b//c", '/');
  EXPECT_EQ(parts, (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(JoinStrings(parts, "/"), "a/b//c");
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.00 MB");
}

// --- ShardedLru -------------------------------------------------------

TEST(ShardedLru, HitMissAndRecency) {
  ShardedLru<std::string, int> lru(/*byte_budget=*/1024, /*shards=*/1);
  EXPECT_EQ(lru.Get("a"), nullptr);
  lru.Put("a", std::make_shared<const int>(1), 100);
  auto hit = lru.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  LruStats s = lru.stats();
  EXPECT_EQ(s.bytes, 100u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ShardedLru, EvictsLeastRecentlyUsedUnderByteBudget) {
  ShardedLru<std::string, int> lru(/*byte_budget=*/250, /*shards=*/1);
  lru.Put("a", std::make_shared<const int>(1), 100);
  lru.Put("b", std::make_shared<const int>(2), 100);
  ASSERT_NE(lru.Get("a"), nullptr);  // refresh a: b is now LRU
  lru.Put("c", std::make_shared<const int>(3), 100);  // 300 > 250: evict b
  EXPECT_NE(lru.Get("a"), nullptr);
  EXPECT_EQ(lru.Get("b"), nullptr);
  EXPECT_NE(lru.Get("c"), nullptr);
  EXPECT_EQ(lru.stats().evictions, 1u);
}

TEST(ShardedLru, ReplaceRechargesBytes) {
  ShardedLru<std::string, int> lru(1024, 1);
  lru.Put("a", std::make_shared<const int>(1), 600);
  lru.Put("a", std::make_shared<const int>(2), 50);
  LruStats s = lru.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 50u);
  EXPECT_EQ(*lru.Get("a"), 2);
}

TEST(ShardedLru, OversizedEntryIsAdmittedAlone) {
  ShardedLru<std::string, int> lru(/*byte_budget=*/10, /*shards=*/1);
  lru.Put("big", std::make_shared<const int>(7), 1000);
  EXPECT_NE(lru.Get("big"), nullptr);  // never evicts down to zero entries
  lru.Put("b2", std::make_shared<const int>(8), 1000);
  EXPECT_EQ(lru.stats().entries, 1u);
}

TEST(ShardedLru, EvictedValueSurvivesThroughSharedPtr) {
  ShardedLru<std::string, int> lru(/*byte_budget=*/100, /*shards=*/1);
  lru.Put("a", std::make_shared<const int>(41), 90);
  auto held = lru.Get("a");
  lru.Put("b", std::make_shared<const int>(42), 90);  // evicts a
  EXPECT_EQ(lru.Get("a"), nullptr);
  EXPECT_EQ(*held, 41);
}

// The CLOCK contract: a lookup since the sweep last passed an entry buys
// it one more pass; an untouched entry is evicted when the sweep reaches
// it. The second chance is spent on that pass — untouched again, the
// entry goes the next time round.
TEST(ShardedLru, TouchedEntrySurvivesOneEvictionPassUntouchedDoesNot) {
  ShardedLru<std::string, int> lru(/*byte_budget=*/300, /*shards=*/1);
  lru.Put("a", std::make_shared<const int>(1), 100);
  lru.Put("b", std::make_shared<const int>(2), 100);
  lru.Put("c", std::make_shared<const int>(3), 100);
  ASSERT_NE(lru.Get("a"), nullptr);  // touched: survives the next pass
  lru.Put("d", std::make_shared<const int>(4), 100);
  EXPECT_EQ(lru.stats().evictions, 1u);
  EXPECT_EQ(lru.Get("b"), nullptr);  // untouched: evicted
  lru.Put("e", std::make_shared<const int>(5), 100);
  EXPECT_EQ(lru.Get("c"), nullptr);
  lru.Put("f", std::make_shared<const int>(6), 100);
  EXPECT_EQ(lru.Get("d"), nullptr);
  EXPECT_EQ(lru.stats().evictions, 3u);
  lru.Put("g", std::make_shared<const int>(7), 100);
  EXPECT_EQ(lru.Get("a"), nullptr);  // its second chance was spent
  EXPECT_EQ(lru.stats().evictions, 4u);
  EXPECT_EQ(lru.stats().entries, 3u);
  int v = 0;
  EXPECT_TRUE(lru.Copy("g", &v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(lru.Copy("a", &v));
  EXPECT_TRUE(lru.DebugCheckBalanced());
}

// Byte accounting audit: after any randomized interleaving of inserts,
// same-key overwrites with *different* sizes (the path the estimate
// memo makes hot), and the evictions they force, the running byte total
// must equal the sum over live entries — charges and credits balance to
// zero. A shadow map tracks what should be resident so the live-entry
// check is independent of the cache's own bookkeeping.
TEST(ShardedLru, RandomizedOverwriteAndEvictAccountingBalances) {
  std::mt19937_64 rng(0xacc7);
  for (size_t shards : {size_t{1}, size_t{4}}) {
    ShardedLru<int, int> lru(/*byte_budget=*/4096, shards);
    std::map<int, size_t> shadow_bytes;  // key -> last charged size
    for (int op = 0; op < 5000; ++op) {
      const int key = static_cast<int>(rng() % 40);
      if (rng() % 4 == 0) {
        (void)lru.Get(key);
      } else {
        // Sizes spanning two orders of magnitude force frequent
        // overwrites-with-different-size and frequent evictions.
        const size_t bytes = 1 + rng() % 1500;
        lru.Put(key, std::make_shared<const int>(op), bytes);
        shadow_bytes[key] = bytes;
      }
      if (op % 97 == 0) {
        ASSERT_TRUE(lru.DebugCheckBalanced()) << "op " << op;
      }
    }
    ASSERT_TRUE(lru.DebugCheckBalanced());
    // Every surviving entry must carry its *latest* charge: re-probe all
    // keys and cross-check the aggregate against the shadow ledger.
    LruStats s = lru.stats();
    uint64_t expected = 0;
    size_t live = 0;
    for (const auto& [key, bytes] : shadow_bytes) {
      if (lru.Get(key) != nullptr) {
        expected += bytes;
        ++live;
      }
    }
    EXPECT_EQ(s.bytes, expected);
    EXPECT_EQ(s.entries, live);
    lru.Clear();
    EXPECT_EQ(lru.stats().bytes, 0u);
    EXPECT_EQ(lru.stats().entries, 0u);
    EXPECT_TRUE(lru.DebugCheckBalanced());
  }
}

// The Hash template parameter must drive the inner hash map, not just
// shard selection: a key type with no std::hash specialization has to
// compile and work end to end. (It once compiled only by accident of
// K=std::string; the map silently defaulted to std::hash<K>.)
TEST(ShardedLru, CustomHashKeyTypeWorksWithoutStdHash) {
  struct PairKey {
    uint64_t a, b;
    bool operator==(const PairKey& o) const { return a == o.a && b == o.b; }
  };
  struct PairKeyHash {
    size_t operator()(const PairKey& k) const noexcept {
      return static_cast<size_t>(k.a * 0x9e3779b97f4a7c15ull ^ k.b);
    }
  };
  ShardedLru<PairKey, int, PairKeyHash> lru(1024, 4);
  lru.Put(PairKey{1, 2}, std::make_shared<const int>(12), 10);
  lru.Put(PairKey{3, 4}, std::make_shared<const int>(34), 10);
  ASSERT_NE(lru.Get(PairKey{1, 2}), nullptr);
  EXPECT_EQ(*lru.Get(PairKey{1, 2}), 12);
  EXPECT_EQ(lru.Get(PairKey{2, 1}), nullptr);
  EXPECT_TRUE(lru.DebugCheckBalanced());
}

// A probe or Put that carries HashOf(key) is the same operation as the
// string-keyed one: mixing the two forms over one cache always finds
// what the other filed, and misses what the other never filed.
TEST(ShardedLru, HashCarryingFormsFindWhatStringFormsFiled) {
  using Lru = ShardedLru<std::string, int>;
  std::mt19937_64 rng(0x4a5);
  Lru lru(/*byte_budget=*/1 << 20, /*shards=*/8);
  std::map<std::string, int> want;
  for (int op = 0; op < 2000; ++op) {
    const std::string key = "x" + std::to_string(rng() % 300) + ":/a/b";
    const size_t hash = Lru::HashOf(key);
    if (rng() % 2 == 0) {
      if (rng() % 2 == 0) {
        lru.Put(key, std::make_shared<const int>(op), 40);
      } else {
        lru.Put(key, hash, std::make_shared<const int>(op), 40);
      }
      want[key] = op;
    }
    const auto it = want.find(key);
    const std::shared_ptr<const int> by_string = lru.Get(key);
    const std::shared_ptr<const int> by_hash = lru.Get(key, hash);
    int copied = -1;
    const bool found = lru.Copy(key, hash, &copied);
    ASSERT_EQ(by_string != nullptr, it != want.end()) << key;
    ASSERT_EQ(by_hash != nullptr, it != want.end()) << key;
    ASSERT_EQ(found, it != want.end()) << key;
    if (found) {
      EXPECT_EQ(*by_string, it->second);
      EXPECT_EQ(*by_hash, it->second);
      EXPECT_EQ(copied, it->second);
    }
  }
  EXPECT_EQ(lru.stats().entries, want.size());
  EXPECT_TRUE(lru.DebugCheckBalanced());
}

// Randomized insert / overwrite / evict over the hash-carrying forms,
// with a hash that collides often (a handful of values for hundreds of
// keys): the audit holds throughout — charged bytes balance, every entry
// stores its HashOf and is what the map finds for it — and evicting by
// the stored hash keeps the map and the ring the same size, so every
// key the cache still counts is found and no other one is.
TEST(ShardedLru, HashedInsertOverwriteEvictStaysBalanced) {
  struct FewHashes {
    size_t operator()(const std::string& s) const noexcept {
      return std::hash<std::string>{}(s) % 7;
    }
  };
  for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
    using Lru = ShardedLru<std::string, int, FewHashes>;
    Lru lru(/*byte_budget=*/6000, shards);
    std::mt19937_64 rng(0xe71c + shards);
    std::set<std::string> keys;
    for (int op = 0; op < 6000; ++op) {
      const std::string key = "k" + std::to_string(rng() % 400);
      keys.insert(key);
      const size_t hash = Lru::HashOf(key);
      if (rng() % 4 == 0) {
        (void)lru.Get(key, hash);
      } else {
        lru.Put(key, hash, std::make_shared<const int>(op),
                1 + rng() % 700);
      }
      if (op % 101 == 0) {
        ASSERT_TRUE(lru.DebugCheckBalanced()) << op;
      }
    }
    ASSERT_TRUE(lru.DebugCheckBalanced());
    EXPECT_GT(lru.stats().evictions, 0u);
    size_t live = 0;
    for (const std::string& key : keys) {
      int v = 0;
      live += lru.Copy(key, Lru::HashOf(key), &v) ? 1 : 0;
    }
    EXPECT_EQ(live, lru.stats().entries);
  }
}

// --- ThreadPool -------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(touched.size(),
                   [&](size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  pool.ParallelFor(0, [&](size_t) { FAIL(); });  // n=0 is a no-op
}

// A task of the pool may itself call ParallelFor: the caller works its
// own chunks, so even with every worker inside a nested call (nobody left
// to take queued helpers) each call completes.
TEST(ThreadPool, ParallelForFromInsidePoolTasksCompletes) {
  ThreadPool pool(2);
  constexpr size_t kOuter = 4;
  std::vector<std::atomic<int>> touched(kOuter * 100);
  std::atomic<size_t> finished{0};
  for (size_t t = 0; t < kOuter; ++t) {
    pool.Submit([&, t] {
      pool.ParallelFor(100, [&](size_t i) { touched[t * 100 + i]++; });
      finished.fetch_add(1);
    });
  }
  while (finished.load() != kOuter) std::this_thread::yield();
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  // And from the outside, with a nested call in every index.
  std::atomic<int> inner{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(16, [&](size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 8 * 16);
}

// With every worker stalled by the slow-worker fault, ParallelFor runs
// all of its chunks on the calling thread rather than waiting for one.
TEST(ThreadPool, ParallelForCompletesOnTheCallerWhileWorkersAreHeld) {
  ThreadPool pool(2);
  FaultConfig cfg;
  cfg.payload = 300;  // each held worker sleeps 300 ms
  cfg.max_fires = pool.size();
  ScopedFault fault(std::string(ThreadPool::kSlowWorkerFaultSite), cfg);
  for (size_t w = 0; w < pool.size(); ++w) pool.Submit([] {});
  // Both workers have taken a task and fired: both are asleep.
  const std::string site(ThreadPool::kSlowWorkerFaultSite);
  while (FaultInjector::Global().FireCount(site) < pool.size()) {
    std::this_thread::yield();
  }
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(64);
  pool.ParallelFor(ran_on.size(), [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, DestructorDrainsSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

// --- Backoff ----------------------------------------------------------

TEST(Backoff, DeterministicForEqualPolicyAndSeed) {
  Backoff a({}, 42);
  Backoff b({}, 42);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(a.NextDelayMs(), b.NextDelayMs()) << i;
  }
  EXPECT_EQ(a.attempts(), 12u);
}

TEST(Backoff, DelaysStayWithinJitteredEnvelopeAndCeiling) {
  BackoffPolicy policy;
  policy.initial_ms = 4;
  policy.max_ms = 64;
  policy.multiplier = 2.0;
  policy.jitter = 0.5;
  Backoff backoff(policy, 7);
  double expected_base = 4;
  for (int i = 0; i < 10; ++i) {
    const uint64_t d = backoff.NextDelayMs();
    // Each delay is drawn from [base*(1-jitter), base].
    EXPECT_GE(d, static_cast<uint64_t>(expected_base * 0.5) == 0
                     ? 0
                     : static_cast<uint64_t>(expected_base * 0.5));
    EXPECT_LE(d, static_cast<uint64_t>(expected_base));
    expected_base = std::min(64.0, expected_base * 2.0);
  }
}

TEST(Backoff, ServerHintIsAFloorAndResetRestarts) {
  BackoffPolicy policy;
  policy.initial_ms = 1;
  policy.jitter = 0.0;
  Backoff backoff(policy, 1);
  EXPECT_EQ(backoff.NextDelayMs(/*server_hint_ms=*/50), 50u);
  backoff.Reset();
  EXPECT_EQ(backoff.attempts(), 0u);
  // Without jitter the schedule is exactly 1, 2, 4, ...
  EXPECT_EQ(backoff.NextDelayMs(), 1u);
  EXPECT_EQ(backoff.NextDelayMs(), 2u);
  EXPECT_EQ(backoff.NextDelayMs(), 4u);
}

// --- FaultInjector ----------------------------------------------------

TEST(FaultInjector, UnarmedSitesNeverFire) {
  FaultInjector::Global().Reset();
  EXPECT_FALSE(FaultFires("common-test.nope"));
  EXPECT_EQ(FaultInjector::Global().HitCount("common-test.nope"), 0u);
}

TEST(FaultInjector, SkipThenMaxFiresThenQuiet) {
  FaultConfig cfg;
  cfg.probability = 1.0;
  cfg.skip = 2;
  cfg.max_fires = 3;
  ScopedFault fault("common-test.site", cfg);

  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (FaultFires("common-test.site")) ++fires;
  }
  // Hits 1-2 skipped, hits 3-5 fire, hits 6+ exhausted.
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(FaultInjector::Global().HitCount("common-test.site"), 10u);
  EXPECT_EQ(FaultInjector::Global().FireCount("common-test.site"), 3u);
}

TEST(FaultInjector, PayloadIsDeliveredAndScopedFaultDisarms) {
  {
    FaultConfig cfg;
    cfg.payload = 0xDEADu;
    cfg.max_fires = 1;
    ScopedFault fault("common-test.payload", cfg);
    uint64_t payload = 0;
    ASSERT_TRUE(FaultFires("common-test.payload", &payload));
    EXPECT_EQ(payload, 0xDEADu);
  }
  // Out of scope: disarmed, counters forgotten.
  EXPECT_FALSE(FaultFires("common-test.payload"));
  EXPECT_EQ(FaultInjector::Global().HitCount("common-test.payload"), 0u);
}

TEST(FaultInjector, ProbabilityStreamIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    FaultConfig cfg;
    cfg.probability = 0.5;
    cfg.seed = seed;
    ScopedFault fault("common-test.prob", cfg);
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      pattern += FaultFires("common-test.prob") ? '1' : '0';
    }
    return pattern;
  };
  const std::string a = run(9);
  EXPECT_EQ(a, run(9));          // same seed, same firing pattern
  EXPECT_NE(a, std::string(32, '0'));
  EXPECT_NE(a, std::string(32, '1'));
}

// --- Deadline ---------------------------------------------------------

TEST(Deadline, DefaultIsInfiniteAndNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.HasExpired());
  EXPECT_EQ(d.Remaining(), Deadline::Clock::duration::max());
}

TEST(Deadline, AlreadyExpiredAndFarFuture) {
  EXPECT_TRUE(Deadline::AlreadyExpired().HasExpired());
  EXPECT_EQ(Deadline::AlreadyExpired().Remaining(),
            Deadline::Clock::duration::zero());
  Deadline far = Deadline::AfterMs(3600u * 1000u);
  EXPECT_FALSE(far.infinite());
  EXPECT_FALSE(far.HasExpired());
  EXPECT_GT(far.Remaining(), Deadline::Clock::duration::zero());
}

TEST(Deadline, FaultForcesExpiryForFiniteDeadlinesOnly) {
  FaultConfig cfg;
  cfg.probability = 1.0;
  ScopedFault fault(std::string(Deadline::kFaultSite), cfg);
  // A finite deadline trips on the injected fault...
  EXPECT_TRUE(Deadline::AfterMs(3600u * 1000u).HasExpired());
  // ...but a caller who never asked for a deadline cannot be expired.
  EXPECT_FALSE(Deadline::Infinite().HasExpired());
}

}  // namespace
}  // namespace xee
