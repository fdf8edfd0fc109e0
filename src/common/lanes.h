#ifndef XEE_COMMON_LANES_H_
#define XEE_COMMON_LANES_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace xee {

/// Small nonzero id of the calling thread, never reused within the
/// process: lane ownership is claimed under it.
inline uint32_t LaneThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Per-thread lane indices for one owning object: the first kLanes
/// threads that ask each claim an index of their own (by CAS, held for
/// the object's lifetime); later threads get kLanes, "no lane", and
/// must use a multi-writer fallback. Lanes let a hot path give every
/// thread its own cache line to write.
class LaneClaims {
 public:
  static constexpr size_t kLanes = 8;

  LaneClaims() : id_(NextId()) {}
  LaneClaims(const LaneClaims&) = delete;
  LaneClaims& operator=(const LaneClaims&) = delete;

  /// The calling thread's lane index, claimed on first contact, or
  /// kLanes when every lane belongs to another thread.
  size_t Claim() {
    const uint32_t tid = LaneThreadId();
    for (size_t i = 0; i < kLanes; ++i) {
      uint32_t owner = owners_[i].load(std::memory_order_acquire);
      if (owner == tid) return i;
      if (owner == 0 &&
          owners_[i].compare_exchange_strong(owner, tid,
                                             std::memory_order_acq_rel)) {
        return i;
      }
    }
    return kLanes;
  }

  /// Claim(), memoized per thread for the last few LaneClaims it asked:
  /// a thread that keeps using the same objects pays a compare or two.
  size_t Mine() {
    struct Memo {
      uint64_t id = 0;
      size_t lane = 0;
    };
    constexpr size_t kMemo = 4;
    thread_local Memo memo[kMemo];
    thread_local size_t next = 0;
    for (const Memo& m : memo) {
      if (m.id == id_) return m.lane;
    }
    Memo& m = memo[next];
    next = (next + 1) % kMemo;
    m = Memo{id_, Claim()};
    return m.lane;
  }

 private:
  /// Tells instances apart in Mine's memo, including one constructed
  /// later at a dead instance's address.
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  const uint64_t id_;
  std::atomic<uint32_t> owners_[kLanes] = {};  // thread ids; 0 = free
};

/// Single-writer counter lanes (DESIGN.md §10). `Cells` is a struct of
/// std::atomic<uint64_t> counts; each Lane is one cache line of them
/// with at most one writing thread (the LaneClaims owner). An owned
/// lane's increment is a relaxed load plus store on a line no other
/// thread writes — exact because there is one writer, and free of
/// lock-prefixed read-modify-writes. Threads without a lane write the
/// multi-writer shared lane with fetch_add, so nothing is ever lost.
/// Readers sum all lanes (Sum), so totals are exact once the writers
/// are quiescent.
template <typename Cells>
class Lanes {
 public:
  struct alignas(64) Lane : Cells {};
  using Field = std::atomic<uint64_t> Cells::*;

  /// The calling thread's lane; nullptr = write through the shared lane.
  Lane* Claim() { return LaneAt(claims_.Claim()); }
  /// Claim(), memoized per thread (LaneClaims::Mine).
  Lane* Mine() { return LaneAt(claims_.Mine()); }

  /// Adds one to `field` in `lane` (nullptr = the shared lane) and
  /// returns the value before — a per-lane tick when used as one.
  uint64_t Bump(Lane* lane, Field field) {
    if (lane == nullptr) {
      return (shared_.*field).fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<uint64_t>& cell = lane->*field;
    const uint64_t before = cell.load(std::memory_order_relaxed);
    cell.store(before + 1, std::memory_order_relaxed);
    return before;
  }

  /// Exact total of `field` across every lane.
  uint64_t Sum(Field field) const {
    uint64_t total = (shared_.*field).load(std::memory_order_relaxed);
    for (const Lane& l : lanes_) {
      total += (l.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  Lane* LaneAt(size_t i) {
    return i == LaneClaims::kLanes ? nullptr : &lanes_[i];
  }

  LaneClaims claims_;
  Lane lanes_[LaneClaims::kLanes];
  Lane shared_;
};

}  // namespace xee

#endif  // XEE_COMMON_LANES_H_
