
#include "obs/flight.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace xee::obs {

namespace {

void AppendUint(uint64_t v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

}  // namespace

FlightRecorder::FlightRecorder(size_t bytes, size_t max_strings)
    : max_strings_(max_strings) {
  static_assert(sizeof(Slot) == kSlotBytes,
                "kSlotBytes documents the real in-ring slot footprint");
  // Budget the requested bytes across the shards. A non-zero budget
  // always yields at least one slot per shard so "enabled with a tiny
  // budget" still records; the count is rounded down to a power of two
  // so the hot path can mask instead of divide.
  if (bytes > 0) {
    slots_per_shard_ = bytes / (kShards * kSlotBytes);
    if (slots_per_shard_ == 0) slots_per_shard_ = 1;
    while (slots_per_shard_ & (slots_per_shard_ - 1)) {
      slots_per_shard_ &= slots_per_shard_ - 1;  // round down to pow2
    }
    slot_mask_ = slots_per_shard_ - 1;
    for (Shard& sh : shards_) {
      sh.slots = std::vector<Slot>(slots_per_shard_);
    }
  }
  strings_.push_back("__overflow__");  // id 0
}

uint32_t FlightRecorder::Intern(std::string_view s) {
  if (slots_per_shard_ == 0) return kOverflowId;
  std::lock_guard<std::mutex> lock(strings_mu_);
  auto it = string_ids_.find(std::string(s));
  if (it != string_ids_.end()) return it->second;
  if (strings_.size() >= max_strings_) return kOverflowId;
  const uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(std::string(s), id);
  return id;
}

std::vector<FlightEventView> FlightRecorder::Dump(size_t max_events) const {
  std::vector<FlightEventView> out;
  if (slots_per_shard_ == 0) return out;
  out.reserve(slots_per_shard_ * kShards);
  for (const Shard& sh : shards_) {
    for (const Slot& s : sh.slots) {
      const uint64_t seq = s.seq.load(std::memory_order_acquire);
      if (seq == 0) continue;
      FlightEventView v;
      v.seq = seq;
      v.t_us = s.t_us.load(std::memory_order_relaxed);
      const uint64_t type_a = s.type_a.load(std::memory_order_relaxed);
      v.type = static_cast<FlightEventType>(type_a >> 32);
      v.a = static_cast<uint32_t>(type_a);
      v.b = s.b.load(std::memory_order_relaxed);
      v.c = s.c.load(std::memory_order_relaxed);
      out.push_back(std::move(v));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEventView& x, const FlightEventView& y) {
              return x.seq < y.seq;
            });
  if (max_events != 0 && out.size() > max_events) {
    out.erase(out.begin(),
              out.begin() + static_cast<ptrdiff_t>(out.size() - max_events));
  }
  // Resolve intern ids for the types that carry one in `a`.
  std::lock_guard<std::mutex> lock(strings_mu_);
  for (FlightEventView& v : out) {
    switch (v.type) {
      case FlightEventType::kRequest:
      case FlightEventType::kShed:
      case FlightEventType::kEpochBump:
      case FlightEventType::kRebuild:
      case FlightEventType::kFaultFire:
      case FlightEventType::kAlert:
      case FlightEventType::kMark:
        if (v.a < strings_.size()) v.name = strings_[v.a];
        break;
      case FlightEventType::kNone:
        break;
    }
  }
  return out;
}

std::string FlightRecorder::ToJson(size_t max_events) const {
  std::string j = "{\"enabled\":";
  j += enabled() ? "true" : "false";
  j += ",\"recorded\":";
  AppendUint(recorded(), &j);
  j += ",\"capacity\":";
  AppendUint(capacity(), &j);
  j += ",\"events\":[";
  const std::vector<FlightEventView> events = Dump(max_events);
  bool first = true;
  for (const FlightEventView& v : events) {
    if (!first) j += ',';
    first = false;
    j += "{\"seq\":";
    AppendUint(v.seq, &j);
    j += ",\"t_us\":";
    AppendUint(v.t_us, &j);
    j += ",\"type\":\"";
    j += FlightEventTypeName(v.type);
    j += "\",\"a\":";
    AppendUint(v.a, &j);
    j += ",\"name\":\"";
    j += JsonEscape(v.name);
    j += "\",\"b\":";
    AppendUint(v.b, &j);
    j += ",\"c\":";
    AppendUint(v.c, &j);
    j += '}';
  }
  j += "]}";
  return j;
}

}  // namespace xee::obs
