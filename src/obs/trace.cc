
#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace xee::obs {

TraceRing::TraceRing(size_t capacity, uint64_t slow_threshold_ns)
    : capacity_(capacity < 1 ? 1 : capacity),
      tail_capacity_(std::max<size_t>(16, capacity_ / 2)),
      slow_threshold_ns_(slow_threshold_ns) {}

void TraceRing::Push(std::vector<TraceRecord>* ring, size_t* pos, size_t cap,
                     TraceRecord rec) {
  if (ring->size() < cap) {
    ring->push_back(std::move(rec));
    *pos = ring->size() % cap;
    return;
  }
  (*ring)[*pos] = std::move(rec);
  *pos = (*pos + 1) % cap;
}

void TraceRing::Record(TraceRecord rec) {
  recorded_.fetch_add(1, std::memory_order_relaxed);
  const bool tail = !rec.tail_class.empty();
  if (tail) tail_recorded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  rec.seq = ++seq_;
  if (rec.total_ns > 0) {
    const int bucket = HistogramBuckets::BucketOf(rec.total_ns);
    TraceExemplar& ex = exemplars_[bucket / HistogramBuckets::kSub];
    ex.seq = rec.seq;
    ex.total_ns = rec.total_ns;
    ex.bucket = bucket;
    ex.outcome = rec.outcome;
  }
  // Exactly one ring per record: the completion-time classification
  // decides which, so a request can never be double-retained.
  if (tail) {
    Push(&tail_ring_, &tail_pos_, tail_capacity_, std::move(rec));
  } else {
    Push(&ring_, &pos_, capacity_, std::move(rec));
  }
}

std::vector<TraceRecord> TraceRing::Ordered(
    const std::vector<TraceRecord>& ring, size_t pos, size_t max) const {
  // ring[pos..) then ring[0..pos) is oldest-to-newest once the ring has
  // wrapped; before wrapping pos == size, so the rotation is the
  // identity and insertion order (already oldest-first) is preserved.
  std::vector<TraceRecord> out;
  out.reserve(ring.size());
  for (size_t i = 0; i < ring.size(); ++i) {
    out.push_back(ring[(pos + i) % ring.size()]);
  }
  if (out.size() > max) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(max));
  }
  return out;
}

std::vector<TraceRecord> TraceRing::Recent(size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Ordered(ring_, pos_, max);
}

std::vector<TraceRecord> TraceRing::Tail(size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Ordered(tail_ring_, tail_pos_, max);
}

std::vector<TraceExemplar> TraceRing::Exemplars() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceExemplar> out;
  for (const TraceExemplar& ex : exemplars_) {
    if (ex.seq != 0) out.push_back(ex);
  }
  return out;
}

namespace {

void AppendTraceJson(const TraceRecord& t, std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"seq\":%llu,\"total_ns\":%llu,\"synopsis\":\"",
                static_cast<unsigned long long>(t.seq),
                static_cast<unsigned long long>(t.total_ns));
  *out += buf;
  *out += JsonEscape(t.synopsis);
  *out += "\",\"query\":\"";
  *out += JsonEscape(t.query);
  *out += "\",\"outcome\":\"";
  *out += JsonEscape(t.outcome);
  *out += "\",\"tail\":\"";
  *out += JsonEscape(t.tail_class);
  *out += "\",\"degraded\":";
  *out += t.degraded ? "true" : "false";
  *out += ",\"stages_ns\":{";
  bool first = true;
  for (size_t i = 0; i < kStageCount; ++i) {
    if (t.spans.stage_ns[i] == 0) continue;
    if (!first) out->push_back(',');
    first = false;
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu",
                  std::string(StageName(static_cast<Stage>(i))).c_str(),
                  static_cast<unsigned long long>(t.spans.stage_ns[i]));
    *out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "},\"containment_tests\":%llu,\"join_probes\":%llu,"
                "\"fixpoint_rounds\":%llu}",
                static_cast<unsigned long long>(t.spans.containment_tests),
                static_cast<unsigned long long>(t.spans.join_probes),
                static_cast<unsigned long long>(t.spans.fixpoint_rounds));
  *out += buf;
}

}  // namespace

std::string TraceRing::ToJson(size_t max) const {
  std::string out = "{\"recent\":[";
  bool first = true;
  for (const TraceRecord& t : Recent(max)) {
    if (!first) out.push_back(',');
    first = false;
    AppendTraceJson(t, &out);
  }
  out += "],\"tail\":[";
  first = true;
  for (const TraceRecord& t : Tail(max)) {
    if (!first) out.push_back(',');
    first = false;
    AppendTraceJson(t, &out);
  }
  out += "],\"exemplars\":[";
  first = true;
  char buf[160];
  for (const TraceExemplar& ex : Exemplars()) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"bucket_ns\":%llu,\"seq\":%llu,\"total_ns\":%llu,"
                  "\"outcome\":\"",
                  static_cast<unsigned long long>(
                      HistogramBuckets::BucketBound(ex.bucket)),
                  static_cast<unsigned long long>(ex.seq),
                  static_cast<unsigned long long>(ex.total_ns));
    out += buf;
    out += JsonEscape(ex.outcome);
    out += "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace xee::obs
