
#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

namespace xee::obs {

uint64_t Histogram::SnapBuckets(
    uint64_t out[HistogramBuckets::kBuckets]) const {
  uint64_t sum = 0;
  for (int b = 0; b < HistogramBuckets::kBuckets; ++b) out[b] = 0;
  for (const Shard& shard : shards_) {
    for (int b = 0; b < HistogramBuckets::kBuckets; ++b) {
      out[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
    sum += shard.sum.load(std::memory_order_relaxed);
  }
  return sum;
}

HistogramSnapshot Histogram::Snap() const {
  uint64_t counts[HistogramBuckets::kBuckets];
  const uint64_t sum = SnapBuckets(counts);
  return SnapshotFromBuckets(counts, sum);
}

HistogramSnapshot SnapshotFromBuckets(
    const uint64_t counts[HistogramBuckets::kBuckets], uint64_t sum) {
  HistogramSnapshot s;
  s.sum = sum;
  for (int b = 0; b < HistogramBuckets::kBuckets; ++b) s.count += counts[b];
  if (s.count == 0) return s;
  s.mean = static_cast<double>(s.sum) / static_cast<double>(s.count);

  // rank(q) = ceil(q * count) clamped to [1, count]; the quantile is
  // the upper bound of the bucket holding that rank.
  auto quantile = [&](double q) {
    uint64_t rank =
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(s.count)));
    if (rank < 1) rank = 1;
    if (rank > s.count) rank = s.count;
    uint64_t seen = 0;
    for (int b = 0; b < HistogramBuckets::kBuckets; ++b) {
      seen += counts[b];
      if (seen >= rank) return HistogramBuckets::BucketBound(b);
    }
    return HistogramBuckets::BucketBound(HistogramBuckets::kBuckets - 1);
  };
  s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  for (int b = HistogramBuckets::kBuckets; b-- > 0;) {
    if (counts[b] != 0) {
      s.max = HistogramBuckets::BucketBound(b);
      break;
    }
  }
  return s;
}

Registry& Registry::Global() {
  static Registry* r = new Registry();  // never destroyed: metrics may
  return *r;                            // be bumped during static exit
}

std::string Registry::Key(std::string_view name, std::string_view label) {
  if (label.empty()) return std::string(name);
  std::string key;
  key.reserve(name.size() + label.size() + 2);
  key.append(name);
  key.push_back('{');
  key.append(label);
  key.push_back('}');
  return key;
}

Counter& Registry::GetCounter(std::string_view name, std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[Key(name, label)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(std::string_view name, std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[Key(name, label)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[Key(name, label)];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::RegisterDerivedCounter(std::string_view name,
                                      std::string_view label,
                                      std::function<uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  derived_counters_[Key(name, label)] = std::move(fn);
}

uint64_t Registry::CounterValue(std::string_view name,
                                std::string_view label) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = Key(name, label);
  auto it = counters_.find(key);
  if (it != counters_.end()) return it->second->value();
  auto dit = derived_counters_.find(key);
  return dit == derived_counters_.end() ? 0 : dit->second();
}

int64_t Registry::GaugeValue(std::string_view name,
                             std::string_view label) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(Key(name, label));
  return it == gauges_.end() ? 0 : it->second->value();
}

HistogramSnapshot Registry::HistogramSnap(std::string_view name,
                                          std::string_view label) const {
  const Histogram* h = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(Key(name, label));
    if (it != histograms_.end()) h = it->second.get();
  }
  return h == nullptr ? HistogramSnapshot{} : h->Snap();
}

std::vector<MetricRow> Registry::Rows() const {
  // Split the composite key back into (name, label) — labels are always
  // rendered as a trailing "{...}".
  auto split = [](const std::string& key, MetricRow* row) {
    const size_t brace = key.find('{');
    if (brace == std::string::npos || key.back() != '}') {
      row->name = key;
      return;
    }
    row->name = key.substr(0, brace);
    row->label = key.substr(brace + 1, key.size() - brace - 2);
  };

  std::vector<MetricRow> rows;
  std::lock_guard<std::mutex> lock(mu_);
  rows.reserve(counters_.size() + derived_counters_.size() + gauges_.size() +
               histograms_.size());
  // Counter rows are the key-ordered merge of the physical and derived
  // maps; a physical row shadows a derived row with the same identity.
  auto cit = counters_.begin();
  auto dit = derived_counters_.begin();
  while (cit != counters_.end() || dit != derived_counters_.end()) {
    MetricRow row;
    row.kind = MetricRow::Kind::kCounter;
    const bool take_physical =
        dit == derived_counters_.end() ||
        (cit != counters_.end() && cit->first <= dit->first);
    if (take_physical) {
      split(cit->first, &row);
      row.counter = cit->second->value();
      if (dit != derived_counters_.end() && dit->first == cit->first) ++dit;
      ++cit;
    } else {
      split(dit->first, &row);
      row.counter = dit->second();
      ++dit;
    }
    rows.push_back(std::move(row));
  }
  for (const auto& [key, g] : gauges_) {
    MetricRow row;
    split(key, &row);
    row.kind = MetricRow::Kind::kGauge;
    row.gauge = g->value();
    rows.push_back(std::move(row));
  }
  for (const auto& [key, h] : histograms_) {
    MetricRow row;
    split(key, &row);
    row.kind = MetricRow::Kind::kHistogram;
    row.hist = h->Snap();
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string Registry::ToJson() const {
  const std::vector<MetricRow> rows = Rows();
  std::string out = "{\"counters\":{";
  auto emit_group = [&](MetricRow::Kind kind) {
    bool first = true;
    for (const MetricRow& row : rows) {
      if (row.kind != kind) continue;
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      out += JsonEscape(row.name);
      if (!row.label.empty()) {
        out.push_back('{');
        out += JsonEscape(row.label);
        out.push_back('}');
      }
      out += "\":";
      char buf[256];
      switch (kind) {
        case MetricRow::Kind::kCounter:
          std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(row.counter));
          out += buf;
          break;
        case MetricRow::Kind::kGauge:
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(row.gauge));
          out += buf;
          break;
        case MetricRow::Kind::kHistogram:
          std::snprintf(
              buf, sizeof(buf),
              "{\"count\":%llu,\"sum\":%llu,\"mean\":%.1f,\"p50\":%llu,"
              "\"p90\":%llu,\"p95\":%llu,\"p99\":%llu,\"max\":%llu}",
              static_cast<unsigned long long>(row.hist.count),
              static_cast<unsigned long long>(row.hist.sum), row.hist.mean,
              static_cast<unsigned long long>(row.hist.p50),
              static_cast<unsigned long long>(row.hist.p90),
              static_cast<unsigned long long>(row.hist.p95),
              static_cast<unsigned long long>(row.hist.p99),
              static_cast<unsigned long long>(row.hist.max));
          out += buf;
          break;
      }
    }
  };
  emit_group(MetricRow::Kind::kCounter);
  out += "},\"gauges\":{";
  emit_group(MetricRow::Kind::kGauge);
  out += "},\"histograms\":{";
  emit_group(MetricRow::Kind::kHistogram);
  out += "}}";
  return out;
}

}  // namespace xee::obs
