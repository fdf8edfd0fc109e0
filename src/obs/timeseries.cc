
#include "obs/timeseries.h"

#include <algorithm>
#include <cstdio>

namespace xee::obs {

namespace {

void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

void AppendUint(uint64_t v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(Registry* registry, TimeSeriesOptions options)
    : options_(options), registry_(registry) {
  if (options_.interval_us == 0) options_.interval_us = 1;
  if (options_.retention == 0) options_.retention = 1;
  if (options_.max_series == 0) options_.max_series = 1;
}

void TimeSeriesStore::WatchCounter(std::string key) {
  std::lock_guard<std::mutex> lock(mu_);
  counter_keys_.push_back(std::move(key));
}

void TimeSeriesStore::WatchCounterPrefix(std::string prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  counter_prefixes_.push_back(std::move(prefix));
}

void TimeSeriesStore::WatchGauge(std::string key) {
  std::lock_guard<std::mutex> lock(mu_);
  gauge_keys_.push_back(std::move(key));
}

void TimeSeriesStore::WatchGaugePrefix(std::string prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  gauge_prefixes_.push_back(std::move(prefix));
}

void TimeSeriesStore::WatchHistogram(std::string key, Histogram* h) {
  std::lock_guard<std::mutex> lock(mu_);
  hist_watches_.push_back(HistWatch{std::move(key), h, HistogramWindow{}});
}

TimeSeriesStore::Series* TimeSeriesStore::FindOrCreate(
    const std::string& key) {
  auto it = series_.find(key);
  if (it != series_.end()) return &it->second;
  if (series_.size() >= options_.max_series) {
    ++dropped_;
    return nullptr;
  }
  Series s;
  s.ring.resize(options_.retention);
  return &series_.emplace(key, std::move(s)).first->second;
}

void TimeSeriesStore::Append(Series* s, uint64_t t_us, double value) {
  s->ring[s->pos] = TsPoint{t_us, value};
  s->pos = (s->pos + 1) % s->ring.size();
  ++s->count;
}

bool TimeSeriesStore::Matches(
    const std::string& key, const std::vector<std::string>& exact,
    const std::vector<std::string>& prefixes) const {
  for (const std::string& k : exact) {
    if (key == k) return true;
  }
  for (const std::string& p : prefixes) {
    if (key.size() >= p.size() && key.compare(0, p.size(), p) == 0) {
      return true;
    }
  }
  return false;
}

bool TimeSeriesStore::Sample(uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_ != 0 && now_us < last_sample_us_ + options_.interval_us) {
    return false;
  }
  // One Rows() pass covers every watched counter and gauge, including
  // labeled rows that appeared since the previous sample (per-tenant
  // rows register lazily as traffic arrives).
  for (const MetricRow& row : registry_->Rows()) {
    const std::string key =
        row.label.empty() ? row.name : row.name + "{" + row.label + "}";
    if (row.kind == MetricRow::Kind::kCounter) {
      if (!Matches(key, counter_keys_, counter_prefixes_)) continue;
      Series* s = FindOrCreate(key);
      if (s == nullptr) continue;
      const uint64_t delta = row.counter >= s->prev ? row.counter - s->prev : 0;
      s->prev = row.counter;
      Append(s, now_us, static_cast<double>(delta));
    } else if (row.kind == MetricRow::Kind::kGauge) {
      if (!Matches(key, gauge_keys_, gauge_prefixes_)) continue;
      Series* s = FindOrCreate(key);
      if (s == nullptr) continue;
      Append(s, now_us, static_cast<double>(row.gauge));
    }
  }
  for (HistWatch& w : hist_watches_) {
    const HistogramSnapshot snap = w.cursor.Advance(*w.hist);
    struct Sub {
      const char* suffix;
      double value;
    };
    const Sub subs[] = {
        {".count", static_cast<double>(snap.count)},
        {".p50", static_cast<double>(snap.p50)},
        {".p99", static_cast<double>(snap.p99)},
        {".mean", snap.mean},
    };
    for (const Sub& sub : subs) {
      Series* s = FindOrCreate(w.key + sub.suffix);
      if (s == nullptr) continue;
      Append(s, now_us, sub.value);
    }
  }
  ++samples_;
  last_sample_us_ = now_us;
  return true;
}

uint64_t TimeSeriesStore::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

uint64_t TimeSeriesStore::last_sample_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_sample_us_;
}

size_t TimeSeriesStore::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

uint64_t TimeSeriesStore::dropped_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<std::string> TimeSeriesStore::SeriesNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [key, s] : series_) out.push_back(key);
  return out;
}

const TimeSeriesStore::Series* TimeSeriesStore::Find(
    std::string_view key) const {
  auto it = series_.find(std::string(key));
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<TsPoint> TimeSeriesStore::Points(std::string_view series) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TsPoint> out;
  const Series* s = Find(series);
  if (s == nullptr) return out;
  const size_t n = std::min<uint64_t>(s->count, s->ring.size());
  out.reserve(n);
  // Oldest first: the ring's write cursor points at the oldest retained
  // slot once the ring has wrapped.
  const size_t start = s->count >= s->ring.size() ? s->pos : 0;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(s->ring[(start + i) % s->ring.size()]);
  }
  return out;
}

double TimeSeriesStore::SumOver(std::string_view series, uint64_t window_us,
                                uint64_t now_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = Find(series);
  if (s == nullptr) return 0;
  const uint64_t from = now_us >= window_us ? now_us - window_us : 0;
  double sum = 0;
  const size_t n = std::min<uint64_t>(s->count, s->ring.size());
  for (size_t i = 0; i < n; ++i) {
    const TsPoint& p = s->ring[i];
    if (p.t_us > from && p.t_us <= now_us) sum += p.value;
  }
  return sum;
}

double TimeSeriesStore::MaxOver(std::string_view series, uint64_t window_us,
                                uint64_t now_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = Find(series);
  if (s == nullptr) return 0;
  const uint64_t from = now_us >= window_us ? now_us - window_us : 0;
  double best = 0;
  const size_t n = std::min<uint64_t>(s->count, s->ring.size());
  for (size_t i = 0; i < n; ++i) {
    const TsPoint& p = s->ring[i];
    if (p.t_us > from && p.t_us <= now_us && p.value > best) best = p.value;
  }
  return best;
}

double TimeSeriesStore::RatePerSec(std::string_view series, uint64_t window_us,
                                   uint64_t now_us) const {
  if (window_us == 0) return 0;
  return SumOver(series, window_us, now_us) /
         (static_cast<double>(window_us) / 1e6);
}

std::string TimeSeriesStore::ToJson(size_t max_points) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string j = "{\"enabled\":true,\"interval_us\":";
  AppendUint(options_.interval_us, &j);
  j += ",\"retention\":";
  AppendUint(options_.retention, &j);
  j += ",\"samples\":";
  AppendUint(samples_, &j);
  j += ",\"dropped_series\":";
  AppendUint(dropped_, &j);
  j += ",\"series\":{";
  bool first_series = true;
  for (const auto& [key, s] : series_) {
    if (!first_series) j += ',';
    first_series = false;
    j += '"';
    j += JsonEscape(key);
    j += "\":[";
    const size_t n = std::min<uint64_t>(s.count, s.ring.size());
    const size_t keep = max_points == 0 ? n : std::min(n, max_points);
    const size_t start_i = s.count >= s.ring.size() ? s.pos : 0;
    bool first_point = true;
    // Newest `keep` points, oldest of those first.
    for (size_t i = n - keep; i < n; ++i) {
      const TsPoint& p = s.ring[(start_i + i) % s.ring.size()];
      if (!first_point) j += ',';
      first_point = false;
      j += '[';
      AppendUint(p.t_us, &j);
      j += ',';
      AppendDouble(p.value, &j);
      j += ']';
    }
    j += ']';
  }
  j += "}}";
  return j;
}

}  // namespace xee::obs
