
#include "obs/accuracy.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace xee::obs {

namespace {

/// SplitMix64 finalizer: a full-avalanche mix so the sampled tick
/// positions are spread uniformly rather than strided, yet fully
/// reproducible for a fixed seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

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

/// Saturating round-to-uint64 for histogram units (milli-q-error, ppm).
uint64_t ToUnits(double v) {
  if (!(v > 0)) return 0;
  if (v >= 9.2e18) return UINT64_MAX;
  return static_cast<uint64_t>(v + 0.5);
}

}  // namespace

AccuracyTracker::AccuracyTracker(Registry* registry, AccuracyOptions options)
    : options_(options),
      registry_(registry),
      started_(registry->GetCounter("accuracy.samples", "phase=started")),
      recorded_(registry->GetCounter("accuracy.samples", "phase=recorded")),
      skipped_no_document_(
          registry->GetCounter("accuracy.samples", "phase=skipped_no_document")),
      deadline_suppressed_(registry->GetCounter(
          "accuracy.samples", "phase=deadline_suppressed")),
      backlog_suppressed_(
          registry->GetCounter("accuracy.samples", "phase=backlog_suppressed")),
      eval_error_(registry->GetCounter("accuracy.samples", "phase=eval_error")) {
  if (options_.sample != 0 && options_.drift_alpha <= 0) {
    options_.drift_alpha = 0.05;
  }
  if (options_.drift_alpha > 1) options_.drift_alpha = 1;
}

bool AccuracyTracker::ShouldSample(uint64_t tick) {
  if (options_.sample == 0) return false;
  if (Mix(options_.seed ^ tick) % options_.sample != 0) return false;
  started_.Inc();
  return true;
}

bool AccuracyTracker::TryBeginShadow() {
  uint64_t cur = pending_.load(std::memory_order_relaxed);
  while (true) {
    if (cur >= options_.max_pending) {
      backlog_suppressed_.Inc();
      return false;
    }
    if (pending_.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_relaxed)) {
      return true;
    }
  }
}

void AccuracyTracker::EndShadow() {
  pending_.fetch_sub(1, std::memory_order_relaxed);
}

void AccuracyTracker::SkipNoDocument() { skipped_no_document_.Inc(); }
void AccuracyTracker::SuppressDeadline() { deadline_suppressed_.Inc(); }
void AccuracyTracker::SkipEvalError() { eval_error_.Inc(); }

SynopsisAccuracy AccuracyTracker::Record(const std::string& synopsis,
                                         uint64_t epoch,
                                         const QueryClass& cls,
                                         std::string_view query,
                                         double estimate, double truth) {
  const double qerror = AccuracyMath::QError(estimate, truth);
  const double signed_err = AccuracyMath::SignedRelError(estimate, truth);
  const std::string label = cls.Label();
  recorded_.Inc();

  std::lock_guard<std::mutex> lock(mu_);

  ClassState& cs = classes_[label];
  if (cs.qerror_milli == nullptr) {
    cs.qerror_milli = &registry_->GetHistogram("accuracy.qerror_milli", label);
    cs.over_ppm =
        &registry_->GetHistogram("accuracy.error_ppm", "dir=over," + label);
    cs.under_ppm =
        &registry_->GetHistogram("accuracy.error_ppm", "dir=under," + label);
  }
  cs.count += 1;
  cs.sum_signed += signed_err;
  cs.sum_abs += std::fabs(signed_err);
  cs.sum_qerror += qerror;
  if (qerror > cs.max_qerror) cs.max_qerror = qerror;
  cs.qerror_milli->Record(ToUnits(qerror * 1000.0));
  (signed_err >= 0 ? cs.over_ppm : cs.under_ppm)
      ->Record(ToUnits(std::fabs(signed_err) * 1e6));

  DriftState& ds = drift_[synopsis];
  if (ds.samples == 0 || ds.epoch != epoch) {
    // First sample, or the synopsis was re-registered under a new epoch:
    // drift state restarts (the old synopsis's errors say nothing about
    // the new one). A stale verdict cleared this way is a *recovery* —
    // the self-healing loop's terminal transition: a rebuild (or manual
    // re-registration) published a new epoch and the conviction no
    // longer applies.
    if (ds.stale) {
      registry_->GetCounter("accuracy.drift", "transition=recovered").Inc();
    }
    ds = DriftState{};
    ds.epoch = epoch;
    ds.ewma = qerror;
  } else {
    ds.ewma = options_.drift_alpha * qerror +
              (1.0 - options_.drift_alpha) * ds.ewma;
  }
  const bool was_stale = ds.stale;
  ds.samples += 1;
  ds.stale = ds.samples >= options_.drift_min_samples &&
             ds.ewma > options_.drift_qerror_limit;
  if (!was_stale && ds.stale) {
    registry_->GetCounter("accuracy.drift", "transition=stale").Inc();
  }

  if (options_.offender_capacity > 0) {
    const bool full = offenders_.size() >= options_.offender_capacity;
    if (!full || qerror > offenders_.back().qerror) {
      AccuracyOffender off;
      off.synopsis = synopsis;
      off.query = std::string(query);
      off.label = label;
      off.estimate = estimate;
      off.truth = truth;
      off.qerror = qerror;
      off.seq = ++offender_seq_;
      offenders_.push_back(std::move(off));
      std::stable_sort(offenders_.begin(), offenders_.end(),
                       [](const AccuracyOffender& a, const AccuracyOffender& b) {
                         return a.qerror > b.qerror;
                       });
      if (offenders_.size() > options_.offender_capacity) {
        offenders_.resize(options_.offender_capacity);
      }
    }
  }

  SynopsisAccuracy state;
  state.name = synopsis;
  state.epoch = ds.epoch;
  state.samples = ds.samples;
  state.ewma_qerror = ds.ewma;
  state.stale = ds.stale;
  return state;
}

std::vector<ClassAccuracy> AccuracyTracker::Classes() const {
  std::vector<ClassAccuracy> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(classes_.size());
  for (const auto& [label, cs] : classes_) {
    ClassAccuracy c;
    c.label = label;
    c.count = cs.count;
    const double n = static_cast<double>(cs.count);
    c.mean_signed_error = cs.count == 0 ? 0 : cs.sum_signed / n;
    c.mean_abs_error = cs.count == 0 ? 0 : cs.sum_abs / n;
    c.mean_qerror = cs.count == 0 ? 0 : cs.sum_qerror / n;
    c.max_qerror = cs.max_qerror;
    out.push_back(std::move(c));
  }
  return out;  // map order == sorted by label
}

std::vector<SynopsisAccuracy> AccuracyTracker::Synopses() const {
  std::vector<SynopsisAccuracy> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(drift_.size());
  for (const auto& [name, ds] : drift_) {
    SynopsisAccuracy s;
    s.name = name;
    s.epoch = ds.epoch;
    s.samples = ds.samples;
    s.ewma_qerror = ds.ewma;
    s.stale = ds.stale;
    out.push_back(std::move(s));
  }
  return out;  // map order == sorted by name
}

std::optional<SynopsisAccuracy> AccuracyTracker::SynopsisState(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = drift_.find(std::string(name));
  if (it == drift_.end()) return std::nullopt;
  SynopsisAccuracy s;
  s.name = it->first;
  s.epoch = it->second.epoch;
  s.samples = it->second.samples;
  s.ewma_qerror = it->second.ewma;
  s.stale = it->second.stale;
  return s;
}

std::vector<AccuracyOffender> AccuracyTracker::Offenders() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offenders_;
}

std::string AccuracyTracker::ToJson() const {
  const std::vector<ClassAccuracy> classes = Classes();
  const std::vector<SynopsisAccuracy> synopses = Synopses();
  const std::vector<AccuracyOffender> offenders = Offenders();

  std::string j = "{\"enabled\":";
  j += enabled() ? "true" : "false";
  j += ",\"sample\":";
  AppendUint(options_.sample, &j);
  j += ",\"drift_qerror_limit\":";
  AppendDouble(options_.drift_qerror_limit, &j);
  j += ",\"drift_min_samples\":";
  AppendUint(options_.drift_min_samples, &j);

  j += ",\"samples\":{\"started\":";
  AppendUint(started_.value(), &j);
  j += ",\"recorded\":";
  AppendUint(recorded_.value(), &j);
  j += ",\"skipped_no_document\":";
  AppendUint(skipped_no_document_.value(), &j);
  j += ",\"deadline_suppressed\":";
  AppendUint(deadline_suppressed_.value(), &j);
  j += ",\"backlog_suppressed\":";
  AppendUint(backlog_suppressed_.value(), &j);
  j += ",\"eval_error\":";
  AppendUint(eval_error_.value(), &j);
  j += ",\"pending\":";
  AppendUint(pending(), &j);
  j += "}";

  j += ",\"classes\":{";
  for (size_t i = 0; i < classes.size(); ++i) {
    const ClassAccuracy& c = classes[i];
    if (i != 0) j += ",";
    j += "\"";
    j += JsonEscape(c.label);
    j += "\":{\"count\":";
    AppendUint(c.count, &j);
    j += ",\"mean_signed_error\":";
    AppendDouble(c.mean_signed_error, &j);
    j += ",\"mean_abs_error\":";
    AppendDouble(c.mean_abs_error, &j);
    j += ",\"mean_qerror\":";
    AppendDouble(c.mean_qerror, &j);
    j += ",\"max_qerror\":";
    AppendDouble(c.max_qerror, &j);
    j += "}";
  }
  j += "}";

  j += ",\"synopses\":{";
  for (size_t i = 0; i < synopses.size(); ++i) {
    const SynopsisAccuracy& s = synopses[i];
    if (i != 0) j += ",";
    j += "\"";
    j += JsonEscape(s.name);
    j += "\":{\"epoch\":";
    AppendUint(s.epoch, &j);
    j += ",\"samples\":";
    AppendUint(s.samples, &j);
    j += ",\"ewma_qerror\":";
    AppendDouble(s.ewma_qerror, &j);
    j += ",\"stale\":";
    j += s.stale ? "true" : "false";
    j += "}";
  }
  j += "}";

  j += ",\"offenders\":[";
  for (size_t i = 0; i < offenders.size(); ++i) {
    const AccuracyOffender& o = offenders[i];
    if (i != 0) j += ",";
    j += "{\"synopsis\":\"";
    j += JsonEscape(o.synopsis);
    j += "\",\"query\":\"";
    j += JsonEscape(o.query);
    j += "\",\"class\":\"";
    j += JsonEscape(o.label);
    j += "\"";
    j += ",\"estimate\":";
    AppendDouble(o.estimate, &j);
    j += ",\"truth\":";
    AppendDouble(o.truth, &j);
    j += ",\"qerror\":";
    AppendDouble(o.qerror, &j);
    j += "}";
  }
  j += "]}";
  return j;
}

}  // namespace xee::obs
