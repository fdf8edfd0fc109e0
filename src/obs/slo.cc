
#include "obs/slo.h"

#include <cstdio>
#include <utility>

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

SloEngine::SloEngine(const TimeSeriesStore* ts, Registry* registry,
                     std::vector<SloSpec> specs)
    : ts_(ts) {
  alerts_.reserve(specs.size());
  for (SloSpec& spec : specs) {
    AlertSlot slot;
    const std::string label = "slo=" + spec.name;
    slot.fired_counter =
        &registry->GetCounter("slo.alert", label + ",transition=fired");
    slot.resolved_counter =
        &registry->GetCounter("slo.alert", label + ",transition=resolved");
    slot.spec = std::move(spec);
    alerts_.push_back(std::move(slot));
  }
}

void SloEngine::SetTransitionHook(TransitionHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = std::move(hook);
}

double SloEngine::BurnOver(const SloSpec& spec, uint64_t window_us,
                           uint64_t now_us) const {
  switch (spec.kind) {
    case SloKind::kAvailability: {
      const double total = ts_->SumOver(spec.total_series, window_us, now_us);
      if (total <= 0) return 0;
      double bad = 0;
      for (const std::string& series : spec.bad_series) {
        bad += ts_->SumOver(series, window_us, now_us);
      }
      const double budget =
          spec.objective < 1.0 ? 1.0 - spec.objective : 1e-9;
      return (bad / total) / budget;
    }
    case SloKind::kLatency:
    case SloKind::kThreshold: {
      if (spec.objective <= 0) return 0;
      return ts_->MaxOver(spec.value_series, window_us, now_us) /
             spec.objective;
    }
  }
  return 0;
}

void SloEngine::Transition(AlertSlot* slot, AlertState to, uint64_t now_us) {
  const AlertState from = slot->state;
  if (from == to) return;
  slot->state = to;
  slot->since_us = now_us;
  if (to == AlertState::kFiring) {
    ++slot->fired;
    slot->fired_counter->Inc();
  } else if (to == AlertState::kResolved) {
    ++slot->resolved;
    slot->resolved_counter->Inc();
  }
  if (hook_) hook_(slot->spec, from, to, now_us);
}

void SloEngine::Evaluate(uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  ++evaluations_;
  for (AlertSlot& slot : alerts_) {
    slot.fast_burn = BurnOver(slot.spec, slot.spec.fast_window_us, now_us);
    slot.slow_burn = BurnOver(slot.spec, slot.spec.slow_window_us, now_us);
    const bool burning = slot.fast_burn >= slot.spec.fast_burn &&
                         slot.slow_burn >= slot.spec.slow_burn;
    switch (slot.state) {
      case AlertState::kInactive:
        if (burning) Transition(&slot, AlertState::kFiring, now_us);
        break;
      case AlertState::kFiring:
        Transition(&slot,
                   burning ? AlertState::kActive : AlertState::kResolved,
                   now_us);
        break;
      case AlertState::kActive:
        if (!burning) Transition(&slot, AlertState::kResolved, now_us);
        break;
      case AlertState::kResolved:
        Transition(&slot,
                   burning ? AlertState::kFiring : AlertState::kInactive,
                   now_us);
        break;
    }
  }
}

uint64_t SloEngine::evaluations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluations_;
}

std::vector<AlertStatus> SloEngine::Alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AlertStatus> out;
  out.reserve(alerts_.size());
  for (const AlertSlot& slot : alerts_) {
    AlertStatus st;
    st.slo = slot.spec.name;
    st.kind = slot.spec.kind;
    st.state = slot.state;
    st.objective = slot.spec.objective;
    st.fast_burn = slot.fast_burn;
    st.slow_burn = slot.slow_burn;
    st.fired = slot.fired;
    st.resolved = slot.resolved;
    st.since_us = slot.since_us;
    out.push_back(std::move(st));
  }
  return out;
}

uint64_t SloEngine::TotalFired() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const AlertSlot& slot : alerts_) n += slot.fired;
  return n;
}

uint64_t SloEngine::TotalResolved() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const AlertSlot& slot : alerts_) n += slot.resolved;
  return n;
}

uint64_t SloEngine::BurningCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const AlertSlot& slot : alerts_) {
    if (slot.state == AlertState::kFiring ||
        slot.state == AlertState::kActive) {
      ++n;
    }
  }
  return n;
}

std::string SloEngine::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string j = "{\"enabled\":true,\"evaluations\":";
  AppendUint(evaluations_, &j);
  j += ",\"alerts\":[";
  bool first = true;
  for (const AlertSlot& slot : alerts_) {
    if (!first) j += ',';
    first = false;
    j += "{\"slo\":\"";
    j += JsonEscape(slot.spec.name);
    j += "\",\"kind\":\"";
    j += SloKindName(slot.spec.kind);
    j += "\",\"state\":\"";
    j += AlertStateName(slot.state);
    j += "\",\"objective\":";
    AppendDouble(slot.spec.objective, &j);
    j += ",\"fast_window_us\":";
    AppendUint(slot.spec.fast_window_us, &j);
    j += ",\"slow_window_us\":";
    AppendUint(slot.spec.slow_window_us, &j);
    j += ",\"fast_burn_limit\":";
    AppendDouble(slot.spec.fast_burn, &j);
    j += ",\"slow_burn_limit\":";
    AppendDouble(slot.spec.slow_burn, &j);
    j += ",\"fast_burn\":";
    AppendDouble(slot.fast_burn, &j);
    j += ",\"slow_burn\":";
    AppendDouble(slot.slow_burn, &j);
    j += ",\"fired\":";
    AppendUint(slot.fired, &j);
    j += ",\"resolved\":";
    AppendUint(slot.resolved, &j);
    j += ",\"since_us\":";
    AppendUint(slot.since_us, &j);
    j += '}';
  }
  j += "]}";
  return j;
}

}  // namespace xee::obs
