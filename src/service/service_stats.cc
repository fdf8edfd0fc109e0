#include "service/service_stats.h"

#include "common/strings.h"

namespace xee::service {

ServiceStats::ServiceStats(obs::Registry* registry)
    : requests(registry->GetCounter("service.requests")),
      batches(registry->GetCounter("service.batches")),
      exact_hits(
          registry->GetCounter("service.plan_cache", "outcome=exact_hit")),
      canonical_hits(
          registry->GetCounter("service.plan_cache", "outcome=canonical_hit")),
      misses(registry->GetCounter("service.plan_cache", "outcome=miss")),
      analyzer_checked(
          registry->GetCounter("service.analyzer", "outcome=checked")),
      analyzer_pruned(
          registry->GetCounter("service.analyzer", "outcome=pruned")),
      shed(registry->GetCounter("service.outcome", "reason=shed")),
      shed_single(
          registry->GetCounter("service.shed", "reason=admission_single")),
      shed_batch(
          registry->GetCounter("service.shed", "reason=admission_batch")),
      degraded(registry->GetCounter("service.outcome", "reason=degraded")),
      deadline_exceeded(
          registry->GetCounter("service.outcome", "reason=deadline_exceeded")),
      quarantined(
          registry->GetCounter("service.outcome", "reason=quarantined")),
      tail_shed(registry->GetCounter("service.trace.tail", "class=shed")),
      tail_deadline(
          registry->GetCounter("service.trace.tail", "class=deadline")),
      tail_error(registry->GetCounter("service.trace.tail", "class=error")),
      tail_pruned(registry->GetCounter("service.trace.tail", "class=pruned")),
      tail_degraded(
          registry->GetCounter("service.trace.tail", "class=degraded")),
      tail_slow(registry->GetCounter("service.trace.tail", "class=slow")),
      inflight(registry->GetGauge("service.inflight")),
      retry_after_ms(registry->GetHistogram("service.retry_after_ms")),
      request_ns(registry->GetHistogram("service.request_ns")) {
  for (size_t i = 0; i < obs::kStageCount; ++i) {
    stage[i] = &registry->GetHistogram(
        "service.stage." +
        std::string(obs::StageName(static_cast<obs::Stage>(i))) + "_ns");
  }
}

obs::Counter& ServiceStats::TailCounter(std::string_view cls) {
  if (cls == "shed") return tail_shed;
  if (cls == "deadline") return tail_deadline;
  if (cls == "error") return tail_error;
  if (cls == "pruned") return tail_pruned;
  if (cls == "degraded") return tail_degraded;
  return tail_slow;
}

ServiceStatsSnapshot ServiceStats::Snap(const LruStats& cache) const {
  ServiceStatsSnapshot s;
  s.requests = requests.value();
  s.batches = batches.value();
  s.exact_hits = exact_hits.value();
  s.canonical_hits = canonical_hits.value();
  s.misses = misses.value();
  s.analyzer_checked = analyzer_checked.value();
  s.analyzer_pruned = analyzer_pruned.value();
  s.shed = shed.value();
  s.shed_single = shed_single.value();
  s.shed_batch = shed_batch.value();
  s.degraded = degraded.value();
  s.deadline_exceeded = deadline_exceeded.value();
  s.quarantined = quarantined.value();
  s.inflight = inflight.value();
  s.cache_evictions = cache.evictions;
  s.cache_bytes = cache.bytes;
  s.cache_entries = cache.entries;
  s.parse = StageHist(obs::Stage::kParse)->Snap();
  s.canonicalize = StageHist(obs::Stage::kCanonicalize)->Snap();
  s.cache_lookup = StageHist(obs::Stage::kCacheLookup)->Snap();
  s.snapshot_acquire = StageHist(obs::Stage::kSnapshot)->Snap();
  s.join = StageHist(obs::Stage::kJoin)->Snap();
  s.formula = StageHist(obs::Stage::kFormula)->Snap();
  s.request = request_ns.Snap();
  s.retry_after_ms = retry_after_ms.Snap();
  return s;
}

std::string ServiceStatsSnapshot::ToString() const {
  std::string out;
  out += StrFormat("requests: %llu (%llu batches, %lld in flight)\n",
                   static_cast<unsigned long long>(requests),
                   static_cast<unsigned long long>(batches),
                   static_cast<long long>(inflight));
  const uint64_t outcomes = exact_hits + canonical_hits + misses;
  out += StrFormat(
      "plan cache: %llu exact hits, %llu canonical hits, %llu misses "
      "(%.1f%% hit)\n",
      static_cast<unsigned long long>(exact_hits),
      static_cast<unsigned long long>(canonical_hits),
      static_cast<unsigned long long>(misses),
      outcomes == 0 ? 0.0
                    : 100.0 * static_cast<double>(exact_hits + canonical_hits) /
                          static_cast<double>(outcomes));
  out += StrFormat("            %llu entries, %s charged, %llu evictions\n",
                   static_cast<unsigned long long>(cache_entries),
                   HumanBytes(cache_bytes).c_str(),
                   static_cast<unsigned long long>(cache_evictions));
  out += StrFormat(
      "analyzer: %llu checked, %llu pruned\n",
      static_cast<unsigned long long>(analyzer_checked),
      static_cast<unsigned long long>(analyzer_pruned));
  out += StrFormat(
      "robustness: %llu shed (%llu single, %llu batch), %llu degraded, "
      "%llu deadline-exceeded, %llu quarantined\n",
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(shed_single),
      static_cast<unsigned long long>(shed_batch),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(quarantined));
  auto stage = [&](const char* name, const obs::HistogramSnapshot& h) {
    out += StrFormat(
        "%-12s n=%-8llu mean=%8.1fus  p50<=%8.1fus  p95<=%8.1fus  "
        "p99<=%8.1fus\n",
        name, static_cast<unsigned long long>(h.count), h.mean / 1e3,
        static_cast<double>(h.p50) / 1e3, static_cast<double>(h.p95) / 1e3,
        static_cast<double>(h.p99) / 1e3);
  };
  stage("parse", parse);
  stage("canonicalize", canonicalize);
  stage("cache-lookup", cache_lookup);
  stage("snapshot", snapshot_acquire);
  stage("join", join);
  stage("formula", formula);
  stage("request", request);
  return out;
}

}  // namespace xee::service
