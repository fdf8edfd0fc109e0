// estimation_server: a line-protocol front end for the estimation
// service layer. Builds one synopsis per generated dataset, registers
// them in the service's synopsis registry, then answers requests from
// stdin — the shape a query optimizer's selectivity oracle would take
// as a sidecar process.
//
// Protocol (one request per line):
//
//   <synopsis-name> <xpath>     estimate the query against that synopsis
//   .names                      list registered synopses
//   .stats                      print service counters and latency
//   .statsz (or STATSZ)         machine-readable metrics dump (JSON):
//                               every counter, gauge and per-stage
//                               latency histogram in the registry
//   .tracez (or TRACEZ)         recent + slow request traces (JSON)
//                               with per-stage nanosecond breakdowns
//   .accz (or ACCZ)             shadow-sampled accuracy state (JSON):
//                               per-class q-error, per-synopsis drift,
//                               worst offenders (DESIGN.md §11)
//   .healthz (or HEALTHZ)       per-synopsis health (JSON): "ok" until
//                               some synopsis drifts stale, plus the
//                               SLO alert rollup
//   .tsz (or TSZ)               per-tenant time-series rings (JSON):
//                               counter deltas, gauge levels and
//                               histogram quantiles per scrape interval
//   .alertz (or ALERTZ)         SLO burn-rate alert state (JSON):
//                               fast/slow window burn, firing state,
//                               fired/resolved tallies (DESIGN.md §16)
//   .flightz (or FLIGHTZ)       black-box flight recorder dump (JSON):
//                               the newest request/shed/epoch/rebuild/
//                               fault/alert events, in sequence order
//   .delta <name> clone <rank>  (--live) clone the subtree at preorder
//                               rank under its own parent — the exactly
//                               patchable mutation
//   .delta <name> delete <rank> (--live) delete that subtree
//   .delta <name> insert <rank> a/b/c
//                               (--live) insert a tag chain (novel tags
//                               charge the patch-error budget)
//   .rebuild <name>             (--live) schedule a background rebuild
//   .clear                      drop the answer cache
//   .quit                       exit (EOF works too)
//
// Malformed request lines — unknown dot-commands, a missing xpath, bare
// garbage — are answered with a one-line error; the server never exits
// on bad input.
//
// Example session:
//
//   $ ./build/examples/estimation_server --scale=0.5 --deadline-ms=50
//   > xmark //people//person/name
//   12014.0  (exact-miss, 312.4us)
//   > xmark //people//person/name
//   12014.0  (exact-hit, 1.9us)
//
// Build & run:  cmake --build build && ./build/examples/estimation_server

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "xee.h"

namespace {

struct Flags {
  double scale = 0.25;
  size_t threads = 0;        // 0 = hardware concurrency
  size_t cache_mb = 8;
  size_t max_inflight = 0;   // 0 = unbounded
  uint64_t deadline_ms = 0;  // per-request deadline; 0 = none
  uint64_t slow_ms = 10;     // slow-trace capture threshold; 0 = off
  size_t accuracy_sample = 256;   // shadow-sample 1-in-N; 0 = off
  double drift_limit = 2.0;       // q-error EWMA stale threshold
  uint64_t ts_interval_ms = 1000;  // obs scrape cadence; 0 = no scraper
  size_t flight_bytes = 64 << 10;  // flight-recorder budget; 0 = off
  double slo_availability = 0.999;  // availability objective; 0 = off
  uint64_t slo_p99_ms = 0;          // latency p99 objective; 0 = off
  double slo_qerror = 0.0;          // accuracy q-error objective; 0 = off
  bool stale_downgrade = false;   // enforce (degrade) vs report-only
  bool live = false;              // register datasets live (mutable)
  bool auto_rebuild = false;      // self-heal stale live synopses
  std::string datasets = "xmark,dblp,ssplays";
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + std::strlen(prefix)
                                       : nullptr;
    };
    if (const char* v = value("--scale=")) {
      f.scale = std::atof(v);
    } else if (const char* v = value("--threads=")) {
      f.threads = static_cast<size_t>(std::atoi(v));
    } else if (const char* v = value("--cache-mb=")) {
      f.cache_mb = static_cast<size_t>(std::atoi(v));
    } else if (const char* v = value("--max-inflight=")) {
      f.max_inflight = static_cast<size_t>(std::atoi(v));
    } else if (const char* v = value("--deadline-ms=")) {
      f.deadline_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = value("--slow-ms=")) {
      f.slow_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = value("--accuracy-sample=")) {
      f.accuracy_sample = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--drift-limit=")) {
      f.drift_limit = std::atof(v);
    } else if (const char* v = value("--ts-interval-ms=")) {
      f.ts_interval_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = value("--flight-bytes=")) {
      f.flight_bytes = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--slo-availability=")) {
      f.slo_availability = std::atof(v);
    } else if (const char* v = value("--slo-p99-ms=")) {
      f.slo_p99_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = value("--slo-qerror=")) {
      f.slo_qerror = std::atof(v);
    } else if (arg == "--stale-downgrade") {
      f.stale_downgrade = true;
    } else if (arg == "--live") {
      f.live = true;
    } else if (arg == "--auto-rebuild") {
      f.live = true;  // self-healing only applies to live synopses
      f.auto_rebuild = true;
    } else if (const char* v = value("--datasets=")) {
      f.datasets = v;
    } else {
      std::fprintf(stderr,
                   "usage: estimation_server [--scale=f] [--threads=n] "
                   "[--cache-mb=m] [--max-inflight=n] [--deadline-ms=t] "
                   "[--slow-ms=t] [--accuracy-sample=n] [--drift-limit=q] "
                   "[--ts-interval-ms=t] [--flight-bytes=n] "
                   "[--slo-availability=f] [--slo-p99-ms=t] [--slo-qerror=q] "
                   "[--stale-downgrade] [--live] [--auto-rebuild] "
                   "[--datasets=a,b,c]\n");
      std::exit(2);
    }
  }
  return f;
}

// Trims ASCII whitespace (including the \r of CRLF input) from both ends.
std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  xee::service::EstimationService service({
      .plan_cache_bytes = flags.cache_mb << 20,
      .threads = flags.threads,
      .max_inflight = flags.max_inflight,
      .slow_trace_ns = flags.slow_ms * 1'000'000,
      .accuracy_sample = flags.accuracy_sample,
      .drift_qerror_limit = flags.drift_limit,
      .stale_downgrade = flags.stale_downgrade,
      .auto_rebuild = flags.auto_rebuild,
      .ts_interval_us = flags.ts_interval_ms * 1'000,
      .slos = xee::service::DefaultSloSpecs(flags.slo_availability,
                                            flags.slo_p99_ms * 1'000'000,
                                            flags.slo_qerror),
      .flight_bytes = flags.flight_bytes,
  });

  for (const std::string& name : xee::SplitString(flags.datasets, ',')) {
    if (name.empty()) continue;
    xee::datagen::GenOptions gen;
    gen.scale = flags.scale;
    auto doc = xee::datagen::GenerateByName(name, gen);
    if (!doc.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", name.c_str(),
                   doc.status().ToString().c_str());
      continue;
    }
    if (flags.live) {
      // Live registration: the service owns the document and keeps the
      // synopsis current under .delta mutations and .rebuild requests.
      const size_t elements = doc.value().NodeCount();
      service.RegisterLive(name, std::move(doc.value()));
      std::printf("registered %-8s %7zu elements (live)\n", name.c_str(),
                  elements);
      continue;
    }
    xee::estimator::Synopsis synopsis =
        xee::estimator::Synopsis::Build(doc.value(), {});
    std::printf("registered %-8s %7zu elements, synopsis %s\n", name.c_str(),
                doc.value().NodeCount(),
                xee::HumanBytes(synopsis.PathSummaryBytes()).c_str());
    // Keeping the source document alive gives the shadow sampler its
    // exact-count oracle; drop it (or pass --accuracy-sample=0) to trade
    // accuracy observability for the memory.
    auto shared_doc = std::make_shared<const xee::xml::Document>(
        std::move(doc.value()));
    service.registry().Register(name, std::move(synopsis), shared_doc);
  }
  std::printf("serving on stdin with %zu worker threads — "
              "\"<synopsis> <xpath>\", .names, .stats, .clear, .quit\n",
              service.threads());

  // Wall-clock scrape loop: the service never reads a clock itself, so
  // a driver must feed ObsTick monotonic time for the time-series store
  // and the SLO engine to advance. Sleeps in short slices so .quit
  // stays prompt; joined before `service` goes out of scope.
  std::atomic<bool> stop_scraper{false};
  std::thread scraper;
  if (flags.ts_interval_ms > 0) {
    scraper = std::thread([&service, &stop_scraper, &flags] {
      const auto t0 = std::chrono::steady_clock::now();
      while (!stop_scraper.load(std::memory_order_relaxed)) {
        const auto now = std::chrono::steady_clock::now();
        service.ObsTick(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(now - t0)
                .count()));
        for (uint64_t slept = 0;
             slept < flags.ts_interval_ms &&
             !stop_scraper.load(std::memory_order_relaxed);
             slept += 50) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
  }

  std::string raw;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, raw)) {
    const std::string line = Trim(raw);
    if (line.empty()) continue;
    // Monitoring endpoints answer in both spellings: dot-command for the
    // interactive session, bare verb for scrapers piping one word in.
    if (line == ".statsz" || line == "STATSZ") {
      // Two registries: the service's own metrics, and the process-wide
      // one (estimator work counters, thread pool, fault injection).
      std::printf("{\"service\":%s,\"process\":%s}\n",
                  service.StatszJson().c_str(),
                  xee::obs::Registry::Global().ToJson().c_str());
      continue;
    }
    if (line == ".tracez" || line == "TRACEZ") {
      std::printf("%s\n", service.traces().ToJson().c_str());
      continue;
    }
    if (line == ".accz" || line == "ACCZ") {
      std::printf("%s\n", service.AccuracyJson().c_str());
      continue;
    }
    if (line == ".healthz" || line == "HEALTHZ") {
      std::printf("%s\n", service.HealthzJson().c_str());
      continue;
    }
    if (line == ".tsz" || line == "TSZ") {
      std::printf("%s\n", service.TszJson().c_str());
      continue;
    }
    if (line == ".alertz" || line == "ALERTZ") {
      std::printf("%s\n", service.AlertzJson().c_str());
      continue;
    }
    if (line == ".flightz" || line == "FLIGHTZ") {
      std::printf("%s\n", service.FlightzJson().c_str());
      continue;
    }
    if (line[0] == '.') {
      if (line == ".quit") break;
      if (line == ".names") {
        for (const std::string& n : service.registry().Names()) {
          std::printf("%s\n", n.c_str());
        }
        continue;
      }
      if (line == ".stats") {
        std::fputs(service.Stats().ToString().c_str(), stdout);
        continue;
      }
      if (line == ".clear") {
        service.ClearPlanCache();
        std::printf("answer cache cleared\n");
        continue;
      }
      // .delta <name> clone <rank> | delete <rank> | insert <rank> a/b/c
      // — one-op batches against a --live synopsis. Clone is the
      // exactly-patchable mutation; insert grows a (possibly novel)
      // tag chain, charging the patch-error budget when it is.
      if (line.rfind(".delta ", 0) == 0) {
        const auto words = xee::SplitString(Trim(line.substr(7)), ' ');
        xee::delta::DocumentDelta batch;
        if (words.size() >= 3 && words[1] == "clone") {
          auto op = service.maintenance().CloneOp(
              words[0], static_cast<uint32_t>(std::atoll(words[2].c_str())));
          if (!op.ok()) {
            std::printf("error: %s\n", op.status().ToString().c_str());
            continue;
          }
          batch.ops.push_back(std::move(op).value());
        } else if (words.size() >= 3 && words[1] == "delete") {
          xee::delta::DeltaOp op;
          op.kind = xee::delta::DeltaOp::Kind::kDelete;
          op.target = static_cast<uint32_t>(std::atoll(words[2].c_str()));
          batch.ops.push_back(std::move(op));
        } else if (words.size() >= 4 && words[1] == "insert") {
          xee::delta::DeltaOp op;
          op.kind = xee::delta::DeltaOp::Kind::kInsert;
          op.target = static_cast<uint32_t>(std::atoll(words[2].c_str()));
          for (const std::string& tag : xee::SplitString(words[3], '/')) {
            op.subtree.tags.push_back(tag);
            op.subtree.parent.push_back(
                static_cast<int32_t>(op.subtree.tags.size()) - 2);
          }
          batch.ops.push_back(std::move(op));
        } else {
          std::printf("error: expected \".delta <name> clone <rank>\", "
                      "\".delta <name> delete <rank>\" or "
                      "\".delta <name> insert <rank> tag/tag\"\n");
          continue;
        }
        auto applied = service.ApplyDelta(words[0], batch);
        if (!applied.ok()) {
          std::printf("error: %s\n", applied.status().ToString().c_str());
          continue;
        }
        const auto& a = applied.value();
        std::printf("epoch %llu: +%llu/-%llu nodes, %llu histos rebuilt, "
                    "%llu patched, patch error %.4f%s\n",
                    static_cast<unsigned long long>(a.epoch),
                    static_cast<unsigned long long>(a.apply.nodes_inserted),
                    static_cast<unsigned long long>(a.apply.nodes_deleted),
                    static_cast<unsigned long long>(a.apply.histos_rebuilt),
                    static_cast<unsigned long long>(a.apply.histos_patched),
                    a.apply.patch_error,
                    a.budget_exhausted ? " (budget exhausted: stale)" : "");
        continue;
      }
      if (line.rfind(".rebuild ", 0) == 0) {
        const std::string name = Trim(line.substr(9));
        if (service.ScheduleRebuild(name)) {
          std::printf("rebuild scheduled for %s (watch .healthz)\n",
                      name.c_str());
        } else {
          std::printf("error: %s is not a live synopsis (start with "
                      "--live)\n", name.c_str());
        }
        continue;
      }
      std::printf("error: unknown command \"%s\" (try .names, .stats, "
                  ".statsz, .tracez, .accz, .healthz, .tsz, .alertz, "
                  ".flightz, .delta, .rebuild, .clear, .quit)\n",
                  line.c_str());
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string::npos || Trim(line.substr(space + 1)).empty()) {
      std::printf("error: expected \"<synopsis> <xpath>\"\n");
      continue;
    }

    xee::service::QueryRequest request;
    request.synopsis = line.substr(0, space);
    request.xpath = line.substr(space + 1);
    if (flags.deadline_ms > 0) {
      request.deadline = xee::Deadline::AfterMs(flags.deadline_ms);
    }

    const auto before = service.Stats();
    const auto t0 = std::chrono::steady_clock::now();
    xee::service::EstimateOutcome r = service.Estimate(request);
    const double us =
        1e-3 * static_cast<double>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    const auto after = service.Stats();
    const char* outcome = after.exact_hits > before.exact_hits
                              ? "exact-hit"
                          : after.canonical_hits > before.canonical_hits
                              ? "canonical-hit"
                              : "miss";
    if (r.ok()) {
      std::printf("%.1f  (%s%s%s, %.1fus)\n", r.value(), outcome,
                  r.pruned ? ", pruned" : "", r.degraded ? ", degraded" : "",
                  us);
    } else if (r.shed) {
      std::printf("overloaded: retry in %ums (see common/backoff.h)\n",
                  r.retry_after_ms);
    } else {
      std::printf("error: %s\n", r.status().ToString().c_str());
    }
  }
  stop_scraper.store(true, std::memory_order_relaxed);
  if (scraper.joinable()) scraper.join();
  return 0;
}
