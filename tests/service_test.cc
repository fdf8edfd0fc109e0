#include "service/service.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "estimator/estimator.h"
#include "estimator/synopsis.h"
#include "paper_fixture.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xee::service {
namespace {

estimator::Synopsis PaperSynopsis() {
  return estimator::Synopsis::Build(testing::MakePaperDocument(), {});
}

/// Reference estimate straight through the estimator, bypassing the
/// service: the value every cached/batched path must reproduce
/// bit-for-bit.
Result<double> Direct(const estimator::Synopsis& syn, const std::string& text) {
  Result<xpath::Query> q = xpath::ParseXPath(text);
  if (!q.ok()) return q.status();
  return estimator::Estimator(syn).Estimate(q.value());
}

/// A service answer must equal Direct's bit for bit (status code on
/// errors).
void ExpectDirect(const EstimateOutcome& got, const estimator::Synopsis& syn,
                  const std::string& text) {
  Result<double> want = Direct(syn, text);
  ASSERT_EQ(got.ok(), want.ok()) << text;
  if (want.ok()) {
    EXPECT_EQ(got.value(), want.value()) << text;
  } else {
    EXPECT_EQ(got.status().code(), want.status().code()) << text;
  }
}

const char* kPaperQueries[] = {
    "//A/B",
    "//A/B/D",
    "/Root/A[B]/C",
    "//A[B/D]/C/E",
    "//A/B/following-sibling::C",
    "//A/C/following::B",
    "//B/unknown-tag",
    "//*/B",
};

TEST(ServiceTest, UnknownSynopsisIsNotFound) {
  EstimationService svc({.threads = 1});
  EstimateOutcome r = svc.Estimate("nope", "//A/B");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ServiceTest, MatchesDirectEstimatorAndCountsCacheOutcomes) {
  // trace_sample = 1 times every request, so the request histogram's
  // count is exact (the default samples 1-in-16).
  EstimationService svc({.threads = 1, .trace_sample = 1});
  estimator::Synopsis reference = PaperSynopsis();
  svc.registry().Register("paper", PaperSynopsis());

  for (const char* q : kPaperQueries) {
    ExpectDirect(svc.Estimate("paper", q), reference, q);
  }
  const size_t n = std::size(kPaperQueries);
  ServiceStatsSnapshot cold = svc.Stats();
  EXPECT_EQ(cold.requests, n);
  // "//B/unknown-tag" is answered by the analyzer's unknown-tag prune
  // (outcome "pruned", same 0.0 bits) instead of compiling; the other
  // cold queries are misses.
  EXPECT_EQ(cold.misses, n - 1);
  EXPECT_EQ(cold.analyzer_pruned, 1u);
  EXPECT_EQ(cold.exact_hits, 0u);

  // Second pass: every query is an exact-string hit.
  for (const char* q : kPaperQueries) {
    ExpectDirect(svc.Estimate("paper", q), reference, q);
  }
  ServiceStatsSnapshot warm = svc.Stats();
  EXPECT_EQ(warm.exact_hits, n);
  // The pruned answer was aliased under its exact string like any other,
  // so the repeat is an exact hit that keeps the pruned label.
  EXPECT_EQ(warm.misses, n - 1);
  EXPECT_EQ(warm.analyzer_pruned, 2u);
  EXPECT_EQ(warm.request.count, 2 * n);
}

TEST(ServiceTest, SemanticallyEqualSpellingsShareOnePlan) {
  EstimationService svc({.threads = 1});
  svc.registry().Register("paper", PaperSynopsis());

  ASSERT_TRUE(svc.Estimate("paper", "//A[B][C]/B/D").ok());
  // Different text, same canonical key: counted as a canonical hit.
  ASSERT_TRUE(svc.Estimate("paper", " //A[C][B] / B / child::D ").ok());
  ServiceStatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.canonical_hits, 1u);
  // The alias was installed: repeating the second spelling verbatim now
  // skips the parse too.
  ASSERT_TRUE(svc.Estimate("paper", " //A[C][B] / B / child::D ").ok());
  EXPECT_EQ(svc.Stats().exact_hits, 1u);
}

TEST(ServiceTest, MemoizesUnsupportedErrors) {
  EstimationService svc({.threads = 1});
  svc.registry().Register("paper", PaperSynopsis());
  const char* q = "//A/*/following-sibling::C";  // wildcard order endpoint
  for (int i = 0; i < 2; ++i) {
    EstimateOutcome r = svc.Estimate("paper", q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  }
  ServiceStatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.exact_hits, 1u);
}

TEST(ServiceTest, ParseErrorsAreReportedAndNotCached) {
  EstimationService svc({.threads = 1});
  svc.registry().Register("paper", PaperSynopsis());
  EstimateOutcome r = svc.Estimate("paper", "A/B");  // missing leading slash
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_EQ(svc.Stats().cache_entries, 0u);
}

TEST(ServiceTest, TinyByteBudgetEvictsButStaysCorrect) {
  // 512 bytes hold only a few of the eight answers and their aliases.
  EstimationService svc({.plan_cache_bytes = 512, .cache_shards = 1,
                         .threads = 1});
  estimator::Synopsis reference = PaperSynopsis();
  svc.registry().Register("paper", PaperSynopsis());
  for (int round = 0; round < 3; ++round) {
    for (const char* q : kPaperQueries) {
      ExpectDirect(svc.Estimate("paper", q), reference, q);
    }
  }
  ServiceStatsSnapshot s = svc.Stats();
  EXPECT_GT(s.cache_evictions, 0u);
  EXPECT_LE(s.cache_bytes, 1024u);  // budget respected (one entry slack)
}

TEST(ServiceTest, SwapServesNewVersionWhileOldSnapshotsSurvive) {
  EstimationService svc({.threads = 1});
  svc.registry().Register("data", PaperSynopsis());

  const double before = svc.Estimate("data", "//A/B").value();
  EXPECT_GT(before, 0.0);

  // Hold a snapshot of the old version, as an in-flight query would.
  std::optional<SynopsisSnapshot> pinned = svc.registry().Snapshot("data");
  ASSERT_TRUE(pinned.has_value());

  // Swap in a synopsis built over a different document.
  datagen::GenOptions gen;
  gen.scale = 0.05;
  svc.registry().Register(
      "data", estimator::Synopsis::Build(datagen::GenerateXMark(gen), {}));

  // New epoch: the cached //A/B plan is not reused (XMark has no A).
  EXPECT_EQ(svc.Estimate("data", "//A/B").value(), 0.0);

  // The pinned old version still answers through a direct estimator.
  estimator::Estimator old_est(*pinned->synopsis);
  EXPECT_EQ(old_est.Estimate(xpath::ParseXPath("//A/B").value()).value(),
            before);

  // And removal keeps the pinned snapshot alive too.
  EXPECT_TRUE(svc.registry().Remove("data"));
  EXPECT_FALSE(svc.Estimate("data", "//A/B").ok());
  EXPECT_GT(pinned->synopsis->TagCount(), 0u);
}

TEST(ServiceTest, CompiledPlansMatchUncompiledEstimates) {
  // Miss, canonical hit and exact hit all serve a direct Estimate's
  // bits, errors included.
  EstimationService svc({.threads = 1});
  estimator::Synopsis reference = PaperSynopsis();
  svc.registry().Register("paper", PaperSynopsis());
  const std::pair<const char*, const char*> spellings[] = {
      {"//A/B", "//A/child::B"},
      {"//A[B/D]/C/E", "//A[child::B/D]/C/E"},
      {"//A/B/following-sibling::C", "//A/child::B/following-sibling::C"},
      {"//A/*/following-sibling::C", "//A/child::*/following-sibling::C"}};
  for (const auto& [first, respelled] : spellings) {
    for (const char* text : {first, respelled, respelled}) {
      ExpectDirect(svc.Estimate("paper", text), reference, text);
    }
  }
  const ServiceStatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.misses, std::size(spellings));
  EXPECT_EQ(s.canonical_hits, std::size(spellings));
  EXPECT_EQ(s.exact_hits, std::size(spellings));
}

TEST(ServiceTest, BatchMatchesSequentialBitForBit) {
  EstimationService svc({.threads = 4});
  estimator::Synopsis reference = PaperSynopsis();
  svc.registry().Register("paper", PaperSynopsis());

  std::vector<QueryRequest> batch;
  for (int round = 0; round < 16; ++round) {
    for (const char* q : kPaperQueries) {
      batch.push_back(QueryRequest{"paper", q});
    }
  }
  batch.push_back(QueryRequest{"missing", "//A"});

  std::vector<EstimateOutcome> got = svc.EstimateBatch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<double> want = batch[i].synopsis == "paper"
                              ? Direct(reference, batch[i].xpath)
                              : Result<double>(Status(StatusCode::kNotFound,
                                                      "unknown synopsis"));
    ASSERT_EQ(got[i].ok(), want.ok()) << batch[i].xpath;
    if (want.ok()) {
      EXPECT_EQ(got[i].value(), want.value()) << batch[i].xpath;
    } else {
      EXPECT_EQ(got[i].status().code(), want.status().code());
    }
  }
  EXPECT_EQ(svc.Stats().batches, 1u);
}

// A batch looks each tenant up once, on the caller, before any member's
// clock starts. That lookup's time lands in the snapshot stage of the
// tenant's first member in batch order (and in its wall time, so stages
// still sum within it); the other members did no lookup and show 0.
TEST(ServiceTest, BatchChargesEachTenantLookupToItsFirstMember) {
  EstimationService svc({.threads = 2, .trace_sample = 1});
  svc.registry().Register("one", PaperSynopsis());
  svc.registry().Register("two", PaperSynopsis());
  const std::vector<QueryRequest> batch = {
      {"one", "//A/B"}, {"one", "//A/C"},   {"two", "//A/B"},
      {"one", "//A/B/D"}, {"two", "//A/C"},
  };
  const std::vector<EstimateOutcome> got = svc.EstimateBatch(batch);
  ASSERT_EQ(got.size(), batch.size());
  const std::vector<obs::TraceRecord> traces = svc.traces().Recent();
  ASSERT_EQ(traces.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const obs::TraceRecord* rec = nullptr;
    for (const obs::TraceRecord& t : traces) {
      if (t.synopsis == batch[i].synopsis && t.query == batch[i].xpath) {
        rec = &t;
      }
    }
    ASSERT_NE(rec, nullptr) << i;
    const uint64_t snapshot_ns =
        rec->spans.stage_ns[static_cast<size_t>(obs::Stage::kSnapshot)];
    if (i == 0 || i == 2) {
      EXPECT_GT(snapshot_ns, 0u) << "first member of " << batch[i].synopsis;
    } else {
      EXPECT_EQ(snapshot_ns, 0u) << i;
    }
    EXPECT_LE(rec->spans.SumNs(), rec->total_ns) << i;
  }
}

TEST(ServiceTest, ConcurrentHammerMatchesSingleThreadedRuns) {
  // 8 client threads hammer single-call and batch paths against two
  // synopses while plans cache and evict; every result must equal the
  // single-threaded reference bit-for-bit. Run under TSan via
  // scripts/check_tsan.sh (-DXEE_SANITIZE=thread) to certify the
  // thread-safety contract mechanically.
  EstimationService svc(
      {.plan_cache_bytes = 16 << 10, .cache_shards = 4, .threads = 4});
  estimator::Synopsis ref_paper = PaperSynopsis();
  datagen::GenOptions gen;
  gen.scale = 0.05;
  xml::Document xmark = datagen::GenerateXMark(gen);
  estimator::Synopsis ref_xmark = estimator::Synopsis::Build(xmark, {});
  svc.registry().Register("paper", PaperSynopsis());
  svc.registry().Register("xmark", estimator::Synopsis::Build(xmark, {}));

  struct Case {
    QueryRequest req;
    double want = 0;
  };
  std::vector<Case> cases;
  for (const char* q : kPaperQueries) {
    Result<double> want = Direct(ref_paper, q);
    if (!want.ok()) continue;
    cases.push_back({QueryRequest{"paper", q}, want.value()});
  }
  for (const char* q : {"//item/name", "//people//person", "//closed_auction",
                        "//regions//item[name]/description"}) {
    Result<double> want = Direct(ref_xmark, q);
    ASSERT_TRUE(want.ok()) << q;
    cases.push_back({QueryRequest{"xmark", q}, want.value()});
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        if ((t + it) % 3 == 0) {
          std::vector<QueryRequest> batch;
          for (const Case& c : cases) batch.push_back(c.req);
          std::vector<EstimateOutcome> got = svc.EstimateBatch(batch);
          for (size_t i = 0; i < cases.size(); ++i) {
            if (!got[i].ok() || got[i].value() != cases[i].want) ++mismatches;
          }
        } else {
          const Case& c = cases[(static_cast<size_t>(t) * 31 + it) %
                                cases.size()];
          EstimateOutcome got = svc.Estimate(c.req.synopsis, c.req.xpath);
          if (!got.ok() || got.value() != c.want) ++mismatches;
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(svc.Stats().exact_hits, 0u);
}

// EstimateBatch looks each tenant up once per batch: a Register swap
// racing the batch may land before or after it, but never between two of
// one tenant's members. The two versions answer //A/B differently (the
// XMark document has no A), so a mixed batch shows as unequal values.
TEST(ServiceTest, RegisterSwapRacingBatchNeverMixesEpochsWithinATenant) {
  EstimationService svc({.threads = 4});
  auto paper = std::make_shared<const estimator::Synopsis>(PaperSynopsis());
  datagen::GenOptions gen;
  gen.scale = 0.05;
  auto xmark = std::make_shared<const estimator::Synopsis>(
      estimator::Synopsis::Build(datagen::GenerateXMark(gen), {}));
  const double on_paper = Direct(*paper, "//A/B").value();
  ASSERT_GT(on_paper, 0.0);
  svc.registry().Register("swap", paper);
  svc.registry().Register("steady", paper);

  std::vector<QueryRequest> batch;
  for (int i = 0; i < 256; ++i) {
    // Both tenants interleaved; respellings keep some members off the
    // exact-hit path.
    batch.push_back(QueryRequest{"swap", i % 2 ? "//A/B" : "//A/child::B"});
    if (i % 8 == 0) batch.push_back(QueryRequest{"steady", "//A/B"});
  }

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    for (int i = 0; !stop.load(); ++i) {
      svc.registry().Register("swap", i % 2 ? paper : xmark);
    }
  });
  int mixed = 0, failed = 0;
  for (int round = 0; round < 200; ++round) {
    const std::vector<EstimateOutcome> got = svc.EstimateBatch(batch);
    std::optional<double> swap_value;
    for (size_t i = 0; i < got.size(); ++i) {
      if (!got[i].ok()) {
        ++failed;
        continue;
      }
      if (batch[i].synopsis == "steady") {
        if (got[i].value() != on_paper) ++mixed;
      } else if (!swap_value.has_value()) {
        swap_value = got[i].value();
      } else if (got[i].value() != *swap_value) {
        ++mixed;
      }
    }
  }
  stop.store(true);
  swapper.join();
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(mixed, 0);
}

// The per-request counters live in per-thread lanes summed on read;
// after eight clients (each also running batches, whose members run on
// the caller and the pool) every total must be exact, through the stats
// snapshot and the registry rows alike.
TEST(ServiceTest, CountersAreExactAfterAnEightThreadHammer) {
  EstimationService svc({.threads = 4});
  svc.registry().Register("paper", PaperSynopsis());
  std::vector<QueryRequest> warm;
  for (const char* q : kPaperQueries) warm.push_back(QueryRequest{"paper", q});
  for (const QueryRequest& r : warm) (void)svc.Estimate(r);
  const ServiceStatsSnapshot before = svc.Stats();
  ASSERT_EQ(before.requests, warm.size());

  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 300;
  constexpr size_t kBatchEvery = 50;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t it = 0; it < kIters; ++it) {
        if (it % kBatchEvery == 0) {
          (void)svc.EstimateBatch(warm);
        } else {
          (void)svc.Estimate(warm[(t + it) % warm.size()]);
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();

  const size_t batches = kThreads * (kIters / kBatchEvery);
  const size_t singles = kThreads * kIters - batches;
  const uint64_t hammered = singles + batches * warm.size();
  const ServiceStatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.requests, before.requests + hammered);
  EXPECT_EQ(s.exact_hits, before.exact_hits + hammered);  // all warm
  EXPECT_EQ(s.canonical_hits, before.canonical_hits);
  EXPECT_EQ(s.misses, before.misses);
  EXPECT_EQ(s.batches, batches);
  const obs::Registry& r = svc.obs();
  EXPECT_EQ(r.CounterValue("service.requests"), s.requests);
  EXPECT_EQ(r.CounterValue("service.plan_cache", "outcome=exact_hit"),
            s.exact_hits);
  EXPECT_EQ(r.CounterValue("service.plan_cache", "outcome=miss"), s.misses);
  EXPECT_EQ(r.CounterValue("tenant.requests", "tenant=paper"), s.requests);
}

// ---------------------------------------------------------------------------
// Robustness: deadlines, admission control, degradation, fault injection
// (DESIGN.md §9).
// ---------------------------------------------------------------------------

TEST(ServiceTest, ResolvedThreadsNeverReturnsZero) {
  ServiceOptions opt;
  opt.threads = 0;  // "hardware default", which may report 0
  EXPECT_GE(opt.ResolvedThreads(), 1u);
  opt.threads = 3;
  EXPECT_EQ(opt.ResolvedThreads(), 3u);
}

TEST(ServiceTest, ExpiredDeadlineRejectsBeforeAnyWork) {
  EstimationService svc({.threads = 1});
  svc.registry().Register("paper", PaperSynopsis());

  QueryRequest req;
  req.synopsis = "paper";
  req.xpath = "//A[B/D]/C/E";
  req.deadline = Deadline::AlreadyExpired();
  EstimateOutcome r = svc.Estimate(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(r.degraded);

  // Rejected at the door: no parse ran, no join ran.
  ServiceStatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.parse.count, 0u);
  EXPECT_EQ(s.join.count, 0u);
  EXPECT_EQ(s.deadline_exceeded, 1u);
}

TEST(ServiceTest, EstimatorHonorsDeadlineLimits) {
  estimator::Synopsis syn = PaperSynopsis();
  estimator::Estimator est(syn);
  xpath::Query q = xpath::ParseXPath("//A[B/D]/C/E").value();

  estimator::EstimateLimits limits;
  limits.deadline = Deadline::AlreadyExpired();
  Result<double> r = est.Estimate(q, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  // An infinite deadline is the historical behavior, bit-for-bit.
  EXPECT_EQ(est.Estimate(q).value(), est.Estimate(q, {}).value());
}

TEST(ServiceTest, BatchBeyondInflightCapShedsDeterministically) {
  EstimationService svc({.threads = 1, .max_inflight = 2,
                         .retry_after_ms = 2});
  svc.registry().Register("paper", PaperSynopsis());

  std::vector<QueryRequest> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(QueryRequest{"paper", "//A/B"});
  std::vector<EstimateOutcome> got = svc.EstimateBatch(batch);
  ASSERT_EQ(got.size(), 5u);

  // The admitted prefix is served; the tail sheds with escalating hints.
  EXPECT_TRUE(got[0].ok());
  EXPECT_TRUE(got[1].ok());
  uint32_t prev_hint = 0;
  for (size_t i = 2; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].shed) << i;
    EXPECT_EQ(got[i].status().code(), StatusCode::kOverloaded) << i;
    EXPECT_GT(got[i].retry_after_ms, prev_hint) << i;
    prev_hint = got[i].retry_after_ms;
  }

  ServiceStatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.shed, 3u);
  EXPECT_EQ(s.requests, 5u);

  // Slots were released: the next request is admitted again.
  EXPECT_TRUE(svc.Estimate("paper", "//A/B").ok());
}

TEST(ServiceTest, CorruptBlobQuarantinesUntilGoodVersionArrives) {
  EstimationService svc({.threads = 1});
  const std::string good = PaperSynopsis().Serialize();
  svc.registry().Register("paper", PaperSynopsis());
  ASSERT_TRUE(svc.Estimate("paper", "//A/B").ok());

  // Zero the tag count: structurally unsalvageable.
  std::string bad = good;
  bad[8] = bad[9] = bad[10] = bad[11] = 0;
  LoadOutcome lo = svc.registry().RegisterSerialized("paper", bad);
  ASSERT_FALSE(lo.ok());
  ASSERT_TRUE(svc.registry().Quarantined("paper").has_value());

  EstimateOutcome r = svc.Estimate("paper", "//A/B");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(svc.Stats().quarantined, 1u);

  // One quarantined member cannot poison a batch.
  svc.registry().Register("other", PaperSynopsis());
  std::vector<QueryRequest> batch = {QueryRequest{"paper", "//A/B"},
                                     QueryRequest{"other", "//A/B"}};
  std::vector<EstimateOutcome> got = svc.EstimateBatch(batch);
  EXPECT_FALSE(got[0].ok());
  EXPECT_TRUE(got[1].ok());

  // A clean reload lifts the quarantine.
  LoadOutcome fixed = svc.registry().RegisterSerialized("paper", good);
  ASSERT_TRUE(fixed.ok());
  EXPECT_FALSE(fixed.order_dropped);
  EXPECT_FALSE(svc.registry().Quarantined("paper").has_value());
  EXPECT_TRUE(svc.Estimate("paper", "//A/B").ok());
}

TEST(ServiceTest, CorruptOrderSectionDegradesInsteadOfDying) {
  xml::Document doc = testing::MakePaperDocument();
  estimator::SynopsisOptions with_order;
  with_order.build_values = false;
  estimator::SynopsisOptions without_order = with_order;
  without_order.build_order = false;
  const std::string order_blob =
      estimator::Synopsis::Build(doc, with_order).Serialize();
  const std::string no_order_blob =
      estimator::Synopsis::Build(doc, without_order).Serialize();

  // The two blobs agree byte-for-byte up to the order flag, so the
  // no-order blob's length locates the first o-histogram bucket count in
  // the order blob. Stamping it 0xFFFFFFFF (over the 2^26 cap) corrupts
  // the order section and nothing before it.
  const size_t prefix = no_order_blob.size() - 2;
  ASSERT_EQ(order_blob.compare(0, prefix, no_order_blob, 0, prefix), 0);
  std::string corrupt = order_blob;
  for (size_t i = prefix + 1; i <= prefix + 4; ++i) {
    corrupt[i] = static_cast<char>(0xFF);
  }

  // Strict deserialization refuses the blob outright...
  ASSERT_FALSE(estimator::Synopsis::Deserialize(corrupt).ok());

  // ...but the registry salvages it order-free.
  EstimationService svc({.threads = 1});
  LoadOutcome lo = svc.registry().RegisterSerialized("paper", corrupt);
  ASSERT_TRUE(lo.ok()) << lo.status.ToString();
  EXPECT_TRUE(lo.order_dropped);

  // Order-free queries never depended on the dropped section: they
  // answer bit-identical to the intact synopsis, at full fidelity.
  estimator::Synopsis reference = estimator::Synopsis::Build(doc, with_order);
  EstimateOutcome plain = svc.Estimate("paper", "//A/B/D");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.degraded);
  EXPECT_EQ(plain.value(), Direct(reference, "//A/B/D").value());

  // An order query falls back to the order-free base estimate.
  const char* order_query = "//A/B/following-sibling::C";
  xpath::Query base =
      xpath::Canonicalize(xpath::ParseXPath(order_query).value());
  base.orders.clear();
  EstimateOutcome fell_back = svc.Estimate("paper", order_query);
  ASSERT_TRUE(fell_back.ok());
  EXPECT_TRUE(fell_back.degraded);
  EXPECT_EQ(fell_back.value(),
            estimator::Estimator(reference).Estimate(base).value());
  EXPECT_GE(svc.Stats().degraded, 1u);

  // A full-fidelity-only client is told the truth instead.
  QueryRequest strict;
  strict.synopsis = "paper";
  strict.xpath = order_query;
  strict.allow_degraded = false;
  EstimateOutcome refused = svc.Estimate(strict);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(refused.degraded);
}

TEST(ServiceTest, MissingOrderStatsDegradeOrderQueries) {
  estimator::SynopsisOptions no_order;
  no_order.build_order = false;
  EstimationService svc({.threads = 1});
  svc.registry().Register(
      "paper",
      estimator::Synopsis::Build(testing::MakePaperDocument(), no_order));

  const char* order_query = "//A/B/following-sibling::C";
  EstimateOutcome r = svc.Estimate("paper", order_query);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.degraded);

  // Warm path: the degraded plan is cached and stays flagged.
  EstimateOutcome warm = svc.Estimate("paper", order_query);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.degraded);
  EXPECT_EQ(warm.value(), r.value());
  EXPECT_GT(svc.Stats().exact_hits, 0u);

  QueryRequest strict;
  strict.synopsis = "paper";
  strict.xpath = order_query;
  strict.allow_degraded = false;
  EstimateOutcome refused = svc.Estimate(strict);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnsupported);

  // Non-order queries are full fidelity on the same synopsis.
  EstimateOutcome plain = svc.Estimate("paper", "//A/B");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.degraded);
}

TEST(ServiceTest, DeadlineFaultForcesDegradedFallback) {
  EstimationService svc({.threads = 1});
  svc.registry().Register("paper", PaperSynopsis());

  // Fire exactly once, at the second deadline consultation: the
  // admission-time check survives (skip=1), compilation's upfront check
  // trips, and the order-free fallback runs to completion (max_fires=1).
  FaultConfig cfg;
  cfg.probability = 1.0;
  cfg.skip = 1;
  cfg.max_fires = 1;
  ScopedFault fault(std::string(Deadline::kFaultSite), cfg);

  QueryRequest req;
  req.synopsis = "paper";
  req.xpath = "//A/B/following-sibling::C";
  req.deadline = Deadline::AfterMs(60 * 1000);  // finite: the fault applies
  EstimateOutcome r = svc.Estimate(req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.degraded);

  // The fallback value is the order-free base estimate.
  estimator::Synopsis reference = PaperSynopsis();
  xpath::Query base =
      xpath::Canonicalize(xpath::ParseXPath(req.xpath).value());
  base.orders.clear();
  EXPECT_EQ(r.value(), estimator::Estimator(reference).Estimate(base).value());

  // With faults cleared, the same request serves full fidelity: the
  // deadline-forced fallback never aliased the exact-string key.
  EstimateOutcome full = svc.Estimate(req);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full.degraded);
  EXPECT_EQ(full.value(), Direct(reference, req.xpath).value());
}

TEST(ServiceTest, InjectedAllocationFailureIsTransient) {
  EstimationService svc({.threads = 1});
  svc.registry().Register("paper", PaperSynopsis());
  {
    FaultConfig cfg;
    cfg.probability = 1.0;
    cfg.max_fires = 1;
    ScopedFault fault(std::string(estimator::Estimator::kAllocFaultSite), cfg);
    EstimateOutcome r = svc.Estimate("paper", "//A/B");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  }
  // The failure was not cached; the retry succeeds.
  EXPECT_TRUE(svc.Estimate("paper", "//A/B").ok());
}

TEST(ServiceTest, SlowWorkerFaultDoesNotChangeAnswers) {
  EstimationService svc({.threads = 2});
  estimator::Synopsis reference = PaperSynopsis();
  svc.registry().Register("paper", PaperSynopsis());

  FaultConfig cfg;
  cfg.probability = 1.0;
  cfg.payload = 2;  // each fire sleeps the worker 2ms
  cfg.max_fires = 4;
  ScopedFault fault(std::string(ThreadPool::kSlowWorkerFaultSite), cfg);

  std::vector<QueryRequest> batch;
  for (const char* q : kPaperQueries) batch.push_back(QueryRequest{"paper", q});
  std::vector<EstimateOutcome> got = svc.EstimateBatch(batch);
  ASSERT_EQ(got.size(), std::size(kPaperQueries));
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectDirect(got[i], reference, batch[i].xpath);
  }
}

// Registry mutation, quarantine, and serving racing under injected blob
// bit-rot. The oracle is freedom from crashes/races (run under TSan via
// scripts/check_tsan.sh) plus a closed status surface on every outcome.
TEST(ServiceTest, ConcurrentRegistryChaosUnderFaultInjection) {
  EstimationService svc({.plan_cache_bytes = 16u << 10, .cache_shards = 2,
                         .threads = 2, .max_inflight = 8});
  const std::string blob = PaperSynopsis().Serialize();
  svc.registry().Register("paper", PaperSynopsis());

  FaultConfig rot;
  rot.probability = 0.5;
  rot.payload = (uint64_t{3} << 32) | 977;  // flip bit 3 of byte 977 % size
  rot.seed = 7;
  ScopedFault fault(std::string(SynopsisRegistry::kBitrotFaultSite), rot);

  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < 60; ++i) {
        const double roll = rng.UniformDouble();
        if (roll < 0.25) {
          (void)svc.registry().RegisterSerialized("paper", blob);
        } else if (roll < 0.30) {
          (void)svc.registry().Remove("paper");
        } else if (roll < 0.40) {
          (void)svc.registry().Snapshot("paper");
          (void)svc.registry().Quarantined("paper");
        } else {
          QueryRequest req;
          req.synopsis = "paper";
          req.xpath = (i % 2) ? "//A/B" : "//A/B/following-sibling::C";
          req.allow_degraded = rng.Bernoulli(0.5);
          if (rng.Bernoulli(0.2)) req.deadline = Deadline::AfterMicros(50);
          EstimateOutcome r = svc.Estimate(req);
          const StatusCode c = r.status().code();
          const bool legal =
              c == StatusCode::kOk || c == StatusCode::kNotFound ||
              c == StatusCode::kUnavailable ||
              c == StatusCode::kDeadlineExceeded ||
              c == StatusCode::kOverloaded || c == StatusCode::kUnsupported;
          if (!legal) ++violations;
          if (r.ok() && (!std::isfinite(r.value()) || r.value() < 0)) {
            ++violations;
          }
          if (!req.allow_degraded && r.degraded) ++violations;
          if (r.shed != (c == StatusCode::kOverloaded)) ++violations;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
}

// --- answer cache (DESIGN.md §7) ------------------------------------

TEST(ServiceTest, MemoServesRepeatsAfterPlanEviction) {
  // Answers are ~100-byte entries: a 4 KB budget, once barely two
  // compiled plans, holds every answer and alias of the paper queries,
  // so the repeat pass never re-estimates.
  EstimationService svc({.plan_cache_bytes = 4096, .cache_shards = 1,
                         .threads = 1});
  estimator::Synopsis reference = PaperSynopsis();
  svc.registry().Register("paper", PaperSynopsis());

  for (const char* q : kPaperQueries) (void)svc.Estimate("paper", q);
  const uint64_t misses_cold = svc.Stats().misses;
  for (const char* q : kPaperQueries) {
    ExpectDirect(svc.Estimate("paper", q), reference, q);
  }
  const ServiceStatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.misses, misses_cold);
  EXPECT_EQ(s.exact_hits, std::size(kPaperQueries));
  EXPECT_EQ(s.cache_evictions, 0u);
  EXPECT_GT(s.cache_bytes, 0u);
}

TEST(ServiceTest, MemoDisabledByZeroBudgetStaysCorrect) {
  EstimationService svc({.plan_cache_bytes = 0, .cache_shards = 1,
                         .threads = 1});
  estimator::Synopsis reference = PaperSynopsis();
  svc.registry().Register("paper", PaperSynopsis());
  for (int pass = 0; pass < 2; ++pass) {
    for (const char* q : kPaperQueries) {
      ExpectDirect(svc.Estimate("paper", q), reference, q);
    }
  }
  EXPECT_EQ(svc.Stats().cache_entries, 1u);  // the last answer's alias
}

TEST(ServiceTest, MemoEntriesDieWithTheirEpoch) {
  EstimationService svc({.threads = 1});
  svc.registry().Register("paper", PaperSynopsis());
  (void)svc.Estimate("paper", "//A/B");
  (void)svc.Estimate("paper", "//A/B");
  EXPECT_EQ(svc.Stats().exact_hits, 1u);

  // Same synopsis, new epoch: the old entries are unreachable (the epoch
  // is part of every key), so the next request estimates afresh.
  svc.registry().Register("paper", PaperSynopsis());
  (void)svc.Estimate("paper", "//A/B");
  EXPECT_EQ(svc.Stats().exact_hits, 1u);
  EXPECT_EQ(svc.Stats().misses, 2u);
}

TEST(ServiceTest, DegradedMemoNeverLeaksIntoStrictRequests) {
  estimator::SynopsisOptions no_order;
  no_order.build_order = false;
  EstimationService svc({.threads = 1});
  svc.registry().Register(
      "paper",
      estimator::Synopsis::Build(testing::MakePaperDocument(), no_order));

  // A degraded answer cached under its 'd' key and its exact alias
  // serves the repeat and a respelling, both still flagged degraded.
  const char* order_query = "//A/B/following-sibling::C";
  const char* respelled = "//A/child::B/following-sibling::C";
  EstimateOutcome first = svc.Estimate("paper", order_query);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.degraded);
  for (const char* text : {order_query, respelled}) {
    EstimateOutcome hit = svc.Estimate("paper", text);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.degraded);
    EXPECT_EQ(hit.value(), first.value());
  }
  EXPECT_EQ(svc.Stats().exact_hits, 1u);
  EXPECT_EQ(svc.Stats().canonical_hits, 1u);

  // Strict requests are refused under either spelling: the cached
  // answer exists but is only reachable once degradation is permitted.
  for (const char* text : {order_query, respelled}) {
    const QueryRequest strict{"paper", text, Deadline{}, false};
    EstimateOutcome refused = svc.Estimate(strict);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kUnsupported);
  }
}

TEST(ServiceTest, ClearPlanCacheAlsoClearsTheMemo) {
  EstimationService svc({.threads = 1});
  svc.registry().Register("paper", PaperSynopsis());
  (void)svc.Estimate("paper", "//A/B");
  EXPECT_EQ(svc.Stats().cache_entries, 2u);  // canonical entry + alias
  svc.ClearPlanCache();
  EXPECT_EQ(svc.Stats().cache_entries, 0u);
  EXPECT_EQ(svc.Stats().cache_bytes, 0u);
  // Still answers correctly after the flush, as a miss.
  EXPECT_TRUE(svc.Estimate("paper", "//A/B").ok());
  EXPECT_EQ(svc.Stats().misses, 2u);
}

TEST(ServiceTest, RespelledRepeatIsAnExactHit) {
  EstimationService svc;  // production defaults
  svc.registry().Register("paper", PaperSynopsis());
  ASSERT_TRUE(svc.Estimate("paper", "//A/B/D").ok());
  // The canonical hit files the respelling under its exact string.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(svc.Estimate("paper", "//A/child::B/D").ok());
  }
  const ServiceStatsSnapshot s = svc.Stats();
  EXPECT_EQ(s.canonical_hits, 1u);
  EXPECT_EQ(s.exact_hits, 1u);
}

}  // namespace
}  // namespace xee::service
