#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.h"
#include "histogram/o_histogram.h"
#include "histogram/p_histogram.h"

namespace xee::histogram {
namespace {

using stats::OrderRegion;
using stats::PidFreq;

// --- PHistogram ---------------------------------------------------------

// Figure 7: list {(p2,2),(p3,2),(p1,5),(p5,7)}.
std::vector<PidFreq> Figure7List() {
  return {{2, 2}, {3, 2}, {1, 5}, {5, 7}};
}

TEST(PHistogram, PaperFigure7VarianceZero) {
  PHistogram h = PHistogram::Build(Figure7List(), 0);
  // P-Histogram1: {p2,p3} avg 2, {p1} avg 5, {p5} avg 7.
  ASSERT_EQ(h.BucketCount(), 3u);
  EXPECT_EQ(h.buckets()[0].pids, (std::vector<encoding::PidRef>{2, 3}));
  EXPECT_DOUBLE_EQ(h.buckets()[0].avg_freq, 2);
  EXPECT_EQ(h.buckets()[1].pids, (std::vector<encoding::PidRef>{1}));
  EXPECT_DOUBLE_EQ(h.buckets()[1].avg_freq, 5);
  EXPECT_EQ(h.buckets()[2].pids, (std::vector<encoding::PidRef>{5}));
  EXPECT_DOUBLE_EQ(h.buckets()[2].avg_freq, 7);
}

TEST(PHistogram, PaperFigure7VarianceOne) {
  PHistogram h = PHistogram::Build(Figure7List(), 1);
  // P-Histogram2: {p2,p3} avg 2, {p1,p5} avg 6.
  ASSERT_EQ(h.BucketCount(), 2u);
  EXPECT_EQ(h.buckets()[0].pids, (std::vector<encoding::PidRef>{2, 3}));
  EXPECT_DOUBLE_EQ(h.buckets()[0].avg_freq, 2);
  EXPECT_EQ(h.buckets()[1].pids, (std::vector<encoding::PidRef>{1, 5}));
  EXPECT_DOUBLE_EQ(h.buckets()[1].avg_freq, 6);
}

TEST(PHistogram, VarianceZeroIsExact) {
  std::vector<PidFreq> list = {{1, 3}, {2, 3}, {3, 9}, {4, 1}, {5, 9}};
  PHistogram h = PHistogram::Build(list, 0);
  for (const PidFreq& pf : list) {
    EXPECT_DOUBLE_EQ(h.Frequency(pf.pid), static_cast<double>(pf.freq));
  }
}

TEST(PHistogram, LookupUnknownPidIsZero) {
  PHistogram h = PHistogram::Build(Figure7List(), 0);
  EXPECT_DOUBLE_EQ(h.Frequency(42), 0);
  EXPECT_FALSE(h.HasPid(42));
  EXPECT_TRUE(h.HasPid(2));
}

TEST(PHistogram, HugeVarianceYieldsSingleBucket) {
  PHistogram h = PHistogram::Build(Figure7List(), 1e9);
  ASSERT_EQ(h.BucketCount(), 1u);
  EXPECT_DOUBLE_EQ(h.buckets()[0].avg_freq, 4);  // (2+2+5+7)/4
}

TEST(PHistogram, EmptyList) {
  PHistogram h = PHistogram::Build({}, 0);
  EXPECT_EQ(h.BucketCount(), 0u);
  EXPECT_EQ(h.SizeBytes(), 0u);
}

TEST(PHistogram, PidsInOrderConcatenatesBuckets) {
  PHistogram h = PHistogram::Build(Figure7List(), 1);
  EXPECT_EQ(h.PidsInOrder(), (std::vector<encoding::PidRef>{2, 3, 1, 5}));
}

TEST(PHistogram, SizeDecreasesWithVariance) {
  std::vector<PidFreq> list;
  for (uint32_t i = 1; i <= 100; ++i) list.push_back({i, i});
  size_t prev = SIZE_MAX;
  for (double v : {0.0, 2.0, 8.0, 32.0}) {
    PHistogram h = PHistogram::Build(list, v);
    EXPECT_LE(h.SizeBytes(), prev);
    prev = h.SizeBytes();
  }
}

TEST(PHistogram, BucketsRespectVarianceThreshold) {
  std::vector<PidFreq> list;
  for (uint32_t i = 1; i <= 50; ++i) list.push_back({i, (i * 37) % 23});
  const double v = 3.0;
  PHistogram h = PHistogram::Build(list, v);
  // Recheck the invariant bucket by bucket against raw frequencies.
  std::map<encoding::PidRef, uint64_t> raw;
  for (const auto& pf : list) raw[pf.pid] = pf.freq;
  for (const auto& b : h.buckets()) {
    double sum = 0, sum_sq = 0;
    for (auto pid : b.pids) {
      double f = static_cast<double>(raw[pid]);
      sum += f;
      sum_sq += f * f;
    }
    double k = static_cast<double>(b.pids.size());
    double sd = std::sqrt(std::max(0.0, sum_sq / k - (sum / k) * (sum / k)));
    EXPECT_LE(sd, v + 1e-9);
    EXPECT_NEAR(b.avg_freq, sum / k, 1e-9);
  }
}

TEST(PHistogramEquiCount, MatchesBucketCountAndMemory) {
  std::vector<PidFreq> list;
  for (uint32_t i = 1; i <= 40; ++i) list.push_back({i, (i * 13) % 29 + 1});
  PHistogram var = PHistogram::Build(list, 3.0);
  PHistogram eq = PHistogram::BuildEquiCount(list, var.BucketCount());
  EXPECT_EQ(eq.BucketCount(), var.BucketCount());
  EXPECT_EQ(eq.SizeBytes(), var.SizeBytes());
  // Partition property holds.
  size_t total = 0;
  for (const auto& b : eq.buckets()) total += b.pids.size();
  EXPECT_EQ(total, list.size());
}

TEST(PHistogramEquiCount, ClampsBucketCount) {
  std::vector<PidFreq> list = {{1, 5}, {2, 7}};
  PHistogram h = PHistogram::BuildEquiCount(list, 100);
  EXPECT_EQ(h.BucketCount(), 2u);
  PHistogram h0 = PHistogram::BuildEquiCount(list, 0);
  EXPECT_EQ(h0.BucketCount(), 1u);
  EXPECT_DOUBLE_EQ(h0.Frequency(1), 6);
}

TEST(PHistogramFromBuckets, RebuildsLookup) {
  PHistogram h = PHistogram::Build(Figure7List(), 1);
  PHistogram h2 = PHistogram::FromBuckets(
      std::vector<PHistogram::Bucket>(h.buckets().begin(),
                                      h.buckets().end()));
  EXPECT_EQ(h2.PidsInOrder(), h.PidsInOrder());
  for (auto pid : h.PidsInOrder()) {
    EXPECT_DOUBLE_EQ(h2.Frequency(pid), h.Frequency(pid));
  }
}

// --- OHistogram ---------------------------------------------------------

// A tiny fixture: 3 tags (ranks 0..2), tag X has pids {10, 11, 12} in
// column order.
struct OGrid {
  std::vector<uint32_t> ranks = {0, 1, 2};
  std::vector<encoding::PidRef> cols = {10, 11, 12};
  stats::PathOrderTable table;
};

TEST(OHistogram, ExactAtVarianceZero) {
  OGrid g;
  g.table.Add(OrderRegion::kBefore, 1, 10, 4);
  g.table.Add(OrderRegion::kBefore, 1, 11, 4);
  g.table.Add(OrderRegion::kAfter, 2, 12, 9);
  OHistogram h = OHistogram::Build(g.table, g.ranks, g.cols, 0);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 1, 10), 4);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 1, 11), 4);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kAfter, 2, 12), 9);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 2, 10), 0);
  // Equal adjacent cells merge even at variance 0.
  EXPECT_EQ(h.BucketCount(), 2u);
}

TEST(OHistogram, RunStopsAtEmptyCell) {
  OGrid g;
  g.table.Add(OrderRegion::kBefore, 0, 10, 5);
  // column 11 empty
  g.table.Add(OrderRegion::kBefore, 0, 12, 5);
  OHistogram h = OHistogram::Build(g.table, g.ranks, g.cols, 10);
  EXPECT_EQ(h.BucketCount(), 2u);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 0, 11), 0);
}

TEST(OHistogram, BoxExtendsAcrossRows) {
  OGrid g;
  // Two adjacent rows (tags 0 and 1 in the before region), same column
  // span, close values -> one bucket at a loose threshold.
  g.table.Add(OrderRegion::kBefore, 0, 10, 5);
  g.table.Add(OrderRegion::kBefore, 0, 11, 6);
  g.table.Add(OrderRegion::kBefore, 1, 10, 5);
  g.table.Add(OrderRegion::kBefore, 1, 11, 6);
  OHistogram h = OHistogram::Build(g.table, g.ranks, g.cols, 1);
  EXPECT_EQ(h.BucketCount(), 1u);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 1, 11), 5.5);
}

TEST(OHistogram, BoxNeverCrossesRegionBoundary) {
  OGrid g;
  // Last row of the before block and first row of the after block.
  g.table.Add(OrderRegion::kBefore, 2, 10, 7);
  g.table.Add(OrderRegion::kAfter, 0, 10, 7);
  OHistogram h = OHistogram::Build(g.table, g.ranks, g.cols, 100);
  EXPECT_EQ(h.BucketCount(), 2u);
}

TEST(OHistogram, VarianceLimitsBoxGrowth) {
  OGrid g;
  g.table.Add(OrderRegion::kBefore, 0, 10, 1);
  g.table.Add(OrderRegion::kBefore, 0, 11, 100);
  OHistogram h0 = OHistogram::Build(g.table, g.ranks, g.cols, 0);
  EXPECT_EQ(h0.BucketCount(), 2u);
  OHistogram h100 = OHistogram::Build(g.table, g.ranks, g.cols, 100);
  EXPECT_EQ(h100.BucketCount(), 1u);
  EXPECT_DOUBLE_EQ(h100.Get(OrderRegion::kBefore, 0, 10), 50.5);
}

TEST(OHistogram, SizeShrinksWithVariance) {
  OGrid g;
  uint64_t v = 1;
  for (uint32_t t = 0; t < 3; ++t) {
    for (encoding::PidRef p : g.cols) {
      g.table.Add(OrderRegion::kBefore, t, p, v);
      v = v * 3 % 17 + 1;
    }
  }
  OHistogram tight = OHistogram::Build(g.table, g.ranks, g.cols, 0);
  OHistogram loose = OHistogram::Build(g.table, g.ranks, g.cols, 50);
  EXPECT_LE(loose.SizeBytes(), tight.SizeBytes());
  EXPECT_LE(loose.BucketCount(), tight.BucketCount());
}

TEST(OHistogram, EmptyTable) {
  OGrid g;
  OHistogram h = OHistogram::Build(g.table, g.ranks, g.cols, 0);
  EXPECT_EQ(h.BucketCount(), 0u);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 0, 10), 0);
}

TEST(OHistogram, UnknownPidOrTagIsZero) {
  OGrid g;
  g.table.Add(OrderRegion::kBefore, 0, 10, 5);
  OHistogram h = OHistogram::Build(g.table, g.ranks, g.cols, 0);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 99, 10), 0);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 0, 999), 0);
}

TEST(OHistogram, IndexedGetMatchesFirstCoverScan) {
  // Differential check of the per-row interval index in Get against the
  // reference semantics: scan buckets() in order, return the first cover.
  Rng rng(2024);
  for (int round = 0; round < 60; ++round) {
    const uint32_t tags = 1 + rng.Index(5);
    std::vector<uint32_t> ranks(tags);
    for (uint32_t i = 0; i < tags; ++i) ranks[i] = i;
    const uint32_t npids = 1 + rng.Index(6);
    std::vector<encoding::PidRef> cols;
    for (uint32_t i = 0; i < npids; ++i) cols.push_back(100 + i);
    stats::PathOrderTable table;
    const size_t entries = rng.Index(14);
    for (size_t e = 0; e < entries; ++e) {
      table.Add(rng.Index(2) != 0 ? OrderRegion::kAfter : OrderRegion::kBefore,
                static_cast<xml::TagId>(rng.Index(tags)),
                static_cast<encoding::PidRef>(100 + rng.Index(npids)),
                1 + rng.Index(9));
    }
    const double variance = static_cast<double>(rng.Index(4)) * 0.7;
    OHistogram h = OHistogram::Build(table, ranks, cols, variance);
    for (OrderRegion region : {OrderRegion::kBefore, OrderRegion::kAfter}) {
      for (uint32_t tag = 0; tag < tags; ++tag) {
        for (uint32_t c = 0; c < npids; ++c) {
          const uint32_t row =
              (region == OrderRegion::kAfter ? tags : 0) + ranks[tag];
          double naive = 0;
          for (const OHistogram::Bucket& b : h.buckets()) {
            if (b.x1 <= c && c <= b.x2 && b.y1 <= row && row <= b.y2) {
              naive = b.avg_freq;
              break;
            }
          }
          EXPECT_DOUBLE_EQ(h.Get(region, tag, cols[c]), naive)
              << "round " << round << " region "
              << (region == OrderRegion::kAfter) << " tag " << tag << " col "
              << c;
        }
      }
    }
  }
}

TEST(OHistogram, OverlappingDeserializedBucketsKeepFirstMatch) {
  // Build never emits overlapping boxes, but FromBuckets accepts
  // adversarial lists; the index must preserve the historical
  // first-match-wins scan semantics there too.
  std::vector<uint32_t> ranks = {0, 1, 2};
  std::vector<encoding::PidRef> cols = {10, 11, 12};
  std::vector<OHistogram::Bucket> bs = {
      {0, 0, 1, 1, 5.0},
      {1, 0, 2, 2, 9.0},  // overlaps the first on row 0-1 x col 1
  };
  OHistogram h = OHistogram::FromBuckets(bs, ranks, cols);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 0, 11), 5.0);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 0, 12), 9.0);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 2, 11), 9.0);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kBefore, 2, 10), 0.0);
  EXPECT_DOUBLE_EQ(h.Get(OrderRegion::kAfter, 2, 11), 0.0);
}

// The row walk behind the estimator's order-cell sums: on random
// adversarial bucket lists (overlapping boxes, rows past the grid) and
// random pid sequences (unsorted, repeated, with pids the tag does not
// have), RowSum equals the in-order sum of Get bit for bit, and where
// boxes overlap the earliest-inserted one keeps the cell.
TEST(OHistogram, RowWalkEqualsSumOfGetBitForBit) {
  Rng rng(0x50a7);
  for (int round = 0; round < 200; ++round) {
    const uint32_t tags = 1 + static_cast<uint32_t>(rng.Index(4));
    std::vector<uint32_t> ranks(tags);
    for (uint32_t i = 0; i < tags; ++i) ranks[i] = tags - 1 - i;
    const uint32_t npids = 1 + static_cast<uint32_t>(rng.Index(12));
    std::vector<encoding::PidRef> cols;
    for (uint32_t i = 0; i < npids; ++i) {
      cols.push_back(static_cast<encoding::PidRef>(20 + 3 * i));
    }
    std::vector<OHistogram::Bucket> bs;
    const size_t nb = rng.Index(8);
    for (size_t b = 0; b < nb; ++b) {
      const uint32_t x1 = static_cast<uint32_t>(rng.Index(npids));
      const uint32_t y1 = static_cast<uint32_t>(rng.Index(2 * tags + 1));
      bs.push_back({x1, y1,
                    x1 + static_cast<uint32_t>(rng.Index(npids - x1)),
                    y1 + static_cast<uint32_t>(rng.Index(3)),
                    0.1 + static_cast<double>(rng.Index(1000)) / 7.0});
    }
    const OHistogram h = OHistogram::FromBuckets(bs, ranks, cols);
    // Mostly ascending runs, as the estimator's candidate lists are,
    // with occasional steps back, repeats and foreign pids.
    std::vector<encoding::PidRef> pids;
    const size_t n = rng.Index(16);
    for (size_t k = 0; k < n; ++k) {
      if (rng.Index(5) == 0) {
        pids.push_back(static_cast<encoding::PidRef>(1 + rng.Index(80)));
      } else if (!pids.empty() && rng.Index(2) == 0) {
        pids.push_back(pids.back() + 3);
      } else {
        pids.push_back(cols[rng.Index(npids)]);
      }
    }
    for (OrderRegion region : {OrderRegion::kBefore, OrderRegion::kAfter}) {
      for (uint32_t tag = 0; tag <= tags; ++tag) {  // tag == tags: unknown
        double want = 0;
        for (encoding::PidRef pid : pids) want += h.Get(region, tag, pid);
        const double got =
            h.RowSum(region, tag, pids.begin(), pids.end(),
                     [](encoding::PidRef pid) { return pid; });
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << "round " << round << " tag " << tag;
      }
    }
  }

  // Overlap: the earlier bucket keeps the shared cell in both forms.
  const std::vector<uint32_t> ranks = {0, 1};
  const std::vector<encoding::PidRef> cols = {10, 11, 12};
  const OHistogram h = OHistogram::FromBuckets(
      {{0, 0, 1, 0, 5.0}, {1, 0, 2, 0, 9.0}}, ranks, cols);
  const std::vector<encoding::PidRef> pids = {10, 11, 12, 11};
  EXPECT_EQ(h.RowSum(OrderRegion::kBefore, 0, pids.begin(), pids.end(),
                     [](encoding::PidRef pid) { return pid; }),
            5.0 + 5.0 + 9.0 + 5.0);
}

// A cell is found by its pid's position in the column order, not by the
// pid's value: pids out of value order, far apart (up to the top of the
// PidRef range), listed twice (the first column counts) or absent.
TEST(OHistogram, CellsFollowTheColumnOrderOfFarApartPids) {
  const std::vector<uint32_t> ranks = {0};
  const std::vector<encoding::PidRef> cols = {4000000000u, 7, 90000, 7,
                                              UINT32_MAX, 0};
  std::vector<OHistogram::Bucket> bs;
  for (uint32_t c = 0; c < cols.size(); ++c) {
    bs.push_back({c, 0, c, 0, 1.0 + c});
  }
  const OHistogram h = OHistogram::FromBuckets(bs, ranks, cols);
  EXPECT_EQ(h.Get(OrderRegion::kBefore, 0, 4000000000u), 1.0);
  EXPECT_EQ(h.Get(OrderRegion::kBefore, 0, 7), 2.0);
  EXPECT_EQ(h.Get(OrderRegion::kBefore, 0, 90000), 3.0);
  EXPECT_EQ(h.Get(OrderRegion::kBefore, 0, UINT32_MAX), 5.0);
  EXPECT_EQ(h.Get(OrderRegion::kBefore, 0, 0), 6.0);
  for (encoding::PidRef absent : {1u, 8u, 89999u, 4000000001u}) {
    EXPECT_EQ(h.Get(OrderRegion::kBefore, 0, absent), 0.0) << absent;
  }
  const std::vector<encoding::PidRef> pids = {4000000000u, 7, 8, 90000,
                                              UINT32_MAX, 0};
  EXPECT_EQ(h.RowSum(OrderRegion::kBefore, 0, pids.begin(), pids.end(),
                     [](encoding::PidRef pid) { return pid; }),
            1.0 + 2.0 + 0.0 + 3.0 + 5.0 + 6.0);
}

}  // namespace
}  // namespace xee::histogram
