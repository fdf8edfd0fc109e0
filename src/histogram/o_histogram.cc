#include "histogram/o_histogram.h"

#include <algorithm>
#include <cmath>

namespace xee::histogram {
namespace {

/// Incremental mean/variance accumulator over cell values.
struct Welford {
  double sum = 0;
  double sum_sq = 0;
  size_t n = 0;

  void Add(double v) {
    sum += v;
    sum_sq += v * v;
    ++n;
  }
  double Mean() const { return n == 0 ? 0 : sum / static_cast<double>(n); }
  /// Mean squared deviation (the paper's variance is its square root).
  double Msd() const {
    if (n == 0) return 0;
    double m = Mean();
    return std::max(0.0, sum_sq / static_cast<double>(n) - m * m);
  }
};

}  // namespace

OHistogram OHistogram::Build(const stats::PathOrderTable& table,
                             const std::vector<uint32_t>& row_of_tag,
                             const std::vector<encoding::PidRef>& col_order,
                             double variance_threshold) {
  XEE_CHECK(variance_threshold >= 0);
  OHistogram h;
  h.row_of_tag_ = row_of_tag;
  h.IndexColumns(col_order);
  if (table.rows().empty() || col_order.empty()) return h;

  const size_t tag_count = row_of_tag.size();
  const size_t num_rows = 2 * tag_count;
  const size_t num_cols = col_order.size();

  // Materialize the dense grid (rows x cols) of frequencies.
  std::vector<std::vector<double>> grid(num_rows,
                                        std::vector<double>(num_cols, 0));
  std::vector<std::vector<bool>> nonempty(num_rows,
                                          std::vector<bool>(num_cols, false));
  for (const auto& [key, cells] : table.rows()) {
    size_t row = (key.region == stats::OrderRegion::kAfter ? tag_count : 0) +
                 row_of_tag[key.other_tag];
    for (const auto& [pid, count] : cells) {
      const uint32_t col = h.Column(pid);
      XEE_CHECK_MSG(col != kNoColumn,
                    "path-order pid missing from p-histogram column order");
      grid[row][col] = static_cast<double>(count);
      nonempty[row][col] = true;
    }
  }

  std::vector<std::vector<bool>> owned(num_rows,
                                       std::vector<bool>(num_cols, false));
  const double v2 = variance_threshold * variance_threshold;
  const double eps = 1e-12;

  for (size_t r = 0; r < num_rows; ++r) {
    // A box never crosses the boundary between the before and after
    // regions.
    const size_t region_end = r < tag_count ? tag_count : num_rows;
    for (size_t c = 0; c < num_cols; ++c) {
      if (!nonempty[r][c] || owned[r][c]) continue;

      // Step 2a: extend the seed cell to a run of cells to the right.
      Welford acc;
      acc.Add(grid[r][c]);
      size_t c2 = c;
      while (c2 + 1 < num_cols && nonempty[r][c2 + 1] && !owned[r][c2 + 1]) {
        Welford trial = acc;
        trial.Add(grid[r][c2 + 1]);
        if (trial.Msd() > v2 + eps) break;
        acc = trial;
        ++c2;
      }

      // Step 2b: extend the run downwards row by row within the region.
      size_t r2 = r;
      while (r2 + 1 < region_end) {
        const size_t cand = r2 + 1;
        bool any_nonempty = false;
        bool blocked = false;
        Welford trial = acc;
        for (size_t cc = c; cc <= c2; ++cc) {
          if (owned[cand][cc]) {
            blocked = true;
            break;
          }
          if (nonempty[cand][cc]) any_nonempty = true;
          trial.Add(grid[cand][cc]);
        }
        if (blocked || !any_nonempty) break;
        if (trial.Msd() > v2 + eps) break;
        acc = trial;
        r2 = cand;
      }

      for (size_t rr = r; rr <= r2; ++rr) {
        for (size_t cc = c; cc <= c2; ++cc) owned[rr][cc] = true;
      }
      h.buckets_.push_back(Bucket{static_cast<uint32_t>(c),
                                  static_cast<uint32_t>(r),
                                  static_cast<uint32_t>(c2),
                                  static_cast<uint32_t>(r2), acc.Mean()});
    }
  }
  h.BuildRowIndex();
  return h;
}

OHistogram OHistogram::FromBuckets(
    std::vector<Bucket> buckets, const std::vector<uint32_t>& row_of_tag,
    const std::vector<encoding::PidRef>& col_order) {
  OHistogram h;
  h.buckets_ = std::move(buckets);
  h.row_of_tag_ = row_of_tag;
  h.IndexColumns(col_order);
  h.BuildRowIndex();
  return h;
}

void OHistogram::IndexColumns(const std::vector<encoding::PidRef>& col_order) {
  col_of_.clear();
  col_of_.reserve(col_order.size());
  for (uint32_t c = 0; c < col_order.size(); ++c) {
    col_of_.push_back(PidColumn{col_order[c], c});
  }
  // A pid listed twice keeps its first column.
  std::stable_sort(col_of_.begin(), col_of_.end(),
                   [](const PidColumn& a, const PidColumn& b) {
                     return a.pid < b.pid;
                   });
  col_of_.erase(std::unique(col_of_.begin(), col_of_.end(),
                            [](const PidColumn& a, const PidColumn& b) {
                              return a.pid == b.pid;
                            }),
                col_of_.end());
}

void OHistogram::BuildRowIndex() {
  row_index_.assign(2 * row_of_tag_.size(), {});

  // Inserts [x1, x2] into a sorted disjoint span list, clipped against
  // the columns already covered — so where (adversarial) boxes overlap,
  // the earliest-inserted bucket keeps the cell.
  auto insert_clipped = [](std::vector<RowSpan>& spans, uint32_t x1,
                           uint32_t x2, double freq) {
    std::vector<RowSpan> merged;
    merged.reserve(spans.size() + 2);
    uint64_t cur = x1;  // next still-uncovered column of the new span
    size_t i = 0;
    for (; i < spans.size() && spans[i].x1 <= x2; ++i) {
      const RowSpan& s = spans[i];
      if (cur < s.x1 && cur <= x2) {
        merged.push_back(RowSpan{static_cast<uint32_t>(cur),
                                 std::min(x2, s.x1 - 1), freq});
      }
      merged.push_back(s);
      cur = std::max<uint64_t>(cur, static_cast<uint64_t>(s.x2) + 1);
    }
    if (cur <= x2) {
      merged.push_back(RowSpan{static_cast<uint32_t>(cur), x2, freq});
    }
    for (; i < spans.size(); ++i) merged.push_back(spans[i]);
    spans = std::move(merged);
  };

  for (const Bucket& b : buckets_) {
    for (uint64_t row = b.y1; row <= b.y2 && row < row_index_.size(); ++row) {
      insert_clipped(row_index_[row], b.x1, b.x2, b.avg_freq);
    }
  }
}

double OHistogram::Get(stats::OrderRegion region, xml::TagId other,
                       encoding::PidRef pid) const {
  const uint32_t col = Column(pid);
  if (col == kNoColumn) return 0;
  const std::vector<RowSpan>* spans = Row(region, other);
  if (spans == nullptr) return 0;
  auto it = std::upper_bound(
      spans->begin(), spans->end(), col,
      [](uint32_t c, const RowSpan& s) { return c < s.x1; });
  if (it == spans->begin()) return 0;
  --it;
  return col <= it->x2 ? it->avg_freq : 0;
}

}  // namespace xee::histogram
