#ifndef XEE_HISTOGRAM_O_HISTOGRAM_H_
#define XEE_HISTOGRAM_O_HISTOGRAM_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stats/path_order.h"

namespace xee::histogram {

/// The o-histogram of paper Section 6 for one element tag X: summarizes
/// X's path-order table with rectangular buckets (x.start, y.start,
/// x.end, y.end, average frequency) over a grid whose columns are X's
/// path ids in p-histogram order and whose rows are (region, other tag)
/// pairs — the "+element" (before) block followed by the "element+"
/// (after) block, tags in alphabetic order within each block.
///
/// Construction (Algorithm 2) scans non-empty cells row-wise; each seed
/// cell is extended rightwards to a run (stopping at empty or owned
/// cells) and then downwards row by row (stopping at an all-empty span,
/// an owned cell, or the region boundary), keeping the intra-box standard
/// deviation over *all* covered cells — zeros included — within the
/// threshold.
class OHistogram {
 public:
  struct Bucket {
    uint32_t x1, y1, x2, y2;  // inclusive column/row bounds
    double avg_freq;
  };

  /// Builds the o-histogram for one tag.
  ///
  /// `row_of_tag[t]` is the alphabetic rank of tag t among all document
  /// tags (shared across all o-histograms of a document); rows for the
  /// kAfter region live at rank + row_of_tag.size().
  /// `col_order` is the tag's pid column order (PHistogram::PidsInOrder).
  static OHistogram Build(const stats::PathOrderTable& table,
                          const std::vector<uint32_t>& row_of_tag,
                          const std::vector<encoding::PidRef>& col_order,
                          double variance_threshold);

  /// Reassembles a histogram from stored buckets (deserialization).
  static OHistogram FromBuckets(std::vector<Bucket> buckets,
                                const std::vector<uint32_t>& row_of_tag,
                                const std::vector<encoding::PidRef>& col_order);

  /// Summarized cell value g(pid, other): the covering bucket's average
  /// frequency, or 0 when no bucket covers the cell. O(log pids +
  /// log buckets) via the column index and the per-row interval index;
  /// identical to scanning `buckets()` in order and returning the first
  /// cover.
  double Get(stats::OrderRegion region, xml::TagId other,
             encoding::PidRef pid) const;

  /// The sum, in order, of Get(region, other, pid_of(*it)) over
  /// [first, last) — bit for bit, since the same cells are added in the
  /// same order — read in one walk along the row's spans while the
  /// columns ascend (a candidate list in p-histogram order always does;
  /// a descending step restarts the walk).
  template <typename It, typename PidOf>
  double RowSum(stats::OrderRegion region, xml::TagId other, It first,
                It last, PidOf pid_of) const {
    const std::vector<RowSpan>* spans = Row(region, other);
    if (spans == nullptr) return 0;
    double sum = 0;
    auto span = spans->begin();
    uint32_t prev = 0;
    for (; first != last; ++first) {
      const uint32_t col = Column(pid_of(*first));
      double v = 0;
      if (col != kNoColumn) {
        if (col < prev) span = spans->begin();
        prev = col;
        while (span != spans->end() && span->x2 < col) ++span;
        if (span != spans->end() && span->x1 <= col) v = span->avg_freq;
      }
      sum += v;
    }
    return sum;
  }

  const std::vector<Bucket>& buckets() const { return buckets_; }
  size_t BucketCount() const { return buckets_.size(); }

  /// Modeled footprint: four 2-byte coordinates plus a 4-byte average
  /// per bucket.
  size_t SizeBytes() const { return buckets_.size() * 12; }

 private:
  /// One column run of a bucket within a single row.
  struct RowSpan {
    uint32_t x1, x2;  // inclusive column bounds
    double avg_freq;
  };

  static constexpr uint32_t kNoColumn = UINT32_MAX;

  /// Expands `buckets_` into per-row sorted disjoint column spans so Get
  /// binary-searches one row instead of scanning every bucket. Earlier
  /// buckets win where boxes overlap (only possible on adversarial
  /// deserialized bucket lists), matching the first-match linear scan.
  void BuildRowIndex();
  /// Fills the pid -> column index from the tag's column order.
  void IndexColumns(const std::vector<encoding::PidRef>& col_order);

  /// Column of `pid`, or kNoColumn when the tag has no such pid.
  uint32_t Column(encoding::PidRef pid) const {
    const auto it = std::lower_bound(
        col_of_.begin(), col_of_.end(), pid,
        [](const PidColumn& e, encoding::PidRef p) { return e.pid < p; });
    return it != col_of_.end() && it->pid == pid ? it->col : kNoColumn;
  }
  /// The spans of the (region, other) row, or null when it has none.
  const std::vector<RowSpan>* Row(stats::OrderRegion region,
                                  xml::TagId other) const {
    if (other >= row_of_tag_.size()) return nullptr;
    const size_t row =
        (region == stats::OrderRegion::kAfter ? row_of_tag_.size() : 0) +
        row_of_tag_[other];
    return row < row_index_.size() ? &row_index_[row] : nullptr;
  }

  std::vector<Bucket> buckets_;
  std::vector<uint32_t> row_of_tag_;  // alphabetic rank per TagId
  struct PidColumn {
    encoding::PidRef pid;
    uint32_t col;
  };
  /// The tag's pids in ascending order, each with its column: one entry
  /// per pid of this tag, however far apart its pids lie.
  std::vector<PidColumn> col_of_;
  std::vector<std::vector<RowSpan>> row_index_;  // size 2 * row_of_tag_.size()
};

}  // namespace xee::histogram

#endif  // XEE_HISTOGRAM_O_HISTOGRAM_H_
