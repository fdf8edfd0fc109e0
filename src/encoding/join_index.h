#ifndef XEE_ENCODING_JOIN_INDEX_H_
#define XEE_ENCODING_JOIN_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "encoding/containment.h"
#include "encoding/encoding_table.h"
#include "encoding/labeling.h"

namespace xee::encoding {

/// Word-parallel form of the path-id join's containment test
/// (DESIGN.md §13). For concrete tags, PidPairCompatible factors as
///
///   PidPairCompatible(A, p, B, c, axis)
///     == Covers(p, c)  AND  bits(c) ∩ BelowPaths(A, B, axis) != ∅
///
/// where BelowPaths(A, B, axis) is the set of encoded paths on which B
/// occurs below A (directly below for the child axis). The first term is
/// one bit of p's cover row; the second depends only on the child and
/// the parent's tag. This index stores both terms as bit rows so a
/// semi-join sweep decides whole lists with word ANDs.
///
/// The pair index doubles as the static analyzer's tag-pair relation
/// (DESIGN.md §15): Below() answers "does B ever occur below A on an
/// encoded path" from the same rows the join reads.
///
/// Derived from the path structures (encoding table and decoded pid
/// table) at Build / Deserialize time and shared immutably with patched
/// clones: deltas never change the path or pid set, so the index stays
/// exact for the lifetime of those structures.
class PidJoinIndex {
 public:
  PidJoinIndex() = default;

  /// Builds the index over `table` and the lex-sorted pid table `pids`
  /// (pid ref r is pids[r - 1]; every pid is table.PathCount() bits
  /// wide). Tag ids on paths must be < `tag_count`.
  static PidJoinIndex Build(const EncodingTable& table,
                            const std::vector<PathIdBits>& pids,
                            size_t tag_count);

  /// Words per cover row: ceil(distinct pids / 64).
  size_t pid_words() const { return pid_words_; }
  /// Words per path mask, equal to the word count of every pid.
  size_t path_words() const { return path_words_; }

  /// Cover row of pid ref `p` (1-based): bit r - 1 is set iff pid p
  /// covers pid r, i.e. every path through r also passes through p.
  const uint64_t* CoverRow(PidRef p) const {
    XEE_CHECK(p >= 1 && p <= pid_count_);
    return cover_rows_.data() + (p - 1) * pid_words_;
  }

  /// BelowPaths(above, below, axis) in PathIdBits word layout (bit e - 1
  /// marks encoding e), or nullptr when `below` occurs below `above` on
  /// no path at all. Concrete tags only: the join expands "*" lists into
  /// per-tag candidates before it asks.
  const uint64_t* BelowPaths(xml::TagId above, xml::TagId below,
                             AxisKind axis) const;

  /// True iff some encoded path has an occurrence of `below` strictly
  /// below (with `immediate`: directly below) an occurrence of `above`.
  /// Either side may be kWildcardTag, quantifying over all tags; on a
  /// root-to-leaf path "has a descendant" and "has a child" coincide, so
  /// wildcard answers ignore `immediate`. Every element pair related by
  /// ancestry lies on one encoded path, so false proves that no `below`
  /// element sits under an `above` element anywhere in the document.
  bool Below(xml::TagId above, xml::TagId below, bool immediate) const;

  /// Heap bytes of the rows, masks and pair index.
  size_t SizeBytes() const;

  friend bool operator==(const PidJoinIndex&, const PidJoinIndex&) = default;

 private:
  static constexpr size_t kNoSlot = SIZE_MAX;
  /// Rank of the pair (above, below) in the pair index, or kNoSlot.
  size_t Slot(xml::TagId above, xml::TagId below) const;

  size_t pid_count_ = 0;
  size_t pid_words_ = 0;
  size_t path_words_ = 0;
  size_t tag_count_ = 0;
  size_t tag_words_ = 0;
  /// pid_count_ rows of pid_words_ words.
  std::vector<uint64_t> cover_rows_;
  /// Pair index: row `a` (tag_words_ words) has bit b set iff b occurs
  /// below a on some path; pair_base_[a] counts the pairs of the rows
  /// before it, so a pair's slot is its rank.
  std::vector<uint64_t> pair_rows_;
  std::vector<uint32_t> pair_base_;
  /// Per pair slot: the descendant mask, then the child mask, each
  /// path_words_ words.
  std::vector<uint64_t> masks_;
};

}  // namespace xee::encoding

#endif  // XEE_ENCODING_JOIN_INDEX_H_
