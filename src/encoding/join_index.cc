#include "encoding/join_index.h"

#include <bit>

namespace xee::encoding {
namespace {

size_t WordsFor(size_t bits) { return (bits + 63) / 64; }

void SetBit(uint64_t* words, size_t i) {
  words[i >> 6] |= uint64_t{1} << (i & 63);
}

}  // namespace

PidJoinIndex PidJoinIndex::Build(const EncodingTable& table,
                                 const std::vector<PathIdBits>& pids,
                                 size_t tag_count) {
  PidJoinIndex x;
  x.pid_count_ = pids.size();
  x.pid_words_ = WordsFor(pids.size());
  x.path_words_ = WordsFor(table.PathCount());
  x.tag_count_ = tag_count;
  x.tag_words_ = WordsFor(tag_count);

  // Pid words packed contiguously, so the D x D cover test below is a
  // tight inline loop (this is most of the index's derivation time).
  std::vector<uint64_t> packed;
  packed.reserve(pids.size() * x.path_words_);
  for (const PathIdBits& pid : pids) {
    XEE_CHECK(pid.num_bits() == table.PathCount());
    packed.insert(packed.end(), pid.words().begin(), pid.words().end());
  }
  x.cover_rows_.assign(x.pid_count_ * x.pid_words_, 0);
  for (size_t p = 0; p < pids.size(); ++p) {
    uint64_t* row = x.cover_rows_.data() + p * x.pid_words_;
    const uint64_t* pw = packed.data() + p * x.path_words_;
    for (size_t r = 0; r < pids.size(); ++r) {
      const uint64_t* rw = packed.data() + r * x.path_words_;
      uint64_t outside = 0;  // bits of r missing from p
      for (size_t w = 0; w < x.path_words_; ++w) outside |= rw[w] & ~pw[w];
      if (outside == 0) SetBit(row, r);
    }
  }

  // Pass 1: which (above, below) pairs occur on some path.
  x.pair_rows_.assign(tag_count * x.tag_words_, 0);
  for (uint32_t enc = 1; enc <= table.PathCount(); ++enc) {
    const TagPath& path = table.Path(enc);
    for (size_t i = 0; i < path.size(); ++i) {
      XEE_CHECK(path[i] < tag_count);
      for (size_t j = i + 1; j < path.size(); ++j) {
        SetBit(x.pair_rows_.data() + path[i] * x.tag_words_, path[j]);
      }
    }
  }
  x.pair_base_.resize(tag_count);
  uint32_t pairs = 0;
  for (size_t a = 0; a < tag_count; ++a) {
    x.pair_base_[a] = pairs;
    for (size_t w = 0; w < x.tag_words_; ++w) {
      pairs += static_cast<uint32_t>(
          std::popcount(x.pair_rows_[a * x.tag_words_ + w]));
    }
  }

  // Pass 2: the path masks of each pair.
  x.masks_.assign(size_t{pairs} * 2 * x.path_words_, 0);
  for (uint32_t enc = 1; enc <= table.PathCount(); ++enc) {
    const TagPath& path = table.Path(enc);
    for (size_t i = 0; i < path.size(); ++i) {
      for (size_t j = i + 1; j < path.size(); ++j) {
        uint64_t* desc =
            x.masks_.data() + x.Slot(path[i], path[j]) * 2 * x.path_words_;
        SetBit(desc, enc - 1);
        if (j == i + 1) SetBit(desc + x.path_words_, enc - 1);
      }
    }
  }
  return x;
}

size_t PidJoinIndex::Slot(xml::TagId above, xml::TagId below) const {
  XEE_CHECK(above < tag_count_ && below < tag_count_);
  const uint64_t* row = pair_rows_.data() + above * tag_words_;
  const size_t w = below >> 6;
  const uint64_t bit = uint64_t{1} << (below & 63);
  if ((row[w] & bit) == 0) return kNoSlot;
  size_t slot = pair_base_[above] + std::popcount(row[w] & (bit - 1));
  for (size_t i = 0; i < w; ++i) slot += std::popcount(row[i]);
  return slot;
}

const uint64_t* PidJoinIndex::BelowPaths(xml::TagId above, xml::TagId below,
                                         AxisKind axis) const {
  const size_t slot = Slot(above, below);
  if (slot == kNoSlot) return nullptr;
  const size_t half = axis == AxisKind::kChild ? 1 : 0;
  return masks_.data() + (slot * 2 + half) * path_words_;
}

bool PidJoinIndex::Below(xml::TagId above, xml::TagId below,
                         bool immediate) const {
  XEE_CHECK(above == kWildcardTag || above < tag_count_);
  XEE_CHECK(below == kWildcardTag || below < tag_count_);
  // Pair row `a` is the set of tags occurring below `a` on some path.
  auto row_has = [&](size_t a) {
    const uint64_t* row = pair_rows_.data() + a * tag_words_;
    if (below != kWildcardTag) {
      return ((row[below >> 6] >> (below & 63)) & 1) != 0;
    }
    for (size_t w = 0; w < tag_words_; ++w) {
      if (row[w] != 0) return true;
    }
    return false;
  };
  if (above == kWildcardTag) {
    for (size_t a = 0; a < tag_count_; ++a) {
      if (row_has(a)) return true;
    }
    return false;
  }
  if (!row_has(above)) return false;
  if (!immediate || below == kWildcardTag) return true;
  const uint64_t* child = BelowPaths(above, below, AxisKind::kChild);
  for (size_t w = 0; w < path_words_; ++w) {
    if (child[w] != 0) return true;
  }
  return false;
}

size_t PidJoinIndex::SizeBytes() const {
  return (cover_rows_.size() + pair_rows_.size() + masks_.size()) *
             sizeof(uint64_t) +
         pair_base_.size() * sizeof(uint32_t);
}

}  // namespace xee::encoding
