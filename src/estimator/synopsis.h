#ifndef XEE_ESTIMATOR_SYNOPSIS_H_
#define XEE_ESTIMATOR_SYNOPSIS_H_

#include <memory>
#include <string_view>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "encoding/encoding_table.h"
#include "encoding/join_index.h"
#include "encoding/labeling.h"
#include "histogram/o_histogram.h"
#include "histogram/p_histogram.h"
#include "pidtree/collapsed_pid_tree.h"
#include "stats/value_stats.h"
#include "xml/tree.h"

namespace xee::estimator {

/// Knobs for synopsis construction.
struct SynopsisOptions {
  /// Intra-bucket variance threshold of the p-histograms; 0 stores exact
  /// frequencies (paper Section 6).
  double p_variance = 0;
  /// Intra-bucket variance threshold of the o-histograms; 0 is exact.
  double o_variance = 0;
  /// Collect order statistics and build o-histograms. Turn off when only
  /// non-order queries will be estimated (halves construction cost).
  bool build_order = true;

  /// Collect per-tag text-value statistics enabling value predicates
  /// `[.="v"]` (extension, DESIGN.md §5b). Costs one extra document scan
  /// and a small top-k table per tag.
  bool build_values = true;
  /// Exact counts are kept for this many most-frequent values per tag.
  size_t value_top_k = 32;

  /// Ablation A1 (DESIGN.md): replace the variance-controlled buckets of
  /// each p-histogram with frequency-sorted equi-count buckets of the
  /// SAME bucket count (hence the same memory), to isolate the value of
  /// the paper's variance control.
  bool equi_count_p_buckets = false;
};

/// Knobs for Synopsis::Deserialize.
struct DeserializeOptions {
  /// When true, a corrupt or truncated o-histogram section degrades the
  /// blob to an order-free synopsis (has_order() == false) instead of
  /// failing the whole load; the loss is reported via DeserializeReport.
  /// Sections before the o-histograms (tags, encoding table, pids,
  /// p-histograms) are still load-bearing and never salvaged.
  bool salvage_order_corruption = false;
};

/// What Deserialize had to do to accept a blob.
struct DeserializeReport {
  /// The o-histogram section was corrupt and dropped under
  /// DeserializeOptions::salvage_order_corruption.
  bool order_dropped = false;
  /// The parse error that triggered the drop (empty otherwise).
  std::string order_error;
};

/// Wall-clock seconds spent in each construction phase, for the paper's
/// Tables 4 and 5.
struct BuildProfile {
  double collect_path_s = 0;   ///< labeling + pathId-frequency collection
  double p_histogram_s = 0;    ///< p-histogram construction
  double collect_order_s = 0;  ///< path-order table collection
  double o_histogram_s = 0;    ///< o-histogram construction
};

/// Everything the estimator needs at query time, built once per document:
/// encoding table, path-id binary tree, and per-tag p-/o-histograms. The
/// source document is not referenced after construction.
class Synopsis {
 public:
  /// Builds the synopsis over `doc` (must be finalized). `profile`, when
  /// non-null, receives per-phase timings.
  static Synopsis Build(const xml::Document& doc,
                        const SynopsisOptions& options,
                        BuildProfile* profile = nullptr);

  /// Serializes the synopsis to a self-contained binary blob that
  /// Deserialize() reconstructs without the source document — the
  /// "build once at load time, ship to the optimizer" workflow.
  std::string Serialize() const;

  /// Reconstructs a synopsis from Serialize() output. Fails with
  /// kParseError on truncated/corrupted data and kUnsupported on a
  /// format-version mismatch. With salvage_order_corruption set, a blob
  /// whose damage is confined to the o-histogram section loads as an
  /// order-free synopsis; `report` (optional) records the downgrade.
  static Result<Synopsis> Deserialize(std::string_view data,
                                      const DeserializeOptions& options = {},
                                      DeserializeReport* report = nullptr);

  /// Clones `base` sharing its immutable path structures (encoding
  /// table, pid tree, decoded pid cache) and replacing the per-tag
  /// histograms and value statistics — the shape of an incremental
  /// maintenance publish (delta/). Cost is O(histograms), never
  /// O(document). `o_histos` may be empty for an order-free clone;
  /// otherwise both histogram vectors must cover every tag of `base`.
  static Synopsis PatchedClone(const Synopsis& base,
                               std::vector<histogram::PHistogram> p_histos,
                               std::vector<histogram::OHistogram> o_histos,
                               std::optional<stats::ValueStats> value_stats);

  /// Alphabetic rank of every tag among `names` — the o-histogram row
  /// order of Algorithm 2. Shared by Build, Deserialize, and the
  /// incremental o-histogram rebuilds in delta/.
  static std::vector<uint32_t> AlphabeticRanks(
      const std::vector<std::string>& names);

  // --- Tag metadata ----------------------------------------------------

  size_t TagCount() const { return tag_names_.size(); }
  const std::string& TagName(xml::TagId t) const {
    XEE_CHECK(t < tag_names_.size());
    return tag_names_[t];
  }
  std::optional<xml::TagId> FindTag(const std::string& name) const;
  /// Name -> id map behind FindTag (the static analyzer's tag view).
  const std::unordered_map<std::string, xml::TagId>& tag_ids() const {
    return tag_ids_;
  }
  xml::TagId root_tag() const { return root_tag_; }
  encoding::PidRef root_pid() const { return root_pid_; }

  // --- Path structures --------------------------------------------------

  const encoding::EncodingTable& table() const { return *table_; }
  /// The stored pid-integer -> bit-sequence index. The synopsis uses the
  /// path-compressed CollapsedPidTree (DESIGN.md extension); the paper's
  /// per-bit structure lives in pidtree::PathIdBinaryTree and is compared
  /// in bench_table3.
  const pidtree::CollapsedPidTree& pid_tree() const { return *pid_tree_; }
  /// Decoded bit sequence of a pid ref (cached; identical to
  /// pid_tree().Lookup(ref)).
  const PathIdBits& PidBits(encoding::PidRef ref) const {
    XEE_CHECK(ref >= 1 && ref <= pid_bits_->size());
    return (*pid_bits_)[ref - 1];
  }
  size_t DistinctPidCount() const { return pid_bits_->size(); }
  /// The full lex-sorted decoded pid table (1-based refs index it at
  /// ref - 1). Shared with patched clones.
  const std::vector<PathIdBits>& AllPidBits() const { return *pid_bits_; }
  /// Cover rows and tag-pair path masks of the word-parallel path-id
  /// join (DESIGN.md §13), also the static analyzer's tag-pair relation
  /// (§15). Derived from table_ and the pid table at Build / Deserialize
  /// time and shared into patched clones like the other path structures
  /// (deltas never extend the path set).
  const encoding::PidJoinIndex& join_index() const { return *join_index_; }

  // --- Histograms -------------------------------------------------------

  const histogram::PHistogram& PHisto(xml::TagId t) const {
    XEE_CHECK(t < p_histos_.size());
    return p_histos_[t];
  }
  const histogram::OHistogram& OHisto(xml::TagId t) const {
    XEE_CHECK(t < o_histos_.size());
    return o_histos_[t];
  }
  bool has_order() const { return !o_histos_.empty(); }

  /// Value statistics; nullptr when built with build_values = false.
  const stats::ValueStats* value_stats() const {
    return value_stats_.has_value() ? &*value_stats_ : nullptr;
  }

  // --- Size accounting (paper Tables 3-5, Figures 9-13 x-axes) ----------

  size_t EncodingTableBytes() const { return table_->SizeBytes(); }
  size_t PidTreeBytes() const { return pid_tree_->SizeBytes(); }
  size_t PHistogramBytes() const;
  size_t OHistogramBytes() const;
  /// Total memory of the non-order path summary: encoding table +
  /// path-id binary tree + p-histograms (the x-axis of Figure 11).
  size_t PathSummaryBytes() const {
    return EncodingTableBytes() + PidTreeBytes() + PHistogramBytes();
  }
  /// Memory of the join index. A derived query-time accelerator, not
  /// part of the paper's synopsis: kept out of PathSummaryBytes() and the
  /// serialized blob, reported on its own in bench_table3.
  size_t JoinIndexBytes() const { return join_index_->SizeBytes(); }

 private:
  Synopsis() = default;

  std::vector<std::string> tag_names_;
  std::unordered_map<std::string, xml::TagId> tag_ids_;
  xml::TagId root_tag_ = 0;
  encoding::PidRef root_pid_ = 0;

  // The path structures are immutable after construction and shared
  // (not copied) into PatchedClone results, so an incremental publish
  // costs O(histograms) while concurrent readers of the previous epoch
  // keep their references alive.
  std::shared_ptr<const encoding::EncodingTable> table_;
  std::shared_ptr<const pidtree::CollapsedPidTree> pid_tree_;
  std::shared_ptr<const std::vector<PathIdBits>> pid_bits_;
  std::shared_ptr<const encoding::PidJoinIndex> join_index_;

  /// Derives join_index_ from table_, pid_bits_ and tag_names_; call
  /// after all three are set.
  void DeriveJoinIndex();

  std::vector<histogram::PHistogram> p_histos_;  // by TagId
  std::vector<histogram::OHistogram> o_histos_;  // by TagId; empty if no order
  std::optional<stats::ValueStats> value_stats_;
};

}  // namespace xee::estimator

#endif  // XEE_ESTIMATOR_SYNOPSIS_H_
