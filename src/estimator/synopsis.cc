#include "estimator/synopsis.h"

#include <algorithm>
#include <chrono>

#include "stats/path_order.h"
#include "stats/pathid_frequency.h"

namespace xee::estimator {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

std::vector<uint32_t> Synopsis::AlphabeticRanks(
    const std::vector<std::string>& names) {
  std::vector<uint32_t> order(names.size());
  for (uint32_t i = 0; i < names.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&names](uint32_t a, uint32_t b) {
    return names[a] < names[b];
  });
  std::vector<uint32_t> rank(names.size());
  for (uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

Synopsis Synopsis::Build(const xml::Document& doc,
                         const SynopsisOptions& options,
                         BuildProfile* profile) {
  XEE_CHECK(!doc.empty());
  Synopsis s;

  for (size_t t = 0; t < doc.TagCount(); ++t) {
    s.tag_names_.push_back(doc.TagNameOf(static_cast<xml::TagId>(t)));
    s.tag_ids_.emplace(s.tag_names_.back(), static_cast<xml::TagId>(t));
  }
  s.root_tag_ = doc.Tag(doc.root());

  // Phase 1: path collection (labeling + pathId-frequency table).
  auto t0 = std::chrono::steady_clock::now();
  encoding::Labeling labeling = encoding::LabelDocument(doc);
  stats::PathIdFrequencyTable pf = stats::PathIdFrequencyTable::Build(
      doc, labeling);
  s.root_pid_ = labeling.node_pid_refs[doc.root()];
  if (profile != nullptr) profile->collect_path_s = SecondsSince(t0);

  // Phase 2: p-histograms.
  t0 = std::chrono::steady_clock::now();
  s.p_histos_.reserve(doc.TagCount());
  for (size_t t = 0; t < doc.TagCount(); ++t) {
    histogram::PHistogram h = histogram::PHistogram::Build(
        pf.ForTag(static_cast<xml::TagId>(t)), options.p_variance);
    if (options.equi_count_p_buckets) {
      // Memory-matched ablation: same bucket count, equi-count split.
      h = histogram::PHistogram::BuildEquiCount(
          pf.ForTag(static_cast<xml::TagId>(t)), h.BucketCount());
    }
    s.p_histos_.push_back(std::move(h));
  }
  if (profile != nullptr) profile->p_histogram_s = SecondsSince(t0);

  if (options.build_order) {
    // Phase 3: path-order tables.
    t0 = std::chrono::steady_clock::now();
    stats::OrderStats order = stats::OrderStats::Build(doc, labeling);
    if (profile != nullptr) profile->collect_order_s = SecondsSince(t0);

    // Phase 4: o-histograms.
    t0 = std::chrono::steady_clock::now();
    std::vector<uint32_t> ranks = AlphabeticRanks(s.tag_names_);
    s.o_histos_.reserve(doc.TagCount());
    for (size_t t = 0; t < doc.TagCount(); ++t) {
      s.o_histos_.push_back(histogram::OHistogram::Build(
          order.ForTag(static_cast<xml::TagId>(t)), ranks,
          s.p_histos_[t].PidsInOrder(), options.o_variance));
    }
    if (profile != nullptr) profile->o_histogram_s = SecondsSince(t0);
  }

  if (options.build_values) {
    s.value_stats_ = stats::ValueStats::Build(doc, options.value_top_k);
  }

  // Path-id binary tree plus the decoded cache the join works from.
  s.pid_tree_ = std::make_shared<const pidtree::CollapsedPidTree>(labeling);
  s.pid_bits_ = std::make_shared<const std::vector<PathIdBits>>(
      std::move(labeling.distinct_pids));
  s.table_ = std::make_shared<const encoding::EncodingTable>(
      std::move(labeling.table));
  s.DeriveJoinIndex();
  return s;
}

Synopsis Synopsis::PatchedClone(const Synopsis& base,
                                std::vector<histogram::PHistogram> p_histos,
                                std::vector<histogram::OHistogram> o_histos,
                                std::optional<stats::ValueStats> value_stats) {
  XEE_CHECK(p_histos.size() == base.tag_names_.size());
  XEE_CHECK(o_histos.empty() || o_histos.size() == base.tag_names_.size());
  Synopsis s;
  s.tag_names_ = base.tag_names_;
  s.tag_ids_ = base.tag_ids_;
  s.root_tag_ = base.root_tag_;
  s.root_pid_ = base.root_pid_;
  s.table_ = base.table_;
  s.pid_tree_ = base.pid_tree_;
  s.pid_bits_ = base.pid_bits_;
  s.join_index_ = base.join_index_;
  s.p_histos_ = std::move(p_histos);
  s.o_histos_ = std::move(o_histos);
  s.value_stats_ = std::move(value_stats);
  return s;
}

void Synopsis::DeriveJoinIndex() {
  join_index_ = std::make_shared<const encoding::PidJoinIndex>(
      encoding::PidJoinIndex::Build(*table_, *pid_bits_, tag_names_.size()));
}

std::optional<xml::TagId> Synopsis::FindTag(const std::string& name) const {
  auto it = tag_ids_.find(name);
  if (it == tag_ids_.end()) return std::nullopt;
  return it->second;
}

size_t Synopsis::PHistogramBytes() const {
  size_t n = 0;
  for (const auto& h : p_histos_) n += h.SizeBytes();
  return n;
}

size_t Synopsis::OHistogramBytes() const {
  size_t n = 0;
  for (const auto& h : o_histos_) n += h.SizeBytes();
  return n;
}

}  // namespace xee::estimator
