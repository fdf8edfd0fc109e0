#include <algorithm>
#include <string_view>

#include "common/serialize.h"
#include "estimator/synopsis.h"

namespace xee::estimator {
namespace {

constexpr uint32_t kMagic = 0x58454531;  // "XEE1"
constexpr uint32_t kVersion = 1;

Status Corrupt(const char* what) {
  return Status(StatusCode::kParseError,
                std::string("corrupt synopsis: ") + what);
}

}  // namespace

std::string Synopsis::Serialize() const {
  BinaryWriter w;
  w.PutU32(kMagic);
  w.PutU32(kVersion);

  // Tags.
  w.PutU32(static_cast<uint32_t>(tag_names_.size()));
  for (const std::string& name : tag_names_) w.PutString(name);
  w.PutU32(root_tag_);
  w.PutU32(root_pid_);

  // Encoding table: paths in encoding order.
  w.PutU32(static_cast<uint32_t>(table_->PathCount()));
  for (uint32_t enc = 1; enc <= table_->PathCount(); ++enc) {
    const encoding::TagPath& p = table_->Path(enc);
    w.PutU32(static_cast<uint32_t>(p.size()));
    for (xml::TagId t : p) w.PutU32(t);
  }

  // Distinct pids as set-bit lists (sparse; already lex-sorted).
  w.PutU32(static_cast<uint32_t>(pid_bits_->size()));
  for (const PathIdBits& bits : *pid_bits_) {
    std::vector<uint32_t> set = bits.SetBits();
    w.PutU32(static_cast<uint32_t>(set.size()));
    for (uint32_t b : set) w.PutU32(b);
  }

  // P-histograms per tag.
  for (const auto& h : p_histos_) {
    w.PutU32(static_cast<uint32_t>(h.buckets().size()));
    for (const auto& b : h.buckets()) {
      w.PutDouble(b.avg_freq);
      w.PutU32(static_cast<uint32_t>(b.pids.size()));
      for (encoding::PidRef pid : b.pids) w.PutU32(pid);
    }
  }

  // O-histograms (optional).
  w.PutU8(o_histos_.empty() ? 0 : 1);
  if (!o_histos_.empty()) {
    for (const auto& h : o_histos_) {
      w.PutU32(static_cast<uint32_t>(h.buckets().size()));
      for (const auto& b : h.buckets()) {
        w.PutU32(b.x1);
        w.PutU32(b.y1);
        w.PutU32(b.x2);
        w.PutU32(b.y2);
        w.PutDouble(b.avg_freq);
      }
    }
  }
  // Value statistics (optional section).
  w.PutU8(value_stats_.has_value() ? 1 : 0);
  if (value_stats_.has_value()) {
    for (size_t t = 0; t < tag_names_.size(); ++t) {
      const auto& tv = value_stats_->ForTag(static_cast<xml::TagId>(t));
      w.PutU32(static_cast<uint32_t>(tv.top.size()));
      for (const auto& [value, count] : tv.top) {
        w.PutString(value);
        w.PutU64(count);
      }
      w.PutU64(tv.other_count);
      w.PutU64(tv.other_distinct);
      w.PutU64(tv.total_elements);
    }
  }
  return std::move(w).data();
}

Result<Synopsis> Synopsis::Deserialize(std::string_view data,
                                       const DeserializeOptions& options,
                                       DeserializeReport* report) {
  if (report != nullptr) *report = DeserializeReport{};
  BinaryReader r(data);
  uint32_t magic = 0, version = 0;
  Status s = r.GetU32(&magic);
  if (!s.ok()) return s;
  if (magic != kMagic) return Corrupt("bad magic");
  s = r.GetU32(&version);
  if (!s.ok()) return s;
  if (version != kVersion) {
    return Status(StatusCode::kUnsupported, "unknown synopsis version");
  }

  Synopsis out;
  // The shared immutable path structures are assembled in locals and
  // wrapped on every successful exit path.
  encoding::EncodingTable table;
  std::vector<PathIdBits> pid_bits;

  uint32_t tag_count = 0;
  s = r.GetU32(&tag_count);
  if (!s.ok()) return s;
  if (tag_count == 0 || tag_count > 1u << 20) return Corrupt("tag count");
  for (uint32_t t = 0; t < tag_count; ++t) {
    std::string name;
    s = r.GetString(&name);
    if (!s.ok()) return s;
    out.tag_names_.push_back(name);
    if (!out.tag_ids_.emplace(std::move(name), t).second) {
      // Two tag ids sharing a name would make FindTag ambiguous.
      return Corrupt("duplicate tag name");
    }
  }
  s = r.GetU32(&out.root_tag_);
  if (!s.ok()) return s;
  s = r.GetU32(&out.root_pid_);
  if (!s.ok()) return s;
  if (out.root_tag_ >= tag_count) return Corrupt("root tag");

  uint32_t path_count = 0;
  s = r.GetU32(&path_count);
  if (!s.ok()) return s;
  if (path_count == 0 || path_count > 1u << 24) return Corrupt("path count");
  for (uint32_t i = 0; i < path_count; ++i) {
    uint32_t len = 0;
    s = r.GetU32(&len);
    if (!s.ok()) return s;
    if (len == 0 || len > 1u << 16) return Corrupt("path length");
    encoding::TagPath p;
    for (uint32_t j = 0; j < len; ++j) {
      uint32_t tag = 0;
      s = r.GetU32(&tag);
      if (!s.ok()) return s;
      if (tag >= tag_count) return Corrupt("path tag");
      p.push_back(tag);
    }
    if (table.GetOrAssign(p) != i + 1) return Corrupt("duplicate path");
  }

  uint32_t pid_count = 0;
  s = r.GetU32(&pid_count);
  if (!s.ok()) return s;
  if (pid_count == 0 || pid_count > 1u << 26) return Corrupt("pid count");
  for (uint32_t i = 0; i < pid_count; ++i) {
    uint32_t bits = 0;
    s = r.GetU32(&bits);
    if (!s.ok()) return s;
    if (bits == 0 || bits > path_count) return Corrupt("pid popcount");
    PathIdBits pid(path_count);
    // Serialize() emits SetBits() in increasing order; insisting on that
    // canonical encoding here keeps Serialize(Deserialize(blob)) == blob
    // for every accepted blob (a duplicate position would also silently
    // shrink the popcount).
    uint32_t prev_pos = 0;
    for (uint32_t j = 0; j < bits; ++j) {
      uint32_t pos = 0;
      s = r.GetU32(&pos);
      if (!s.ok()) return s;
      if (pos < 1 || pos > path_count) return Corrupt("pid bit");
      if (pos <= prev_pos) return Corrupt("pid bits out of order");
      prev_pos = pos;
      pid.Set(pos);
    }
    if (i > 0 && !PathIdBits::LexLess(pid_bits.back(), pid)) {
      return Corrupt("pid order");
    }
    pid_bits.push_back(std::move(pid));
  }
  if (out.root_pid_ < 1 || out.root_pid_ > pid_count) {
    return Corrupt("root pid");
  }

  for (uint32_t t = 0; t < tag_count; ++t) {
    uint32_t buckets = 0;
    s = r.GetU32(&buckets);
    if (!s.ok()) return s;
    if (buckets > pid_count) return Corrupt("p-histogram bucket count");
    std::vector<histogram::PHistogram::Bucket> bs;
    // The buckets of one tag must partition the tag's pids: a pid listed
    // twice (in one bucket or across two) would be double-counted in the
    // pid column order and shadowed in PHistogram::Frequency.
    std::vector<bool> seen_pid(pid_count + 1, false);
    for (uint32_t b = 0; b < buckets; ++b) {
      histogram::PHistogram::Bucket bucket;
      s = r.GetDouble(&bucket.avg_freq);
      if (!s.ok()) return s;
      uint32_t pids = 0;
      s = r.GetU32(&pids);
      if (!s.ok()) return s;
      if (pids == 0 || pids > pid_count) return Corrupt("bucket pid count");
      for (uint32_t p = 0; p < pids; ++p) {
        uint32_t pid = 0;
        s = r.GetU32(&pid);
        if (!s.ok()) return s;
        if (pid < 1 || pid > pid_count) return Corrupt("bucket pid");
        if (seen_pid[pid]) return Corrupt("pid in more than one bucket");
        seen_pid[pid] = true;
        bucket.pids.push_back(pid);
      }
      bs.push_back(std::move(bucket));
    }
    out.p_histos_.push_back(histogram::PHistogram::FromBuckets(std::move(bs)));
  }

  // O-histogram section. Everything before this point is load-bearing
  // (an estimator cannot run without the encoding table, pids and
  // p-histograms), but order statistics only sharpen order-axis queries
  // — so damage confined to this section can, on request, degrade the
  // synopsis to order-free instead of failing the load.
  auto parse_order_section = [&]() -> Status {
    uint8_t has_order = 0;
    Status os = r.GetU8(&has_order);
    if (!os.ok()) return os;
    // Section flags re-serialize as exactly 0 or 1; other values would
    // round-trip to a different byte.
    if (has_order > 1) return Corrupt("order flag");
    if (has_order == 0) return Status::Ok();
    // Alphabetic tag ranks are derivable from the tag names.
    std::vector<uint32_t> ranks = AlphabeticRanks(out.tag_names_);

    for (uint32_t t = 0; t < tag_count; ++t) {
      uint32_t buckets = 0;
      os = r.GetU32(&buckets);
      if (!os.ok()) return os;
      if (buckets > 1u << 26) return Corrupt("o-histogram bucket count");
      std::vector<histogram::OHistogram::Bucket> bs;
      for (uint32_t b = 0; b < buckets; ++b) {
        histogram::OHistogram::Bucket bucket;
        os = r.GetU32(&bucket.x1);
        if (!os.ok()) return os;
        os = r.GetU32(&bucket.y1);
        if (!os.ok()) return os;
        os = r.GetU32(&bucket.x2);
        if (!os.ok()) return os;
        os = r.GetU32(&bucket.y2);
        if (!os.ok()) return os;
        os = r.GetDouble(&bucket.avg_freq);
        if (!os.ok()) return os;
        if (bucket.x1 > bucket.x2 || bucket.y1 > bucket.y2 ||
            bucket.y2 >= 2 * tag_count) {
          return Corrupt("o-histogram bucket bounds");
        }
        bs.push_back(bucket);
      }
      out.o_histos_.push_back(histogram::OHistogram::FromBuckets(
          std::move(bs), ranks, out.p_histos_[t].PidsInOrder()));
    }
    return Status::Ok();
  };
  s = parse_order_section();
  if (!s.ok()) {
    if (!options.salvage_order_corruption) return s;
    // Degrade: drop whatever order state was built. The stream offset is
    // unreliable past the damage, so the values section (which follows)
    // is forfeit too, as is the trailing-bytes check.
    out.o_histos_.clear();
    if (report != nullptr) {
      report->order_dropped = true;
      report->order_error = s.message();
    }
    out.table_ = std::make_shared<const encoding::EncodingTable>(
        std::move(table));
    out.pid_bits_ = std::make_shared<const std::vector<PathIdBits>>(
        std::move(pid_bits));
    out.pid_tree_ =
        std::make_shared<const pidtree::CollapsedPidTree>(*out.pid_bits_);
    out.DeriveJoinIndex();
    return out;
  }
  uint8_t has_values = 0;
  s = r.GetU8(&has_values);
  if (!s.ok()) return s;
  if (has_values > 1) return Corrupt("values flag");
  if (has_values != 0) {
    std::vector<stats::ValueStats::TagValues> tag_values(tag_count);
    for (uint32_t t = 0; t < tag_count; ++t) {
      uint32_t top = 0;
      s = r.GetU32(&top);
      if (!s.ok()) return s;
      if (top > 1u << 20) return Corrupt("value top count");
      for (uint32_t i = 0; i < top; ++i) {
        std::string value;
        s = r.GetString(&value);
        if (!s.ok()) return s;
        uint64_t count = 0;
        s = r.GetU64(&count);
        if (!s.ok()) return s;
        tag_values[t].top.emplace_back(std::move(value), count);
      }
      s = r.GetU64(&tag_values[t].other_count);
      if (!s.ok()) return s;
      s = r.GetU64(&tag_values[t].other_distinct);
      if (!s.ok()) return s;
      s = r.GetU64(&tag_values[t].total_elements);
      if (!s.ok()) return s;
    }
    out.value_stats_ = stats::ValueStats::FromTagValues(std::move(tag_values));
  }
  if (!r.AtEnd()) return Corrupt("trailing bytes");

  // Rebuild the (deterministic) path-id binary tree from the pids.
  out.table_ = std::make_shared<const encoding::EncodingTable>(
      std::move(table));
  out.pid_bits_ = std::make_shared<const std::vector<PathIdBits>>(
      std::move(pid_bits));
  out.pid_tree_ =
      std::make_shared<const pidtree::CollapsedPidTree>(*out.pid_bits_);
  out.DeriveJoinIndex();
  return out;
}

}  // namespace xee::estimator
