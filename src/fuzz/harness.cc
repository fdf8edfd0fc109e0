#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/mutate.h"
#include "common/strings.h"
#include "datagen/datagen.h"
#include "delta/document_delta.h"
#include "estimator/estimator.h"
#include "fuzz/fuzz.h"
#include "service/service.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/analyze.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xee::fuzz {
namespace {

/// The paper's Figure 1 running example (same shape as the test
/// fixture's MakePaperDocument, which lives under tests/ and is not
/// linkable from the library). Tiny, recursion-free, and rich in order
/// structure — the ideal bed for exactness oracles.
xml::Document MakeFigure1Document() {
  xml::Document doc;
  auto root = doc.CreateRoot("Root");

  auto a1 = doc.AppendChild(root, "A");
  auto b1 = doc.AppendChild(a1, "B");
  doc.AppendChild(b1, "D");
  doc.AppendChild(b1, "E");

  auto a2 = doc.AppendChild(root, "A");
  auto b2 = doc.AppendChild(a2, "B");
  doc.AppendChild(b2, "D");
  auto c2 = doc.AppendChild(a2, "C");
  doc.AppendChild(c2, "E");
  doc.AppendChild(c2, "F");
  auto b3 = doc.AppendChild(a2, "B");
  doc.AppendChild(b3, "D");

  auto a3 = doc.AppendChild(root, "A");
  auto c3 = doc.AppendChild(a3, "C");
  doc.AppendChild(c3, "E");
  auto b4 = doc.AppendChild(a3, "B");
  doc.AppendChild(b4, "D");

  doc.Finalize();
  return doc;
}

/// True when no element has a proper ancestor of the same tag —
/// the premise of Theorem 4.1's exactness.
bool IsRecursionFree(const xml::Document& doc) {
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    for (xml::NodeId a = doc.Parent(n); a != xml::kNullNode;
         a = doc.Parent(a)) {
      if (doc.Tag(a) == doc.Tag(n)) return false;
    }
  }
  return true;
}

/// Bitwise comparison: the metamorphic oracles demand identical bits,
/// not approximate equality — 1-ulp drift means some code path depends
/// on query spelling.
bool BitwiseEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string Printable(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (std::isprint(static_cast<unsigned char>(c))) {
      out.push_back(c);
    } else {
      out += StrFormat("\\x%02x", static_cast<unsigned char>(c));
    }
  }
  return out;
}

Finding MakeFinding(const char* generator, const char* oracle,
                    std::string detail, std::string_view input,
                    bool hex_input = false) {
  Finding f;
  f.generator = generator;
  f.oracle = oracle;
  f.detail = std::move(detail);
  f.input = hex_input ? HexEncode(input) : Printable(input);
  return f;
}

/// Applies key-neutral whitespace decoration: StripWhitespace removes
/// whitespace outside quoted literals, so padding at the front/back and
/// after the leading '/' never changes the parsed query.
std::string Whitespaced(Rng& rng, const std::string& query) {
  std::string out = query;
  if (rng.Bernoulli(0.5)) out.insert(0, " ");
  if (rng.Bernoulli(0.3) && out.size() > 1) out.insert(1, "\t");
  if (rng.Bernoulli(0.5)) out += "\n";
  return out;
}

}  // namespace

struct Harness::TestBed {
  std::string name;
  bool recursion_free = false;
  xml::Document doc;
  std::unique_ptr<eval::ExactEvaluator> exact_eval;
  std::vector<std::string> tags;
  /// v=0 with order and value statistics: exact per Theorem 4.1.
  std::shared_ptr<const estimator::Synopsis> exact;
  /// Coarse buckets (v=2): the lossy configuration of paper Section 6.
  std::shared_ptr<const estimator::Synopsis> coarse;
  /// build_order=false: exercises the order-unsupported paths.
  std::shared_ptr<const estimator::Synopsis> no_order;
  std::string exact_blob;  ///< exact->Serialize(), the mutation base
  std::string xml_text;    ///< WriteXml(doc), the XML mutation base
};

Harness::Harness() {
  auto add_bed = [this](std::string name, xml::Document doc) {
    auto bed = std::make_unique<TestBed>();
    bed->name = std::move(name);
    bed->doc = std::move(doc);
    bed->recursion_free = IsRecursionFree(bed->doc);
    bed->exact_eval = std::make_unique<eval::ExactEvaluator>(bed->doc);
    for (size_t t = 0; t < bed->doc.TagCount(); ++t) {
      bed->tags.push_back(bed->doc.TagNameOf(static_cast<xml::TagId>(t)));
    }
    estimator::SynopsisOptions exact_opt;  // v=0, order + values
    bed->exact = std::make_shared<estimator::Synopsis>(
        estimator::Synopsis::Build(bed->doc, exact_opt));
    estimator::SynopsisOptions coarse_opt;
    coarse_opt.p_variance = 2;
    coarse_opt.o_variance = 2;
    bed->coarse = std::make_shared<estimator::Synopsis>(
        estimator::Synopsis::Build(bed->doc, coarse_opt));
    estimator::SynopsisOptions no_order_opt;
    no_order_opt.build_order = false;
    bed->no_order = std::make_shared<estimator::Synopsis>(
        estimator::Synopsis::Build(bed->doc, no_order_opt));
    bed->exact_blob = bed->exact->Serialize();
    bed->xml_text = xml::WriteXml(bed->doc);
    beds_.push_back(std::move(bed));
  };

  add_bed("paper", MakeFigure1Document());
  datagen::GenOptions ssplays_opt;
  ssplays_opt.seed = 7;
  ssplays_opt.scale = 0.02;
  add_bed("ssplays", datagen::GenerateSsPlays(ssplays_opt));
  datagen::GenOptions dblp_opt;
  dblp_opt.seed = 11;
  dblp_opt.scale = 0.01;
  add_bed("dblp", datagen::GenerateDblp(dblp_opt));
  // Appended last so the historical bed indices (and with them the
  // replay corpus and seed streams of the older batteries) stay put.
  // XMark's deep recursive parlist/listitem structure gives the
  // analyzer battery reachable-pair coverage the flatter beds cannot.
  datagen::GenOptions xmark_opt;
  xmark_opt.seed = 13;
  xmark_opt.scale = 0.01;
  add_bed("xmark", datagen::GenerateXMark(xmark_opt));
}

Harness::~Harness() = default;

void Harness::CheckMonotonicity(const TestBed& bed, Rng& rng,
                                const xpath::Query& q, Report* rep) const {
  auto base = bed.exact_eval->Count(q);
  if (!base.ok()) return;  // outside the evaluator's fragment
  const double base_count = static_cast<double>(base.value());

  auto expect_at_least = [&](const xpath::Query& relaxed, const char* oracle,
                             const char* how) {
    auto relaxed_count = bed.exact_eval->Count(relaxed);
    ++rep->monotonic_checked;
    if (!relaxed_count.ok()) {
      // A relaxation may cross the evaluator's fragment boundary (e.g.
      // an unknown-tag query returns 0 before the mixed-constraint-kind
      // check that the relaxed form then trips). kUnsupported is a
      // documented answer, not a monotonicity violation.
      if (relaxed_count.status().code() == StatusCode::kUnsupported) return;
      rep->findings.push_back(MakeFinding(
          "query", oracle,
          StrFormat("relaxation (%s) of evaluable query failed: %s [bed %s]",
                    how, relaxed_count.status().ToString().c_str(),
                    bed.name.c_str()),
          q.ToString()));
      return;
    }
    if (static_cast<double>(relaxed_count.value()) < base_count) {
      rep->findings.push_back(MakeFinding(
          "query", oracle,
          StrFormat("%s shrank the result: %llu < %llu on '%s' [bed %s]", how,
                    static_cast<unsigned long long>(relaxed_count.value()),
                    static_cast<unsigned long long>(base.value()),
                    relaxed.ToString().c_str(), bed.name.c_str()),
          q.ToString()));
    }
  };

  // '//' accepts every match of '/': widen one random child axis.
  // Sibling-constraint endpoints are pinned to the child axis by
  // validation, so they are not legal relaxation sites.
  std::vector<int> child_axes;
  for (int i = 1; i < static_cast<int>(q.size()); ++i) {
    if (q.nodes[i].axis != xpath::StructAxis::kChild) continue;
    bool sibling_endpoint = false;
    for (const auto& c : q.orders) {
      sibling_endpoint |= c.kind == xpath::OrderKind::kSibling &&
                          (c.before == i || c.after == i);
    }
    if (!sibling_endpoint) child_axes.push_back(i);
  }
  if (!child_axes.empty()) {
    xpath::Query relaxed = q;
    relaxed.nodes[child_axes[rng.Index(child_axes.size())]].axis =
        xpath::StructAxis::kDescendant;
    expect_at_least(relaxed, "mono-axis", "child -> descendant");
  }

  // '//a...' accepts every match of '/a...'.
  if (q.root_mode == xpath::RootMode::kAbsolute) {
    xpath::Query relaxed = q;
    relaxed.root_mode = xpath::RootMode::kAnywhere;
    expect_at_least(relaxed, "mono-root", "absolute -> anywhere root");
  }

  // Dropping a predicate leaf (and any order constraint on it) can only
  // grow the result.
  std::vector<int> droppable;
  for (int i = 1; i < static_cast<int>(q.size()); ++i) {
    if (q.nodes[i].children.empty() && i != q.target) droppable.push_back(i);
  }
  if (!droppable.empty()) {
    const int victim = droppable[rng.Index(droppable.size())];
    std::vector<bool> keep(q.size(), true);
    keep[victim] = false;
    expect_at_least(q.SubQuery(keep), "mono-predicate", "dropped a leaf");
  }

  // Dropping a value predicate can only grow the result.
  std::vector<int> valued;
  for (int i = 0; i < static_cast<int>(q.size()); ++i) {
    if (q.nodes[i].value_filter.has_value()) valued.push_back(i);
  }
  if (!valued.empty()) {
    xpath::Query relaxed = q;
    relaxed.nodes[valued[rng.Index(valued.size())]].value_filter.reset();
    expect_at_least(relaxed, "mono-value", "dropped a value predicate");
  }

  // The order-unconstrained query covers the order-constrained one.
  if (!q.orders.empty()) {
    xpath::Query relaxed = q;
    relaxed.orders.clear();
    expect_at_least(relaxed, "mono-order", "dropped order constraints");
  }
}

void Harness::CheckQueryString(const TestBed& bed, Rng& rng,
                               const std::string& raw, Report* rep) const {
  const std::string stripped = xpath::StripWhitespace(raw);
  auto parsed = xpath::ParseXPath(stripped);
  if (!parsed.ok()) {
    ++rep->parse_rejected;
    return;
  }
  ++rep->parse_ok;
  const xpath::Query& q = parsed.value();
  if (Status v = q.Validate(); !v.ok()) {
    rep->findings.push_back(MakeFinding(
        "query", "parse-validate",
        "ParseXPath returned a query failing Validate: " + v.ToString(), raw));
    return;
  }

  const xpath::Query canon = xpath::Canonicalize(q);
  const std::string key = xpath::SerializeKey(canon);
  if (xpath::SerializeKey(xpath::Canonicalize(canon)) != key) {
    rep->findings.push_back(MakeFinding(
        "query", "canonical-idempotent",
        "Canonicalize(Canonicalize(q)) differs from Canonicalize(q)", raw));
  }

  // ToString must render a query that parses back to the same canonical
  // key (the escape-aware renderer is what makes this hold for value
  // predicates containing quotes and backslashes).
  auto reparsed = xpath::ParseXPath(q.ToString());
  if (!reparsed.ok()) {
    rep->findings.push_back(
        MakeFinding("query", "tostring-roundtrip",
                    "ToString output failed to parse: '" + q.ToString() +
                        "': " + reparsed.status().ToString(),
                    raw));
  } else if (xpath::CanonicalKey(reparsed.value()) != key) {
    rep->findings.push_back(MakeFinding(
        "query", "tostring-roundtrip",
        "ToString output parsed to a different query: '" + q.ToString() + "'",
        raw));
  }

  struct Variant {
    const char* label;
    const estimator::Synopsis* syn;
  };
  const Variant variants[] = {{"exact", bed.exact.get()},
                              {"coarse", bed.coarse.get()},
                              {"no-order", bed.no_order.get()}};
  for (const Variant& var : variants) {
    estimator::Estimator est(*var.syn);
    auto e1 = est.Estimate(q);
    auto e2 = est.Estimate(canon);
    ++rep->estimates_checked;
    if (e1.ok() != e2.ok() ||
        (!e1.ok() && e1.status().code() != e2.status().code())) {
      rep->findings.push_back(MakeFinding(
          "query", "canonical-status",
          StrFormat("Estimate(q)=%s but Estimate(canon)=%s [%s/%s]",
                    e1.status().ToString().c_str(),
                    e2.status().ToString().c_str(), bed.name.c_str(),
                    var.label),
          raw));
      continue;
    }
    if (e1.ok() && !BitwiseEq(e1.value(), e2.value())) {
      rep->findings.push_back(MakeFinding(
          "query", "canonical-bitwise",
          StrFormat("Estimate(q)=%.17g but Estimate(canon)=%.17g [%s/%s]",
                    e1.value(), e2.value(), bed.name.c_str(), var.label),
          raw));
    }
    if (e1.ok() && (!std::isfinite(e1.value()) || e1.value() < 0)) {
      rep->findings.push_back(MakeFinding(
          "query", "estimate-range",
          StrFormat("estimate %.17g not finite/non-negative [%s/%s]",
                    e1.value(), bed.name.c_str(), var.label),
          raw));
    }
  }

  // Theorem 4.1: on a recursion-free document with v=0 histograms, the
  // estimate of a plain chain (no branches, orders, wildcards or value
  // predicates; target = the leaf) equals the exact count.
  if (bed.recursion_free && q.orders.empty()) {
    bool plain_chain = q.nodes[q.target].children.empty();
    for (const auto& n : q.nodes) {
      plain_chain &= n.children.size() <= 1 && n.tag != "*" &&
                     !n.value_filter.has_value();
    }
    if (plain_chain) {
      estimator::Estimator est(*bed.exact);
      auto e = est.Estimate(q);
      auto c = bed.exact_eval->Count(q);
      if (e.ok() && c.ok()) {
        const double exact = static_cast<double>(c.value());
        if (std::abs(e.value() - exact) > 1e-6 * std::max(1.0, exact)) {
          rep->findings.push_back(MakeFinding(
              "query", "theorem-4.1",
              StrFormat("estimate %.17g != exact count %.0f on '%s' [bed %s]",
                        e.value(), exact, q.ToString().c_str(),
                        bed.name.c_str()),
              raw));
        }
      }
    }
  }

  CheckMonotonicity(bed, rng, q, rep);
}

void Harness::CheckAnalyze(const TestBed& bed, const xpath::Query& q,
                           Report* rep) const {
  const estimator::Synopsis& syn = *bed.exact;
  const xpath::AnalyzerView view{&syn.join_index(), &syn.tag_ids(),
                                 syn.root_tag()};

  const xpath::Query canon = xpath::Canonicalize(q);
  const std::string rendered = q.ToString();

  // Oracle: prune soundness. A kUnsat verdict claims the exact count is
  // 0 on the very document the synopsis summarizes — the one claim the
  // whole pruning fast path rests on. The exact evaluator is the judge;
  // one nonzero count is a finding.
  const xpath::Analysis analysis = xpath::AnalyzeSatisfiability(canon, view);
  if (analysis.verdict == xpath::SatVerdict::kUnsat) {
    auto count = bed.exact_eval->Count(canon);
    ++rep->monotonic_checked;
    if (count.ok() && count.value() != 0) {
      rep->findings.push_back(MakeFinding(
          "analyze", "prune-unsound",
          StrFormat("analyzer ruled '%s' unsat (%s) but exact count is %llu "
                    "[bed %s]",
                    canon.ToString().c_str(), analysis.reason,
                    static_cast<unsigned long long>(count.value()),
                    bed.name.c_str()),
          rendered));
    }
  }

  // Oracle: the prune_safe claim — the baseline estimator itself
  // answers bitwise 0.0 — against every synopsis variant whose order
  // support satisfies the service's prune gate. This is what makes the
  // pruned outcome invisible in served bits.
  struct Variant {
    const char* label;
    const estimator::Synopsis* syn;
  };
  const Variant variants[] = {{"exact", bed.exact.get()},
                              {"coarse", bed.coarse.get()},
                              {"no-order", bed.no_order.get()}};
  if (analysis.verdict == xpath::SatVerdict::kUnsat && analysis.prune_safe) {
    for (const Variant& var : variants) {
      if (!canon.orders.empty() && !var.syn->has_order()) continue;
      estimator::Estimator est(*var.syn);
      auto e = est.Estimate(canon);
      ++rep->estimates_checked;
      if (!e.ok() || !BitwiseEq(e.value(), 0.0)) {
        rep->findings.push_back(MakeFinding(
            "analyze", "prune-bitwise",
            StrFormat("prune_safe verdict (%s) but Estimate='%s'/%.17g on "
                      "'%s' [%s/%s]",
                      analysis.reason, e.status().ToString().c_str(),
                      e.ok() ? e.value() : -1.0, canon.ToString().c_str(),
                      bed.name.c_str(), var.label),
            rendered));
      }
    }
  }
}

Report Harness::RunAnalyzeFuzz(const FuzzOptions& options) const {
  Report rep;
  Rng master(options.seed);
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng it = master.Split();
    const TestBed& bed = *beds_[it.Index(beds_.size())];
    const std::string s = GenerateQueryString(it, bed.tags);
    auto parsed = xpath::ParseXPath(xpath::StripWhitespace(s));
    ++rep.iterations;
    if (!parsed.ok()) {
      ++rep.parse_rejected;
      continue;
    }
    ++rep.parse_ok;
    xpath::Query q = std::move(parsed).value();
    // Programmatic mutations reach shapes the string grammar produces
    // only rarely (absolute roots off the document root, unknown tags at
    // chosen positions) or never (reversed order constraints, whose
    // multi-constraint estimates must still be 0 under a structural
    // prune).
    if (it.Bernoulli(0.3)) {
      switch (it.Index(3)) {
        case 0:
          q.nodes[it.Index(q.size())].tag = "zz-no-such-tag";
          break;
        case 1:
          q.root_mode = xpath::RootMode::kAbsolute;
          q.nodes[0].axis = xpath::StructAxis::kChild;
          q.nodes[0].tag = bed.tags[it.Index(bed.tags.size())];
          break;
        case 2:
          if (!q.orders.empty()) {
            const xpath::OrderConstraint oc =
                q.orders[it.Index(q.orders.size())];
            q.orders.push_back({oc.kind, oc.after, oc.before});
          }
          break;
      }
      if (!q.Validate().ok()) continue;  // mutation broke an invariant
    }
    CheckAnalyze(bed, q, &rep);
  }
  return rep;
}

void Harness::CheckSynopsisBlob(const TestBed& bed, const std::string& blob,
                                Report* rep) const {
  auto r = estimator::Synopsis::Deserialize(blob);
  if (!r.ok()) {
    ++rep->parse_rejected;
    return;
  }
  ++rep->parse_ok;
  const estimator::Synopsis& syn = r.value();

  // An accepted blob is canonical: re-serializing the loaded synopsis
  // reproduces it byte for byte.
  const std::string again = syn.Serialize();
  ++rep->roundtrips_checked;
  if (again != blob) {
    rep->findings.push_back(MakeFinding(
        "synopsis", "reserialize-identity",
        StrFormat("accepted blob (%zu bytes) re-serialized to different "
                  "bytes (%zu) [bed %s]",
                  blob.size(), again.size(), bed.name.c_str()),
        blob, /*hex_input=*/true));
  }

  // Probe estimates over the mutant's own alphabet: accepted data may
  // be semantically absurd (NaN frequencies are representable), but
  // estimation must stay a clean Result, never UB.
  estimator::Estimator est(syn);
  const std::string& t0 = syn.TagName(0);
  const std::string& root = syn.TagName(syn.root_tag());
  const std::string& last =
      syn.TagName(static_cast<xml::TagId>(syn.TagCount() - 1));
  const std::string probes[] = {
      "//" + t0, "/" + root + "//" + last, "/" + root + "[" + t0 + "]//" + last,
      "//" + root + "/" + t0 + "/following-sibling::" + last};
  for (const std::string& probe : probes) {
    auto parsed = xpath::ParseXPath(probe);
    if (!parsed.ok()) continue;  // mutated tag names may be unparseable
    (void)est.Estimate(parsed.value());
    ++rep->estimates_checked;
  }
}

void Harness::CheckXmlString(const std::string& xml_text, Report* rep) const {
  auto p1 = xml::ParseXml(xml_text);
  if (!p1.ok()) {
    ++rep->parse_rejected;
    return;
  }
  ++rep->parse_ok;

  // Write/Parse idempotence: the writer's output is a fixed point.
  const std::string w1 = xml::WriteXml(p1.value());
  auto p2 = xml::ParseXml(w1);
  ++rep->roundtrips_checked;
  if (!p2.ok()) {
    rep->findings.push_back(
        MakeFinding("xml", "write-reparse",
                    "WriteXml output failed to parse: " + p2.status().ToString(),
                    xml_text));
    return;
  }
  const std::string w2 = xml::WriteXml(p2.value());
  if (w2 != w1) {
    rep->findings.push_back(MakeFinding(
        "xml", "write-idempotent",
        StrFormat("Write(Parse(Write(doc))) diverged (%zu vs %zu bytes)",
                  w2.size(), w1.size()),
        xml_text));
  }

  // Survivors feed synopsis construction and estimation. Build is the
  // expensive step, so big documents are subsampled — deterministically,
  // keyed off the payload, since this path has no Rng.
  const xml::Document& doc = p2.value();
  const bool build_synopsis =
      doc.NodeCount() <= 64 ||
      (doc.NodeCount() <= 2000 && xpath::StableHash64(xml_text) % 4 == 0);
  if (build_synopsis) {
    estimator::Synopsis syn =
        estimator::Synopsis::Build(doc, estimator::SynopsisOptions{});
    estimator::Estimator est(syn);
    const std::string probes[] = {"//" + syn.TagName(0),
                                  "/" + syn.TagName(syn.root_tag())};
    for (const std::string& probe : probes) {
      auto parsed = xpath::ParseXPath(probe);
      if (!parsed.ok()) continue;
      auto e = est.Estimate(parsed.value());
      ++rep->estimates_checked;
      if (e.ok() && (!std::isfinite(e.value()) || e.value() < 0)) {
        rep->findings.push_back(MakeFinding(
            "xml", "estimate-range",
            StrFormat("estimate %.17g from a real document synopsis on '%s'",
                      e.value(), probe.c_str()),
            xml_text));
      }
    }
  }
}

Report Harness::RunQueryFuzz(const FuzzOptions& options) const {
  Report rep;
  Rng master(options.seed);
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng it = master.Split();
    const TestBed& bed = *beds_[it.Index(beds_.size())];
    std::string s;
    if (it.Bernoulli(options.random_query_prob)) {
      const size_t len = it.UniformInt(0, 40);
      for (size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>(it.UniformInt(0, 255)));
      }
    } else {
      s = GenerateQueryString(it, bed.tags);
      if (it.Bernoulli(options.mutate_query_prob)) {
        Mutate(it, &s, 1 + it.Index(3));
      }
    }
    CheckQueryString(bed, it, s, &rep);
    ++rep.iterations;
  }
  return rep;
}

Report Harness::RunSynopsisFuzz(const FuzzOptions& options) const {
  Report rep;
  Rng master(options.seed);
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng it = master.Split();
    const TestBed& bed = *beds_[it.Index(beds_.size())];
    std::string blob = bed.exact_blob;
    // One input in ten is the pristine blob — the guaranteed-accept path
    // that keeps the roundtrip oracle honest even if mutants all die in
    // the header.
    if (!it.Bernoulli(0.1)) {
      Mutate(it, &blob, 1 + it.Index(std::max<size_t>(options.max_edits, 1)));
    }
    CheckSynopsisBlob(bed, blob, &rep);
    ++rep.iterations;
  }
  return rep;
}

Report Harness::RunXmlFuzz(const FuzzOptions& options) const {
  Report rep;
  Rng master(options.seed);
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng it = master.Split();
    const TestBed& bed = *beds_[it.Index(beds_.size())];
    std::string text = bed.xml_text;
    if (!it.Bernoulli(0.1)) {
      Mutate(it, &text, 1 + it.Index(std::max<size_t>(options.max_edits, 1)));
    }
    CheckXmlString(text, &rep);
    ++rep.iterations;
  }
  return rep;
}

Report Harness::RunServiceFuzz(const FuzzOptions& options) const {
  Report rep;
  Rng master(options.seed);
  service::ServiceOptions service_opt;
  service_opt.plan_cache_bytes = 1 << 16;  // tiny: force evictions
  service_opt.cache_shards = 2;
  service_opt.threads = 2;
  service::EstimationService svc(service_opt);
  for (const auto& bed : beds_) {
    svc.registry().Register(bed->name, bed->exact);
  }

  for (size_t i = 0; i < options.iterations; ++i) {
    Rng it = master.Split();
    const size_t n = 1 + it.Index(8);
    std::vector<service::QueryRequest> batch;
    std::vector<Result<double>> want;
    batch.reserve(n);
    want.reserve(n);
    for (size_t j = 0; j < n; ++j) {
      const TestBed& bed = *beds_[it.Index(beds_.size())];
      const bool bogus = it.Bernoulli(0.05);
      const std::string qs = GenerateQueryString(it, bed.tags);
      batch.push_back(service::QueryRequest{
          bogus ? "no-such-synopsis" : bed.name, Whitespaced(it, qs)});
      // Reference result computed outside the service: the cache and the
      // pool must be invisible in the bits.
      if (bogus) {
        want.push_back(Status(StatusCode::kNotFound, "unregistered"));
      } else {
        auto parsed = xpath::ParseXPath(xpath::StripWhitespace(qs));
        if (!parsed.ok()) {
          want.push_back(parsed.status());
        } else {
          estimator::Estimator est(*bed.exact);
          want.push_back(est.Estimate(xpath::Canonicalize(parsed.value())));
        }
      }
    }

    auto check = [&](const std::vector<service::EstimateOutcome>& got,
                     const char* pass) {
      for (size_t j = 0; j < n; ++j) {
        const Result<double>& w = want[j];
        const service::EstimateOutcome& g = got[j];
        ++rep.estimates_checked;
        // No admission cap, no faults, full-fidelity synopses with
        // infinite deadlines: nothing here may shed or degrade.
        if (g.shed || g.degraded) {
          rep.findings.push_back(MakeFinding(
              "service", "batch-metadata",
              StrFormat("%s pass: unexpected %s outcome [synopsis %s]", pass,
                        g.shed ? "shed" : "degraded",
                        batch[j].synopsis.c_str()),
              batch[j].xpath));
          continue;
        }
        if (g.ok() != w.ok() ||
            (!g.ok() && g.status().code() != w.status().code())) {
          rep.findings.push_back(MakeFinding(
              "service", "batch-status",
              StrFormat("%s pass: service=%s reference=%s [synopsis %s]", pass,
                        g.status().ToString().c_str(),
                        w.status().ToString().c_str(),
                        batch[j].synopsis.c_str()),
              batch[j].xpath));
        } else if (g.ok() && !BitwiseEq(g.value(), w.value())) {
          rep.findings.push_back(MakeFinding(
              "service", "batch-bitwise",
              StrFormat("%s pass: service=%.17g reference=%.17g [synopsis %s]",
                        pass, g.value(), w.value(), batch[j].synopsis.c_str()),
              batch[j].xpath));
        }
      }
    };

    auto cold = svc.EstimateBatch(batch);
    check(cold, "cold");
    auto warm = svc.EstimateBatch(batch);  // now served from the answer cache
    check(warm, "warm");

    if (it.Bernoulli(0.2)) svc.ClearPlanCache();
    if (it.Bernoulli(0.1)) {
      // Re-register the same synopsis: the epoch bump invalidates every
      // cached plan, but not the answers.
      const TestBed& bed = *beds_[it.Index(beds_.size())];
      svc.registry().Register(bed.name, bed.exact);
    }
    ++rep.iterations;
  }
  return rep;
}

Report Harness::RunChaosFuzz(const FuzzOptions& options) const {
  Report rep;
  FaultInjector& faults = FaultInjector::Global();
  faults.Reset();

  service::ServiceOptions service_opt;
  service_opt.plan_cache_bytes = 1 << 16;  // tiny: force evictions
  service_opt.cache_shards = 2;
  service_opt.threads = 1;  // inline batches: deterministic fault order
  service_opt.max_inflight = 3;
  service_opt.retry_after_ms = 2;
  service_opt.trace_sample = 1;  // trace every request: span oracles below
  service_opt.trace_capacity = 64;
  service_opt.slow_trace_ns = 2'000'000;
  service::EstimationService svc(service_opt);
  for (const auto& bed : beds_) {
    svc.registry().Register(bed->name, bed->exact);
  }

  // Metric invariant: a fault site never fires past its armed budget.
  // Budgets are remembered at Arm time and checked before every Reset
  // (which clears the injector's own per-site fire counts).
  std::vector<std::pair<std::string, uint64_t>> armed_budgets;
  auto check_fault_budgets = [&] {
    for (const auto& [site, max_fires] : armed_budgets) {
      const uint64_t fires = faults.FireCount(site);
      if (fires > max_fires) {
        rep.findings.push_back(MakeFinding(
            "chaos", "fault-budget",
            StrFormat("site %s fired %llu times with max_fires=%llu",
                      site.c_str(), static_cast<unsigned long long>(fires),
                      static_cast<unsigned long long>(max_fires)),
            site));
      }
    }
    armed_budgets.clear();
  };

  Rng master(options.seed);
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng it = master.Split();

    // Rotate the armed fault set: forced deadline expiry and injected
    // allocation failures come and go with seeded budgets.
    if (it.Bernoulli(0.3)) {
      check_fault_budgets();
      faults.Reset();
      if (it.Bernoulli(0.5)) {
        FaultConfig cfg;
        cfg.probability = 0.5;
        cfg.skip = it.Index(4);
        cfg.max_fires = 1 + it.Index(3);
        cfg.seed = it.Next();
        faults.Arm(std::string(Deadline::kFaultSite), cfg);
        armed_budgets.emplace_back(std::string(Deadline::kFaultSite),
                                   cfg.max_fires);
      }
      if (it.Bernoulli(0.3)) {
        FaultConfig cfg;
        cfg.probability = 0.5;
        cfg.max_fires = 1 + it.Index(2);
        cfg.seed = it.Next();
        faults.Arm(std::string(estimator::Estimator::kAllocFaultSite), cfg);
        armed_budgets.emplace_back(
            std::string(estimator::Estimator::kAllocFaultSite),
            cfg.max_fires);
      }
    }

    // Chaos reload: push a serialized synopsis through the registry,
    // sometimes with one bit of injected rot.
    if (it.Bernoulli(0.15)) {
      const TestBed& bed = *beds_[it.Index(beds_.size())];
      const bool rot = it.Bernoulli(0.5);
      if (rot) {
        FaultConfig cfg;
        cfg.payload = it.Next();
        cfg.max_fires = 1;
        cfg.seed = it.Next();
        faults.Arm(std::string(service::SynopsisRegistry::kBitrotFaultSite),
                   cfg);
      }
      const service::LoadOutcome lo =
          svc.registry().RegisterSerialized(bed.name, bed.exact_blob);
      faults.Disarm(std::string(service::SynopsisRegistry::kBitrotFaultSite));
      ++rep.roundtrips_checked;
      if (!rot && (!lo.ok() || lo.order_dropped)) {
        rep.findings.push_back(MakeFinding(
            "chaos", "clean-load",
            StrFormat("pristine blob failed to register at full fidelity: "
                      "%s [bed %s]",
                      lo.status.ToString().c_str(), bed.name.c_str()),
            bed.name));
      }
      if (!lo.ok() && !svc.registry().Quarantined(bed.name).has_value()) {
        rep.findings.push_back(MakeFinding(
            "chaos", "quarantine",
            StrFormat("rejected load left '%s' unquarantined",
                      bed.name.c_str()),
            bed.name));
      }
    }

    // A batch under chaotic deadlines and admission pressure.
    const size_t n = 1 + it.Index(6);
    std::vector<service::QueryRequest> batch;
    std::vector<bool> born_expired;
    batch.reserve(n);
    born_expired.reserve(n);
    for (size_t j = 0; j < n; ++j) {
      const TestBed& bed = *beds_[it.Index(beds_.size())];
      service::QueryRequest req;
      req.synopsis = it.Bernoulli(0.05) ? "no-such-synopsis" : bed.name;
      req.xpath = Whitespaced(it, GenerateQueryString(it, bed.tags));
      req.allow_degraded = it.Bernoulli(0.8);
      const double roll = it.UniformDouble();
      bool expired = false;
      if (roll < 0.2) {
        req.deadline = Deadline::AlreadyExpired();
        expired = true;
      } else if (roll < 0.4) {
        req.deadline = Deadline::AfterMicros(
            static_cast<int64_t>(1 + it.Index(200)));
      }  // else: infinite
      born_expired.push_back(expired);
      batch.push_back(std::move(req));
    }

    const uint64_t req_before = svc.obs().CounterValue("service.requests");
    const uint64_t shed_before =
        svc.obs().CounterValue("service.outcome", "reason=shed");
    const auto got = svc.EstimateBatch(batch);
    // Metric conservation: every batch member is counted exactly once,
    // shed counter matches the shed outcomes, and with the batch done
    // (single service, no concurrent callers) nothing is left in flight.
    const uint64_t req_delta =
        svc.obs().CounterValue("service.requests") - req_before;
    uint64_t shed_got = 0;
    for (const auto& g : got) shed_got += g.shed ? 1 : 0;
    const uint64_t shed_delta =
        svc.obs().CounterValue("service.outcome", "reason=shed") - shed_before;
    if (req_delta != n || shed_delta != shed_got) {
      rep.findings.push_back(MakeFinding(
          "chaos", "metric-conservation",
          StrFormat("batch of %zu: requests+=%llu, shed counter +=%llu vs "
                    "%llu shed outcomes",
                    n, static_cast<unsigned long long>(req_delta),
                    static_cast<unsigned long long>(shed_delta),
                    static_cast<unsigned long long>(shed_got)),
          batch[0].xpath));
    }
    if (svc.obs().GaugeValue("service.inflight") != 0) {
      rep.findings.push_back(MakeFinding(
          "chaos", "inflight-gauge",
          StrFormat("inflight gauge reads %lld after the batch returned",
                    static_cast<long long>(
                        svc.obs().GaugeValue("service.inflight"))),
          batch[0].xpath));
    }
    // Trace oracle: stages are disjoint sub-intervals of the request,
    // so their sum can never exceed the recorded wall time — on the
    // head-sampled ring and the tail-retained ring alike (chaos drives
    // plenty of traffic into both: every fault outcome is tail-kept).
    const std::vector<obs::TraceRecord> recent_traces =
        svc.traces().Recent();
    const std::vector<obs::TraceRecord> tail_traces = svc.traces().Tail();
    auto check_trace_spans = [&](const obs::TraceRecord& t,
                                 const char* ring) {
      if (t.spans.SumNs() > t.total_ns) {
        rep.findings.push_back(MakeFinding(
            "chaos", "trace-spans",
            StrFormat("%s trace seq %llu: stage sum %llu ns > total %llu ns",
                      ring, static_cast<unsigned long long>(t.seq),
                      static_cast<unsigned long long>(t.spans.SumNs()),
                      static_cast<unsigned long long>(t.total_ns)),
            t.query));
      }
    };
    for (const obs::TraceRecord& t : recent_traces) {
      check_trace_spans(t, "recent");
    }
    for (const obs::TraceRecord& t : tail_traces) {
      check_trace_spans(t, "tail");
    }
    // Exactly-one-ring routing: a completed request lands on the tail
    // ring or the recent ring, never both — the same seq on both would
    // double-count it in the span oracles and the tracez export.
    for (const obs::TraceRecord& t : tail_traces) {
      for (const obs::TraceRecord& r : recent_traces) {
        if (t.seq == r.seq) {
          rep.findings.push_back(MakeFinding(
              "chaos", "trace-double-retained",
              StrFormat("trace seq %llu retained on both rings",
                        static_cast<unsigned long long>(t.seq)),
              t.query));
        }
      }
    }
    for (size_t j = 0; j < n; ++j) {
      const service::EstimateOutcome& g = got[j];
      ++rep.estimates_checked;
      const StatusCode code = g.status().code();
      const bool legal =
          code == StatusCode::kOk || code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kOverloaded || code == StatusCode::kNotFound ||
          code == StatusCode::kUnavailable ||
          code == StatusCode::kUnsupported ||
          code == StatusCode::kParseError ||
          code == StatusCode::kInvalidArgument ||
          code == StatusCode::kInternal;
      if (!legal) {
        rep.findings.push_back(MakeFinding(
            "chaos", "status-surface",
            "status outside the serving contract: " + g.status().ToString(),
            batch[j].xpath));
      }
      if (g.ok() && (!std::isfinite(g.value()) || g.value() < 0)) {
        rep.findings.push_back(MakeFinding(
            "chaos", "estimate-range",
            StrFormat("estimate %.17g not finite/non-negative under chaos",
                      g.value()),
            batch[j].xpath));
      }
      if (g.shed != (code == StatusCode::kOverloaded)) {
        rep.findings.push_back(MakeFinding(
            "chaos", "shed-status",
            StrFormat("shed=%d but status=%s", g.shed ? 1 : 0,
                      g.status().ToString().c_str()),
            batch[j].xpath));
      }
      if (g.shed && g.retry_after_ms == 0) {
        rep.findings.push_back(MakeFinding(
            "chaos", "retry-hint", "shed outcome carries no retry hint",
            batch[j].xpath));
      }
      if (born_expired[j] && g.ok()) {
        rep.findings.push_back(MakeFinding(
            "chaos", "expired-deadline",
            "request that arrived expired was served a value",
            batch[j].xpath));
      }
      if (!batch[j].allow_degraded && g.degraded) {
        rep.findings.push_back(MakeFinding(
            "chaos", "degraded-opt-out",
            "degraded answer served to a full-fidelity request",
            batch[j].xpath));
      }
    }

    // Recovery oracle: with the faults gone and a clean version
    // registered, full fidelity comes back, bit for bit.
    if (it.Bernoulli(0.25)) {
      check_fault_budgets();
      faults.Reset();
      const TestBed& bed = *beds_[it.Index(beds_.size())];
      svc.registry().Register(bed.name, bed.exact);
      const std::string qs = GenerateQueryString(it, bed.tags);
      service::QueryRequest req;
      req.synopsis = bed.name;
      req.xpath = qs;
      req.allow_degraded = false;
      const service::EstimateOutcome g = svc.Estimate(req);
      ++rep.estimates_checked;
      Result<double> w{0.0};
      auto parsed = xpath::ParseXPath(xpath::StripWhitespace(qs));
      if (!parsed.ok()) {
        w = parsed.status();
      } else {
        estimator::Estimator est(*bed.exact);
        w = est.Estimate(xpath::Canonicalize(parsed.value()));
      }
      if (g.shed || g.degraded) {
        rep.findings.push_back(MakeFinding(
            "chaos", "recovery",
            StrFormat("post-recovery request was %s",
                      g.shed ? "shed" : "degraded"),
            qs));
      } else if (g.ok() != w.ok() ||
                 (!g.ok() && g.status().code() != w.status().code())) {
        rep.findings.push_back(MakeFinding(
            "chaos", "recovery",
            StrFormat("post-recovery: service=%s reference=%s [bed %s]",
                      g.status().ToString().c_str(),
                      w.status().ToString().c_str(), bed.name.c_str()),
            qs));
      } else if (g.ok() && !BitwiseEq(g.value(), w.value())) {
        rep.findings.push_back(MakeFinding(
            "chaos", "recovery",
            StrFormat("post-recovery: service=%.17g reference=%.17g [bed %s]",
                      g.value(), w.value(), bed.name.c_str()),
            qs));
      }
    }
    ++rep.iterations;
  }
  check_fault_budgets();
  faults.Reset();

  // Live-churn interleavings: a second service with a live-registered
  // document takes concurrent ApplyDelta / Estimate / ScheduleRebuild
  // traffic while rebuild.alloc and rebuild.slow are armed. Thread
  // scheduling is nondeterministic, so the oracles here are the
  // schedule-independent serving invariants: every delta attempt is
  // either applied or cleanly rejected, the rebuild ledger balances
  // after a drain (scheduled = completed + abandoned), the drained
  // state machine is out of `rebuilding`, and once the faults clear a
  // final rebuild completes, bumps the epoch, and lands the version in
  // `healthy`. Run under TSan this block is first of all a data-race
  // net over the maintenance paths.
  const TestBed& churn_bed = *beds_.front();  // paper bed's tag alphabet
  const size_t churn_rounds = options.iterations / 64 + 1;
  for (size_t round = 0; round < churn_rounds; ++round) {
    Rng it = master.Split();
    service::ServiceOptions churn_opt;
    churn_opt.threads = 2;
    churn_opt.auto_rebuild = true;
    churn_opt.patch_error_budget = 0.02;  // tiny: novel churn trips it
    service::EstimationService svc(churn_opt);
    svc.RegisterLive("live", MakeFigure1Document());

    FaultConfig alloc;
    alloc.probability = 0.5;
    alloc.max_fires = 2;
    alloc.seed = it.Next();
    faults.Arm(service::MaintenanceManager::kAllocFaultSite, alloc);
    armed_budgets.emplace_back(service::MaintenanceManager::kAllocFaultSite,
                               alloc.max_fires);
    FaultConfig slow;
    slow.probability = 0.5;
    slow.payload = 1;  // ms: widens the estimate-during-rebuild window
    slow.max_fires = 2;
    slow.seed = it.Next();
    faults.Arm(service::MaintenanceManager::kSlowFaultSite, slow);
    armed_budgets.emplace_back(service::MaintenanceManager::kSlowFaultSite,
                               slow.max_fires);

    constexpr size_t kDeltas = 8;
    constexpr size_t kEstimates = 24;
    constexpr size_t kSchedules = 3;
    size_t delta_attempts = 0;
    std::vector<Finding> mutator_findings, estimator_findings;

    std::thread mutator([&, seed = it.Next()]() {
      Rng rng(seed);
      uint64_t novel = 0;
      for (size_t k = 0; k < kDeltas; ++k) {
        delta::DocumentDelta dd;
        // Only this thread mutates, and compaction preserves both the
        // live node count and preorder ranks, so counts and ranks read
        // here stay valid through the concurrent rebuilds.
        const size_t nodes = svc.maintenance().LiveNodeCount("live");
        const double r = rng.UniformDouble();
        if (r < 0.5 && nodes >= 2) {
          auto op = svc.maintenance().CloneOp(
              "live", static_cast<uint32_t>(rng.UniformInt(1, nodes - 1)));
          if (!op.ok()) {
            mutator_findings.push_back(
                MakeFinding("chaos", "churn-delta",
                            "in-range clone op rejected: " +
                                op.status().ToString(),
                            "live"));
            continue;
          }
          dd.ops.push_back(std::move(op).value());
        } else if (r < 0.85 || nodes < 4) {
          delta::DeltaOp op;
          op.kind = delta::DeltaOp::Kind::kInsert;
          op.target = static_cast<uint32_t>(rng.UniformInt(0, nodes - 1));
          op.subtree.tags.push_back(StrFormat(
              "churn%llu", static_cast<unsigned long long>(novel++)));
          op.subtree.parent.push_back(-1);
          dd.ops.push_back(std::move(op));
        } else {
          delta::DeltaOp op;
          op.kind = delta::DeltaOp::Kind::kDelete;
          op.target = static_cast<uint32_t>(rng.UniformInt(1, nodes - 1));
          dd.ops.push_back(std::move(op));
        }
        ++delta_attempts;
        auto out = svc.ApplyDelta("live", dd);
        if (!out.ok() &&
            out.status().code() != StatusCode::kInvalidArgument) {
          mutator_findings.push_back(MakeFinding(
              "chaos", "churn-delta",
              "delta rejected outside the contract: " +
                  out.status().ToString(),
              "live"));
        }
      }
    });
    std::thread estimator([&, seed = it.Next()]() {
      Rng rng(seed);
      for (size_t k = 0; k < kEstimates; ++k) {
        const std::string qs = GenerateQueryString(rng, churn_bed.tags);
        const service::EstimateOutcome g = svc.Estimate("live", qs);
        const StatusCode code = g.status().code();
        const bool legal =
            code == StatusCode::kOk || code == StatusCode::kDeadlineExceeded ||
            code == StatusCode::kOverloaded || code == StatusCode::kNotFound ||
            code == StatusCode::kUnavailable ||
            code == StatusCode::kUnsupported ||
            code == StatusCode::kParseError ||
            code == StatusCode::kInvalidArgument ||
            code == StatusCode::kInternal;
        if (!legal) {
          estimator_findings.push_back(MakeFinding(
              "chaos", "status-surface",
              "status outside the serving contract under churn: " +
                  g.status().ToString(),
              qs));
        }
        if (g.ok() && (!std::isfinite(g.value()) || g.value() < 0)) {
          estimator_findings.push_back(MakeFinding(
              "chaos", "estimate-range",
              StrFormat("estimate %.17g not finite/non-negative under churn",
                        g.value()),
              qs));
        }
      }
    });
    std::thread scheduler([&]() {
      for (size_t k = 0; k < kSchedules; ++k) {
        svc.ScheduleRebuild("live", "manual");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    mutator.join();
    estimator.join();
    scheduler.join();
    rep.estimates_checked += kEstimates;
    for (Finding& f : mutator_findings) rep.findings.push_back(std::move(f));
    for (Finding& f : estimator_findings) rep.findings.push_back(std::move(f));

    if (!svc.DrainMaintenance(10'000)) {
      rep.findings.push_back(MakeFinding(
          "chaos", "churn-drain", "maintenance did not drain within 10s",
          "live"));
    }
    check_fault_budgets();
    faults.Reset();

    auto live_row = [&]() -> service::MaintenanceRow {
      for (service::MaintenanceRow& r : svc.maintenance().Rows()) {
        if (r.name == "live") return std::move(r);
      }
      return {};
    };
    const service::MaintenanceRow drained = live_row();
    if (drained.state == service::MaintenanceState::kRebuilding) {
      rep.findings.push_back(MakeFinding(
          "chaos", "churn-ledger", "drained but still `rebuilding`", "live"));
    }
    if (drained.rebuilds_scheduled !=
        drained.rebuilds_completed + drained.rebuilds_abandoned) {
      rep.findings.push_back(MakeFinding(
          "chaos", "churn-ledger",
          StrFormat("rebuild ledger unbalanced after drain: scheduled=%llu "
                    "completed=%llu abandoned=%llu",
                    static_cast<unsigned long long>(
                        drained.rebuilds_scheduled),
                    static_cast<unsigned long long>(
                        drained.rebuilds_completed),
                    static_cast<unsigned long long>(
                        drained.rebuilds_abandoned)),
          "live"));
    }
    if (drained.deltas_applied + drained.deltas_rejected != delta_attempts) {
      rep.findings.push_back(MakeFinding(
          "chaos", "churn-ledger",
          StrFormat("delta ledger unbalanced: applied=%llu rejected=%llu "
                    "attempts=%zu",
                    static_cast<unsigned long long>(drained.deltas_applied),
                    static_cast<unsigned long long>(drained.deltas_rejected),
                    delta_attempts),
          "live"));
    }

    // Faults are clear and the mutator is quiet: one more scheduled
    // rebuild must complete, bump the epoch, and land in `healthy`.
    svc.ScheduleRebuild("live", "manual");
    if (!svc.DrainMaintenance(10'000)) {
      rep.findings.push_back(MakeFinding(
          "chaos", "churn-recovery",
          "fault-free rebuild did not drain within 10s", "live"));
    }
    const service::MaintenanceRow healed = live_row();
    if (healed.state != service::MaintenanceState::kHealthy ||
        healed.rebuilds_completed != drained.rebuilds_completed + 1 ||
        healed.epoch <= drained.epoch) {
      rep.findings.push_back(MakeFinding(
          "chaos", "churn-recovery",
          StrFormat("fault-free rebuild: state=%s completed %llu -> %llu "
                    "epoch %llu -> %llu",
                    MaintenanceStateName(healed.state),
                    static_cast<unsigned long long>(
                        drained.rebuilds_completed),
                    static_cast<unsigned long long>(
                        healed.rebuilds_completed),
                    static_cast<unsigned long long>(drained.epoch),
                    static_cast<unsigned long long>(healed.epoch)),
          "live"));
    }
  }

  // Black-box rule: every chaos finding ships with a flight-recorder
  // dump, and the dump itself must survive a strict JSON re-parse — an
  // unparseable recorder after a real incident is worth nothing.
  if (!rep.findings.empty()) {
    const std::string dump = svc.FlightzJson();
    if (!json::Parse(dump).ok()) {
      rep.findings.push_back(MakeFinding(
          "chaos", "flight-dump",
          "flight-recorder dump is not valid JSON after chaos findings",
          dump.substr(0, 128)));
    } else {
      std::fprintf(stderr, "chaos flight-recorder dump (%zu findings): %s\n",
                   rep.findings.size(), dump.c_str());
    }
  }
  faults.Reset();
  return rep;
}

Report Harness::RunExportFuzz(const FuzzOptions& options) const {
  Report rep;
  Rng master(options.seed);

  // Bytes that attack the JSON exporters specifically: the quoting
  // characters, C0 controls, DEL, and every class of invalid UTF-8
  // (lone continuation, overlong lead, truncated multi-byte leads).
  static constexpr char kHostile[] = {
      '"', '\\', '\x00', '\x07', '\n', '\r', '\t', '\x1b', '\x7f',
      '\x80', '\xbf', '\xc0', '\xc1', '\xe2', '\xed', '\xf0', '\xf5',
      '\xff'};
  auto hostilize = [&](Rng& rng, std::string s) {
    const size_t edits = 1 + rng.Index(4);
    for (size_t e = 0; e < edits; ++e) {
      const char b = kHostile[rng.Index(sizeof(kHostile))];
      s.insert(rng.Index(s.size() + 1), 1, b);
    }
    return s;
  };

  service::ServiceOptions service_opt;
  service_opt.threads = 2;
  service_opt.trace_sample = 1;  // every request reaches the trace ring
  service_opt.slow_trace_ns = 1;  // ...and the slow ring
  service_opt.accuracy_sample = 1;  // ...and the shadow pipeline
  service_opt.accuracy_max_pending = 1 << 16;
  service_opt.drift_min_samples = 4;
  // The flight-data surfaces ride along: declarative SLOs over the
  // scraped time-series (evaluated by the ObsTick calls below), per-
  // tenant rows keyed by the hostile registry names, and the flight
  // recorder — all three exporters face the same attack bytes.
  service_opt.slos = service::DefaultSloSpecs(0.999, 5'000'000'000, 4.0);
  service::EstimationService svc(service_opt);

  // Registry names are operator-chosen free text; exporters must quote
  // them, so register under names that embed the attack bytes directly.
  std::vector<std::string> names;
  for (const auto& bed : beds_) {
    std::string name = bed->name + "\"\\\x07\xc3\x28";  // \xc3( = bad UTF-8
    // Non-owning aliasing pointer: the bed outlives the service, and
    // attaching ground truth routes the hostile query strings through
    // the shadow pipeline into the ACCZ offender ring as well.
    std::shared_ptr<const xml::Document> doc(
        std::shared_ptr<const xml::Document>(), &bed->doc);
    svc.registry().Register(name, bed->exact, doc);
    names.push_back(std::move(name));
  }

  auto check_surface = [&](const char* surface, const std::string& payload,
                           const std::string& last_input) {
    auto parsed = json::Parse(payload);
    ++rep.roundtrips_checked;
    if (!parsed.ok()) {
      rep.findings.push_back(MakeFinding(
          "export", surface,
          StrFormat("%s is not valid JSON: %s", surface,
                    parsed.status().ToString().c_str()),
          last_input));
    }
  };

  std::string last_input;
  uint64_t vnow_us = 0;  // virtual scrape clock for ObsTick
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng it = master.Split();
    const size_t b = it.Index(beds_.size());
    std::string qs = GenerateQueryString(it, beds_[b]->tags);
    if (it.Bernoulli(0.7)) qs = hostilize(it, std::move(qs));
    last_input = qs;
    // Parse failures and unknown names are fine — the point is that the
    // strings land in the trace ring / offender ring either way.
    (void)svc.Estimate(names[b], qs);
    if (it.Bernoulli(0.1)) {
      (void)svc.Estimate(hostilize(it, "no-such"), qs);
    }

    // Render + strict-parse every surface periodically and at the end
    // (parsing every iteration would dominate the run). The scrape
    // clock advances past one interval first so the time-series store
    // holds fresh points and the SLO engine has evaluated — the alertz
    // and tsz payloads are populated, not trivially empty.
    if (i % 64 == 63 || i + 1 == options.iterations) {
      svc.DrainShadow();
      vnow_us += service_opt.ts_interval_us + 1;
      svc.ObsTick(vnow_us);
      check_surface("statsz", svc.StatszJson(), last_input);
      check_surface("tracez", svc.traces().ToJson(), last_input);
      check_surface("accz", svc.AccuracyJson(), last_input);
      check_surface("healthz", svc.HealthzJson(), last_input);
      check_surface("tsz", svc.TszJson(), last_input);
      check_surface("alertz", svc.AlertzJson(), last_input);
      check_surface("flightz", svc.FlightzJson(), last_input);
    }
    ++rep.iterations;
  }
  return rep;
}

Report Harness::RunAll(const FuzzOptions& options) const {
  // 8:4:6:4:2:2:1 across query/analyze/synopsis/xml/service/delta/
  // export, distinct seed streams (the historical 8:6:4:2:2:1 split
  // with the analyzer battery carved in after the query share).
  FuzzOptions part = options;
  Report rep;
  part.iterations = options.iterations * 8 / 27;
  part.seed = options.seed;
  rep.Merge(RunQueryFuzz(part));
  part.iterations = options.iterations * 4 / 27;
  part.seed = options.seed ^ 0xa0761d6478bd642full;
  rep.Merge(RunAnalyzeFuzz(part));
  part.iterations = options.iterations * 6 / 27;
  part.seed = options.seed ^ 0x9e3779b97f4a7c15ull;
  rep.Merge(RunSynopsisFuzz(part));
  part.iterations = options.iterations * 4 / 27;
  part.seed = options.seed ^ 0xbf58476d1ce4e5b9ull;
  rep.Merge(RunXmlFuzz(part));
  part.iterations = options.iterations * 2 / 27;
  part.seed = options.seed ^ 0x94d049bb133111ebull;
  rep.Merge(RunServiceFuzz(part));
  part.iterations = options.iterations * 2 / 27;
  part.seed = options.seed ^ 0x2545f4914f6cdd1dull;
  rep.Merge(RunDeltaFuzz(part));
  part.iterations = options.iterations - options.iterations * 8 / 27 -
                    options.iterations * 6 / 27 -
                    2 * (options.iterations * 4 / 27) -
                    2 * (options.iterations * 2 / 27);
  part.seed = options.seed ^ 0xd6e8feb86659fd93ull;
  rep.Merge(RunExportFuzz(part));
  return rep;
}

Report Harness::ReplayEntry(const CorpusEntry& entry) const {
  Report rep;
  rep.iterations = 1;
  // Replay is deterministic too: the monotonicity sampling inside the
  // battery keys off the payload, not off wall-clock entropy.
  Rng rng(xpath::StableHash64(entry.data) ^ entry.data.size());

  bool accepted = false;
  switch (entry.kind) {
    case CorpusEntry::Kind::kQuery: {
      accepted = xpath::ParseXPath(xpath::StripWhitespace(entry.data)).ok();
      for (const auto& bed : beds_) {
        CheckQueryString(*bed, rng, entry.data, &rep);
      }
      break;
    }
    case CorpusEntry::Kind::kXml: {
      accepted = xml::ParseXml(entry.data).ok();
      CheckXmlString(entry.data, &rep);
      break;
    }
    case CorpusEntry::Kind::kSynopsis: {
      accepted = estimator::Synopsis::Deserialize(entry.data).ok();
      CheckSynopsisBlob(*beds_[0], entry.data, &rep);
      break;
    }
  }

  if ((entry.expect == CorpusEntry::Expect::kAccept && !accepted) ||
      (entry.expect == CorpusEntry::Expect::kReject && accepted)) {
    rep.findings.push_back(MakeFinding(
        "corpus", "expectation",
        StrFormat("%s: expected %s but input was %s", entry.name.c_str(),
                  entry.expect == CorpusEntry::Expect::kAccept ? "accept"
                                                               : "reject",
                  accepted ? "accepted" : "rejected"),
        entry.data, entry.kind == CorpusEntry::Kind::kSynopsis));
  }
  return rep;
}

Result<Report> Harness::ReplayCorpusDir(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status(StatusCode::kNotFound,
                  "cannot read corpus directory " + dir + ": " + ec.message());
  }
  std::vector<std::filesystem::path> files;
  for (const auto& e : it) {
    if (e.is_regular_file() && e.path().extension() == ".corpus") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());

  Report rep;
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    if (!in) {
      rep.findings.push_back(MakeFinding("corpus", "io",
                                         "failed to read " + path.string(),
                                         path.filename().string()));
      continue;
    }
    auto entry = ParseCorpusEntry(path.filename().string(), contents.str());
    if (!entry.ok()) {
      rep.findings.push_back(MakeFinding("corpus", "format",
                                         entry.status().ToString(),
                                         path.filename().string()));
      continue;
    }
    rep.Merge(ReplayEntry(entry.value()));
  }
  return rep;
}

}  // namespace xee::fuzz
