#include <gtest/gtest.h>

#include <set>

#include "datagen/datagen.h"
#include "encoding/containment.h"
#include "encoding/join_index.h"
#include "encoding/labeling.h"
#include "eval/exact_evaluator.h"
#include "join/structural_join.h"
#include "paper_fixture.h"
#include "workload/workload.h"
#include "xpath/parser.h"

namespace xee::join {
namespace {

using xpath::ParseXPath;

class PaperJoinTest : public ::testing::Test {
 protected:
  PaperJoinTest()
      : doc_(xee::testing::MakePaperDocument()), exec_(doc_), eval_(doc_) {}

  std::vector<xml::NodeId> Run(const std::string& text,
                               const ExecOptions& opt = {},
                               ExecStats* stats = nullptr) {
    auto q = ParseXPath(text);
    EXPECT_TRUE(q.ok()) << text;
    auto r = exec_.Execute(q.value(), opt, stats);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return r.ok() ? r.value() : std::vector<xml::NodeId>{};
  }

  xml::Document doc_;
  StructuralJoinExecutor exec_;
  eval::ExactEvaluator eval_;
};

TEST_F(PaperJoinTest, SimpleChains) {
  EXPECT_EQ(Run("//A").size(), 3u);
  EXPECT_EQ(Run("//A/B/D").size(), 4u);
  EXPECT_EQ(Run("//A//C").size(), 2u);
  EXPECT_EQ(Run("/Root/A").size(), 3u);
  EXPECT_EQ(Run("/A").size(), 0u);
  EXPECT_EQ(Run("//Zzz").size(), 0u);
}

TEST_F(PaperJoinTest, BranchQueriesMatchEvaluator) {
  for (const char* text :
       {"//A[/C/F]/B/D", "//A{t}[/C/F]/B/D", "//C[/E{t}]/F",
        "//A[/B]/C", "//A/*{t}[/E]", "//*{t}/D", "//A{t}/B/E"}) {
    auto q = ParseXPath(text).value();
    auto got = exec_.Execute(q);
    auto expect = eval_.Matches(q);
    ASSERT_TRUE(got.ok() && expect.ok()) << text;
    EXPECT_EQ(got.value(), expect.value()) << text;
  }
}

TEST_F(PaperJoinTest, ResultsInDocumentOrder) {
  auto matches = Run("//A/B/D");
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_TRUE(doc_.IsBefore(matches[i - 1], matches[i]));
  }
}

TEST_F(PaperJoinTest, PruningReducesCandidatesWithoutChangingResults) {
  ExecOptions with, without;
  without.use_pid_pruning = false;
  ExecStats s_with, s_without;
  auto a = Run("//A[/C/F]/B/D", with, &s_with);
  auto b = Run("//A[/C/F]/B/D", without, &s_without);
  EXPECT_EQ(a, b);
  EXPECT_EQ(s_with.candidates_initial, s_without.candidates_initial);
  // Without pruning, candidate lists enter the join at full size.
  EXPECT_EQ(s_without.candidates_pruned, s_without.candidates_initial);
  EXPECT_LT(s_with.candidates_pruned, s_with.candidates_initial);
}

TEST_F(PaperJoinTest, OrderQueriesUnsupported) {
  auto q = ParseXPath("//A[/C/following-sibling::B]").value();
  auto r = exec_.Execute(q);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

// Cross-validation on generated workloads: the structural-join executor
// and the exact evaluator are independent implementations and must agree
// on every non-order query.
class JoinDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(JoinDatasetTest, AgreesWithExactEvaluatorOnWorkload) {
  datagen::GenOptions gopt;
  gopt.scale = 0.05;
  xml::Document doc = datagen::GenerateByName(GetParam(), gopt).value();
  workload::WorkloadOptions wopt;
  wopt.simple_count = 120;
  wopt.branch_count = 120;
  workload::Workload w = workload::GenerateWorkload(doc, wopt);

  StructuralJoinExecutor exec(doc);
  for (const auto* list : {&w.simple, &w.branch}) {
    for (const auto& wq : *list) {
      for (bool prune : {true, false}) {
        ExecOptions opt;
        opt.use_pid_pruning = prune;
        auto r = exec.Execute(wq.query, opt);
        ASSERT_TRUE(r.ok()) << wq.query.ToString();
        EXPECT_EQ(r.value().size(), wq.true_count)
            << wq.query.ToString() << " prune=" << prune;
      }
    }
  }
}

// The estimator's word-parallel join rests on one factorization of the
// scalar containment test:
//   PidPairCompatible(A, p, B, c, axis)
//     == bit c of CoverRow(p)  AND  bits(c) ∩ BelowPaths(A, B, axis) != ∅.
// Checked exhaustively over every (tag A, pid of an A element) x (tag B,
// pid of a B element) x {child, descendant}; PidPairCompatible is the
// scalar reference.
void ExpectFactorizationExact(const xml::Document& doc) {
  const encoding::Labeling lab = encoding::LabelDocument(doc);
  const encoding::PidJoinIndex index = encoding::PidJoinIndex::Build(
      lab.table, lab.distinct_pids, doc.TagCount());
  std::vector<std::set<encoding::PidRef>> pids_of(doc.TagCount());
  for (xml::NodeId n = 0; n < lab.node_pid_refs.size(); ++n) {
    pids_of[doc.Tag(n)].insert(lab.node_pid_refs[n]);
  }
  size_t checked = 0, compatible = 0;
  for (xml::TagId a = 0; a < doc.TagCount(); ++a) {
    for (encoding::PidRef pa : pids_of[a]) {
      const uint64_t* row = index.CoverRow(pa);
      for (xml::TagId b = 0; b < doc.TagCount(); ++b) {
        for (encoding::PidRef pb : pids_of[b]) {
          const PathIdBits& bits_b = lab.distinct_pids[pb - 1];
          const bool covers = ((row[(pb - 1) / 64] >> ((pb - 1) % 64)) & 1);
          for (encoding::AxisKind axis : {encoding::AxisKind::kChild,
                                          encoding::AxisKind::kDescendant}) {
            const uint64_t* below = index.BelowPaths(a, b, axis);
            bool on_path = false;
            for (size_t w = 0; below && w < index.path_words(); ++w) {
              on_path |= (below[w] & bits_b.words()[w]) != 0;
            }
            const bool want = encoding::PidPairCompatible(
                lab.table, a, lab.distinct_pids[pa - 1], b, bits_b, axis);
            ASSERT_EQ(covers && on_path, want)
                << "tags " << a << "/" << b << " pids " << pa << "/" << pb
                << " axis " << static_cast<int>(axis);
            ++checked;
            compatible += want;
          }
        }
      }
    }
  }
  // Both verdicts occur, so the comparison is not vacuous.
  EXPECT_GT(compatible, 0u);
  EXPECT_LT(compatible, checked);
}

TEST(PidJoinIndexTest, FactorizationMatchesScalarTestOnPaperExample) {
  ExpectFactorizationExact(xee::testing::MakePaperDocument());
}

TEST_P(JoinDatasetTest, FactorizationMatchesScalarTest) {
  datagen::GenOptions gopt;
  gopt.scale = 0.1;
  ExpectFactorizationExact(
      datagen::GenerateByName(GetParam(), gopt).value());
}

// PidJoinIndex::Below is the tag-pair relation the static analyzer's
// impossible-edge prune reads (DESIGN.md §15). Checked exhaustively
// against a brute-force scan of the encoding table's paths: every tag
// pair plus the wildcard on either side, for both axes.
void ExpectBelowMatchesPathScan(const xml::Document& doc) {
  const encoding::Labeling lab = encoding::LabelDocument(doc);
  const encoding::PidJoinIndex index = encoding::PidJoinIndex::Build(
      lab.table, lab.distinct_pids, doc.TagCount());
  std::vector<xml::TagId> tags{encoding::kWildcardTag};
  for (xml::TagId t = 0; t < doc.TagCount(); ++t) tags.push_back(t);
  size_t related = 0, checked = 0;
  for (xml::TagId above : tags) {
    for (xml::TagId below : tags) {
      for (bool immediate : {true, false}) {
        bool want = false;
        for (uint32_t enc = 1; enc <= lab.table.PathCount() && !want; ++enc) {
          want = lab.table.TagBelowOnPath(enc, above, below, immediate);
        }
        ASSERT_EQ(index.Below(above, below, immediate), want)
            << "tags " << above << "/" << below << " immediate " << immediate;
        related += want;
        ++checked;
      }
    }
  }
  // Both answers occur, so the comparison is not vacuous.
  EXPECT_GT(related, 0u);
  EXPECT_LT(related, checked);
}

TEST(PidJoinIndexTest, BelowMatchesPathScanOnPaperExample) {
  ExpectBelowMatchesPathScan(xee::testing::MakePaperDocument());
}

TEST_P(JoinDatasetTest, BelowMatchesPathScan) {
  datagen::GenOptions gopt;
  gopt.scale = 0.1;
  ExpectBelowMatchesPathScan(
      datagen::GenerateByName(GetParam(), gopt).value());
}

// The paper document's distinct root-to-leaf tag paths are exactly
// Root/A/B/D, Root/A/B/E, Root/A/C/E, Root/A/C/F; every fact below reads
// off those four lines.
class Reachability : public ::testing::Test {
 protected:
  Reachability()
      : doc_(xee::testing::MakePaperDocument()),
        lab_(encoding::LabelDocument(doc_)),
        index_(encoding::PidJoinIndex::Build(lab_.table, lab_.distinct_pids,
                                             doc_.TagCount())) {}

  xml::TagId Tag(const char* name) const { return *doc_.FindTag(name); }

  xml::Document doc_;
  encoding::Labeling lab_;
  encoding::PidJoinIndex index_;
};

TEST_F(Reachability, PaperFigureOneClosure) {
  const encoding::PidJoinIndex& r = index_;
  const xml::TagId root = Tag("Root"), a = Tag("A"), b = Tag("B"),
                   c = Tag("C"), d = Tag("D"), e = Tag("E"), f = Tag("F");

  EXPECT_TRUE(r.Below(root, a, /*immediate=*/true));
  EXPECT_TRUE(r.Below(root, d, /*immediate=*/false));
  EXPECT_FALSE(r.Below(root, d, /*immediate=*/true));  // D only at depth 3
  EXPECT_TRUE(r.Below(b, e, /*immediate=*/true));
  EXPECT_TRUE(r.Below(c, f, /*immediate=*/true));
  EXPECT_FALSE(r.Below(c, d, /*immediate=*/false));  // C's leaves are E, F
  EXPECT_FALSE(r.Below(a, root, /*immediate=*/false));  // no upward relation
  EXPECT_FALSE(r.Below(f, e, /*immediate=*/false));     // F is a leaf
}

TEST_F(Reachability, WildcardQuantifiesOverAllTags) {
  const encoding::PidJoinIndex& r = index_;
  const xml::TagId d = Tag("D"), f = Tag("F"), root = Tag("Root");
  EXPECT_TRUE(r.Below(encoding::kWildcardTag, d, false));
  EXPECT_TRUE(r.Below(root, encoding::kWildcardTag, true));
  // Nothing sits above the root, whatever the tag asked for.
  EXPECT_FALSE(r.Below(encoding::kWildcardTag, root, false));
  // Leaves have nothing below them, whatever the tag asked for.
  EXPECT_FALSE(r.Below(d, encoding::kWildcardTag, false));
  EXPECT_FALSE(r.Below(f, encoding::kWildcardTag, false));
  // Both sides wildcarded: "is any pair related at all".
  EXPECT_TRUE(r.Below(encoding::kWildcardTag, encoding::kWildcardTag, true));
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, JoinDatasetTest,
                         ::testing::Values("ssplays", "dblp", "xmark"));

}  // namespace
}  // namespace xee::join
