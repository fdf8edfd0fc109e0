// Differential test of xpath::Canonicalize (subtrees ranked by integer
// comparisons, no signature strings) against the string-signature
// reference it replaced (canonical_reference.h). Over grammar-generated
// queries and their spellings — predicate permutations, child:: and
// descendant:: respellings, and {t} on every node — the two must put
// queries into the same key-equality classes, the new one must be
// idempotent, and the estimates of the two canonical forms must be
// bitwise equal.

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "canonical_reference.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "estimator/estimator.h"
#include "estimator/synopsis.h"
#include "fuzz/fuzz.h"
#include "xpath/canonical.h"
#include "xpath/parser.h"

namespace xee::xpath {
namespace {

/// An isomorphic copy of `q`: every node's children in a random order,
/// the nodes renumbered in the resulting preorder; the target and the
/// constraints follow their nodes, and the constraint list is shuffled.
Query Shuffled(const Query& q, Rng& rng) {
  std::vector<int> map(q.nodes.size(), -1);
  Query out;
  out.root_mode = q.root_mode;
  auto build = [&](auto&& self, int node, int parent) -> void {
    map[node] = out.AddNode(q.nodes[node].tag, q.nodes[node].axis, parent);
    out.nodes[map[node]].value_filter = q.nodes[node].value_filter;
    std::vector<int> kids = q.nodes[node].children;
    for (size_t k = kids.size(); k > 1; --k) {
      std::swap(kids[k - 1], kids[rng.Index(k)]);
    }
    for (int c : kids) self(self, c, map[node]);
  };
  build(build, 0, -1);
  out.target = map[q.target];
  for (const OrderConstraint& c : q.orders) {
    out.orders.push_back({c.kind, map[c.before], map[c.after]});
  }
  for (size_t k = out.orders.size(); k > 1; --k) {
    std::swap(out.orders[k - 1], out.orders[rng.Index(k)]);
  }
  return out;
}

/// `text` with each plain step (a name right after '/' or '//', outside
/// quoted literals) spelled with an explicit axis — 'child::' after '/',
/// '/descendant::' for '//' — where the coin says so. Order-axis steps
/// keep their spelling.
std::string Respelled(const std::string& text, Rng& rng) {
  std::string out;
  bool quoted = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      out.push_back(c);
      if (c == '\\' && i + 1 < text.size()) {
        out.push_back(text[++i]);
      } else if (c == '"') {
        quoted = false;
      }
      continue;
    }
    if (c == '"') quoted = true;
    if (c != '/') {
      out.push_back(c);
      continue;
    }
    const bool dslash = i + 1 < text.size() && text[i + 1] == '/';
    const size_t name_at = i + (dslash ? 2 : 1);
    size_t end = name_at;
    while (end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[end])) ||
            text[end] == '_' || text[end] == '-' || text[end] == '.')) {
      ++end;
    }
    const bool plain_step =
        end > name_at && text.compare(end, 2, "::") != 0 &&
        std::isalpha(static_cast<unsigned char>(text[name_at]));
    if (!plain_step || rng.Index(2) == 0) {
      out.append(text, i, name_at - i);
    } else {
      out += dslash ? "/descendant::" : "/child::";
    }
    i = name_at - 1;
  }
  return out;
}

class CanonicalDiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GenOptions gen;
    gen.seed = 7;
    gen.scale = 0.03;
    doc_ = new xml::Document(datagen::GenerateByName("xmark", gen).value());
    syn_ = new estimator::Synopsis(estimator::Synopsis::Build(*doc_, {}));
  }
  static void TearDownTestSuite() {
    delete syn_;
    delete doc_;
  }

  static xml::Document* doc_;
  static estimator::Synopsis* syn_;
};

xml::Document* CanonicalDiffTest::doc_ = nullptr;
estimator::Synopsis* CanonicalDiffTest::syn_ = nullptr;

TEST_F(CanonicalDiffTest, MatchesStringSignatureReference) {
  // The document's tags plus two it does not have.
  std::vector<std::string> tags;
  for (size_t t = 0; t < doc_->TagCount(); t += 3) {
    tags.push_back(doc_->TagNameOf(static_cast<xml::TagId>(t)));
  }
  tags.push_back("nosuchtag");
  tags.push_back("zz");
  const estimator::Estimator est(*syn_);

  // Reference key -> new key and back: equal exactly when equal.
  std::map<std::string, std::string> new_of_ref;
  std::map<std::string, std::string> ref_of_new;
  size_t checked = 0;
  size_t respelled = 0;
  size_t classes_merged = 0;
  auto check = [&](const Query& q, const std::string& what) {
    const Query ref_canon = reference::Canonicalize(q);
    const std::string ref_key = reference::SerializeKey(ref_canon);
    const Query canon = Canonicalize(q);
    const std::string key = SerializeKey(canon);
    ++checked;
    const auto [r, r_fresh] = new_of_ref.emplace(ref_key, key);
    const auto [n, n_fresh] = ref_of_new.emplace(key, ref_key);
    ASSERT_EQ(r->second, key) << what << ": one reference class, two keys";
    ASSERT_EQ(n->second, ref_key) << what << ": one key, two reference classes";
    classes_merged += r_fresh ? 0 : 1;

    ASSERT_EQ(SerializeKey(Canonicalize(canon)), key) << what;
    std::string appended = "prefix:";
    AppendSerializedKey(canon, &appended);
    ASSERT_EQ(appended, "prefix:" + key) << what;

    const Result<double> got = est.Estimate(canon);
    const Result<double> want = est.Estimate(ref_canon);
    ASSERT_EQ(got.ok(), want.ok()) << what;
    if (!got.ok()) {
      ASSERT_EQ(got.status().code(), want.status().code()) << what;
      return;
    }
    ASSERT_EQ(std::bit_cast<uint64_t>(got.value()),
              std::bit_cast<uint64_t>(want.value()))
        << what << ": " << got.value() << " vs " << want.value();
  };

  Rng rng(0xca90);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string raw = fuzz::GenerateQueryString(rng, tags);
    Result<Query> parsed = ParseXPath(raw);
    if (!parsed.ok()) continue;
    const Query& q = parsed.value();
    check(q, raw);
    for (int k = 0; k < 3; ++k) check(Shuffled(q, rng), raw + " (shuffled)");
    for (int k = 0; k < 2; ++k) {
      const std::string spelled = Respelled(q.ToString(), rng);
      Result<Query> again = ParseXPath(spelled);
      if (!again.ok()) continue;
      ++respelled;
      check(again.value(), spelled);
      check(Shuffled(again.value(), rng), spelled + " (shuffled)");
    }
    for (size_t t = 0; t < q.nodes.size(); ++t) {
      Query retargeted = q;
      retargeted.target = static_cast<int>(t);
      check(retargeted, raw + " {t} at " + std::to_string(t));
      check(Shuffled(retargeted, rng), raw + " {t} shuffled");
    }
    if (HasFatalFailure()) return;
  }
  // The pool exercised both sides of the equivalence.
  EXPECT_GT(checked, 20000u);
  EXPECT_GT(respelled, 1000u);
  EXPECT_GT(classes_merged, checked / 4);
  EXPECT_GT(new_of_ref.size(), 2000u);
}

// A hand-picked pool the grammar reaches only rarely: literals that
// differ in escapes and in bytes sorting around the header markers,
// tags that are prefixes of one another, twins told apart only by
// their constraint roles (or only by which node they precede), and
// long child lists (over 16 predicates on one step).
TEST_F(CanonicalDiffTest, HandPickedHeadersAgreeWithReference) {
  const char* queries[] = {
      "//a[b][bc][b{t}]",
      "//a[b[.=\"x\"]][b[.=\"x\\\"\"]][b[.=\"x\\\\\"]][b[.=\"x(\"]][b]",
      "//a[b[.=\"\"]][b[.=\"<\"]][b[.=\"{\"]][b/c][b//c]",
      "//a[.=\"v\"][b][b{t}[.=\"v\"]]",
      "/a[b-c][b.c][b_c][b][B]//b",
      "//title[X/following::p][p/preceding::Y]",
      "//s[a/following-sibling::b][a/preceding-sibling::b]/c",
      "//j[x//y][x/y][x][x//y/z][x/y//z]",
      "//s[a/following-sibling::c][a/following-sibling::b/d][a]",
      "//w[q][p][o][n][m][l][k][j][i][h][g][f][e][d][c][b][a][b/x][a//x]"
      "[b[.=\"v\"]][a/following-sibling::b]",
      "//s[t][t][t][t][t][t][t][t][t][t][t][t][t][t][t][t][t][t]"
      "[u/following-sibling::t][u][u//v][t/v]",
  };
  for (const char* text : queries) {
    Result<Query> q = ParseXPath(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    Rng rng(11);
    for (int k = 0; k < 20; ++k) {
      const Query shuffled = Shuffled(q.value(), rng);
      EXPECT_EQ(SerializeKey(Canonicalize(shuffled)),
                reference::SerializeKey(reference::Canonicalize(shuffled)))
          << text;
      EXPECT_EQ(SerializeKey(Canonicalize(shuffled)),
                SerializeKey(Canonicalize(q.value())))
          << text;
    }
  }
}

}  // namespace
}  // namespace xee::xpath
