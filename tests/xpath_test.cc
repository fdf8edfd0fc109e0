#include <gtest/gtest.h>

#include <set>

#include "xpath/parser.h"
#include "xpath/query.h"

namespace xee::xpath {
namespace {

Query MustParse(const std::string& s) {
  auto r = ParseXPath(s);
  EXPECT_TRUE(r.ok()) << s << ": " << r.status().ToString();
  return r.ok() ? r.value() : Query{};
}

TEST(Parser, SimpleChainDescendant) {
  Query q = MustParse("//A/B/D");
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.root_mode, RootMode::kAnywhere);
  EXPECT_EQ(q.nodes[0].tag, "A");
  EXPECT_EQ(q.nodes[1].tag, "B");
  EXPECT_EQ(q.nodes[1].axis, StructAxis::kChild);
  EXPECT_EQ(q.nodes[1].parent, 0);
  EXPECT_EQ(q.nodes[2].tag, "D");
  EXPECT_EQ(q.target, 2);
  EXPECT_TRUE(q.orders.empty());
}

TEST(Parser, AbsoluteRootAndDescendantSteps) {
  Query q = MustParse("/Root//E");
  EXPECT_EQ(q.root_mode, RootMode::kAbsolute);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.nodes[1].axis, StructAxis::kDescendant);
}

TEST(Parser, ExplicitChildAndDescendantAxes) {
  Query q = MustParse("//A/child::B//descendant::C");
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.nodes[1].axis, StructAxis::kChild);
  EXPECT_EQ(q.nodes[2].axis, StructAxis::kDescendant);
}

TEST(Parser, BranchPredicate) {
  // Paper Q1 = //A[/C/F]/B/D.
  Query q = MustParse("//A[/C/F]/B/D");
  ASSERT_EQ(q.size(), 5u);
  // A(0) -> C(1) -> F(2); A -> B(3) -> D(4).
  EXPECT_EQ(q.nodes[1].tag, "C");
  EXPECT_EQ(q.nodes[1].parent, 0);
  EXPECT_EQ(q.nodes[2].tag, "F");
  EXPECT_EQ(q.nodes[2].parent, 1);
  EXPECT_EQ(q.nodes[3].tag, "B");
  EXPECT_EQ(q.nodes[3].parent, 0);
  EXPECT_EQ(q.target, 4);
}

TEST(Parser, NestedPredicates) {
  Query q = MustParse("//A[/B[/C]/D]//E");
  ASSERT_EQ(q.size(), 5u);
  EXPECT_EQ(q.nodes[2].tag, "C");
  EXPECT_EQ(q.nodes[2].parent, 1);
  EXPECT_EQ(q.nodes[3].tag, "D");
  EXPECT_EQ(q.nodes[3].parent, 1);
  EXPECT_EQ(q.nodes[4].tag, "E");
  EXPECT_EQ(q.nodes[4].parent, 0);
}

TEST(Parser, PredicateWithDescendantPrefix) {
  Query q = MustParse("//A[//F]/B");
  EXPECT_EQ(q.nodes[1].axis, StructAxis::kDescendant);
}

TEST(Parser, TargetMarker) {
  Query q = MustParse("//A[/C{t}/F]/B");
  EXPECT_EQ(q.target, 1);
  EXPECT_EQ(q.nodes[q.target].tag, "C");
}

TEST(Parser, FollowingSiblingNormalization) {
  // Paper arrow-Q1 = A[/C[/F]/folls::B/D].
  Query q = MustParse("//A[/C[/F]/following-sibling::B/D]");
  ASSERT_EQ(q.size(), 5u);
  // B must be a child of the junction A, not of C.
  int b = -1;
  for (size_t i = 0; i < q.size(); ++i) {
    if (q.nodes[i].tag == "B") b = static_cast<int>(i);
  }
  ASSERT_NE(b, -1);
  EXPECT_EQ(q.nodes[b].parent, 0);
  EXPECT_EQ(q.nodes[b].axis, StructAxis::kChild);
  ASSERT_EQ(q.orders.size(), 1u);
  EXPECT_EQ(q.orders[0].kind, OrderKind::kSibling);
  EXPECT_EQ(q.nodes[q.orders[0].before].tag, "C");
  EXPECT_EQ(q.nodes[q.orders[0].after].tag, "B");
}

TEST(Parser, PrecedingSiblingSwapsDirection) {
  Query q = MustParse("//A/C/preceding-sibling::B");
  ASSERT_EQ(q.orders.size(), 1u);
  EXPECT_EQ(q.nodes[q.orders[0].before].tag, "B");
  EXPECT_EQ(q.nodes[q.orders[0].after].tag, "C");
  EXPECT_EQ(q.target, static_cast<int>(q.size()) - 1);
}

TEST(Parser, FollowingAxisBecomesDocumentConstraint) {
  // Example 5.3: //A[/C/following::D].
  Query q = MustParse("//A[/C/following::D]");
  ASSERT_EQ(q.orders.size(), 1u);
  EXPECT_EQ(q.orders[0].kind, OrderKind::kDocument);
  int d = q.orders[0].after;
  EXPECT_EQ(q.nodes[d].tag, "D");
  EXPECT_EQ(q.nodes[d].parent, 0);
  EXPECT_EQ(q.nodes[d].axis, StructAxis::kDescendant);
}

TEST(Parser, OrderAxisNeedsJunction) {
  EXPECT_FALSE(ParseXPath("//C/following-sibling::B").ok());
  EXPECT_FALSE(ParseXPath("//following-sibling::B").ok());
}

TEST(Parser, SiblingAxisNeedsChildContext) {
  EXPECT_FALSE(ParseXPath("//A//C/following-sibling::B").ok());
}

TEST(Parser, RejectsMalformed) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("A/B").ok());
  EXPECT_FALSE(ParseXPath("//A[").ok());
  EXPECT_FALSE(ParseXPath("//A]").ok());
  EXPECT_FALSE(ParseXPath("//A//").ok());
  EXPECT_FALSE(ParseXPath("//A[/C{t}/F{t}]").ok());
}

TEST(Query, ToStringRoundTripIsCanonical) {
  // Reparsing the rendering must reach a fixed point that preserves the
  // query's structural content (sibling branches may be reordered, which
  // does not change semantics).
  for (const char* s :
       {"//A/B/D", "/Root//E", "//A[/C/F]/B/D", "//A[/B[/C]/D]//E",
        "//A[/C[/F]/following-sibling::B/D]", "//A[/C/following::D]",
        "//A/C/preceding-sibling::B", "//A[/C{t}/F]/B"}) {
    Query q = MustParse(s);
    Query q2 = MustParse(q.ToString());
    EXPECT_EQ(q.ToString(), q2.ToString()) << s;
    ASSERT_EQ(q.size(), q2.size()) << s << " -> " << q.ToString();
    EXPECT_EQ(q.root_mode, q2.root_mode) << s;
    EXPECT_EQ(q.nodes[q.target].tag, q2.nodes[q2.target].tag) << s;
    // Same multiset of (tag, axis, parent-tag) triples.
    auto shape = [](const Query& query) {
      std::multiset<std::string> out;
      for (const auto& n : query.nodes) {
        std::string key = n.tag;
        key += n.axis == StructAxis::kChild ? "/" : "//";
        key += n.parent == -1 ? "-" : query.nodes[n.parent].tag;
        out.insert(key);
      }
      return out;
    };
    EXPECT_EQ(shape(q), shape(q2)) << s;
    ASSERT_EQ(q.orders.size(), q2.orders.size()) << s;
    for (size_t i = 0; i < q.orders.size(); ++i) {
      EXPECT_EQ(q.orders[i].kind, q2.orders[i].kind);
      EXPECT_EQ(q.nodes[q.orders[i].before].tag,
                q2.nodes[q2.orders[i].before].tag);
      EXPECT_EQ(q.nodes[q.orders[i].after].tag,
                q2.nodes[q2.orders[i].after].tag);
    }
  }
}

TEST(Query, ToStringMainPathFollowsTarget) {
  EXPECT_EQ(MustParse("//A/B/D").ToString(), "//A/B/D");
  EXPECT_EQ(MustParse("//A[/C/F]/B/D").ToString(), "//A[/C/F]/B/D");
  // The target's spine becomes the main path.
  EXPECT_EQ(MustParse("//A[/C{t}/F]/B").ToString(), "//A[/B]/C{t}/F");
  EXPECT_EQ(MustParse("/Root//E").ToString(), "/Root//E");
}

TEST(Query, SubQueryDropsBranch) {
  Query q = MustParse("//A[/C/F]/B/D");
  std::vector<bool> keep = {true, false, false, true, true};
  std::vector<int> map;
  Query sub = q.SubQuery(keep, &map);
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.nodes[0].tag, "A");
  EXPECT_EQ(sub.nodes[1].tag, "B");
  EXPECT_EQ(sub.nodes[2].tag, "D");
  EXPECT_EQ(map[3], 1);
  EXPECT_EQ(map[1], -1);
  EXPECT_EQ(sub.target, 2);
}

TEST(Query, SubQueryDropsDanglingConstraints) {
  Query q = MustParse("//A[/C/following-sibling::B]");
  // Drop B (node index of B is the constraint's after endpoint).
  std::vector<bool> keep(q.size(), true);
  keep[q.orders[0].after] = false;
  q.target = q.orders[0].before;  // keep target inside
  Query sub = q.SubQuery(keep, nullptr);
  EXPECT_TRUE(sub.orders.empty());
}

TEST(Parser, RejectsXmlInvalidNameStarts) {
  // '-', '.' and digits may continue a name but never start one.
  EXPECT_FALSE(ParseXPath("/-a").ok());
  EXPECT_FALSE(ParseXPath("/.foo").ok());
  EXPECT_FALSE(ParseXPath("/1a").ok());
  EXPECT_FALSE(ParseXPath("//x/-y").ok());
  EXPECT_FALSE(ParseXPath("//x[.z]").ok());
  // ...but they are fine in the middle or at the end.
  Query q = MustParse("/a-b/c.d/e9");
  EXPECT_EQ(q.nodes[0].tag, "a-b");
  EXPECT_EQ(q.nodes[1].tag, "c.d");
  EXPECT_EQ(q.nodes[2].tag, "e9");
}

TEST(Parser, ValuePredicateEscapes) {
  Query q = MustParse("/A[.=\"x\\\"y\"]");
  ASSERT_TRUE(q.nodes[0].value_filter.has_value());
  EXPECT_EQ(*q.nodes[0].value_filter, "x\"y");
  q = MustParse("/A[.=\"a\\\\b\"]");
  EXPECT_EQ(*q.nodes[0].value_filter, "a\\b");
  // A bare quote terminates the literal; trailing junk is an error, not
  // a resynchronization point.
  EXPECT_FALSE(ParseXPath("/A[.=\"x\"y\"]").ok());
  EXPECT_FALSE(ParseXPath("/A[.=\"x\\z\"]").ok());  // unknown escape
  EXPECT_FALSE(ParseXPath("/A[.=\"x]").ok());       // unterminated
}

TEST(Parser, FirstStepExplicitAxisNormalizes) {
  // '/descendant::a' binds against the virtual document root, i.e. '//a';
  // the spelling must parse to the identical query (same root mode, same
  // dead node-0 axis), or downstream serialized keys diverge.
  Query a = MustParse("/descendant::A/B");
  Query b = MustParse("//A/B");
  EXPECT_EQ(a.root_mode, b.root_mode);
  EXPECT_EQ(a.nodes[0].axis, b.nodes[0].axis);
  EXPECT_EQ(a.ToString(), b.ToString());

  Query c = MustParse("//child::A");
  Query d = MustParse("//A");
  EXPECT_EQ(c.root_mode, d.root_mode);
  EXPECT_EQ(c.nodes[0].axis, d.nodes[0].axis);
  EXPECT_EQ(c.ToString(), d.ToString());
}

TEST(Query, ValidateCatchesBadConstraints) {
  Query q = MustParse("//A/B/C");
  OrderConstraint c;
  c.kind = OrderKind::kSibling;
  c.before = 1;
  c.after = 2;  // different parents
  q.orders.push_back(c);
  EXPECT_FALSE(q.Validate().ok());
}

}  // namespace
}  // namespace xee::xpath
