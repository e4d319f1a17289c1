// Head ≡ pinned: on a pinned snapshot of an unchanging directory, the one
// QueryEvaluator must produce exactly the member set it produces over the
// live directory — the four hierarchy axes off the frozen parent links,
// class/value selections off the postings, and the set algebra on top,
// for Evaluate and for the lazy IsEmpty alike. Plus the snapshot's
// partiality contract: payload matchers and Δ-relative scopes set an
// error status instead of answering wrong.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "model/directory.h"
#include "model/directory_snapshot.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "tests/testing/helpers.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

std::vector<EntryId> Members(const EntrySet& set) {
  std::vector<EntryId> ids;
  set.ForEach([&](EntryId id) { ids.push_back(id); });
  return ids;
}

// A forest with interleaved classes, a few value carriers, and deletions,
// so the axes have real work to do.
void BuildWorld(Directory& d, const SimpleWorld& w, std::mt19937_64& rng) {
  std::vector<EntryId> alive;
  for (int i = 0; i < 120; ++i) {
    EntryId parent = kInvalidEntryId;
    if (!alive.empty() &&
        std::uniform_int_distribution<int>(0, 5)(rng) != 0) {
      parent = alive[std::uniform_int_distribution<size_t>(
          0, alive.size() - 1)(rng)];
    }
    std::vector<ClassId> classes{w.top};
    switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
      case 0:
        classes.push_back(w.org);
        break;
      case 1:
        classes.push_back(w.person);
        break;
      case 2:
        classes.push_back(w.person);
        classes.push_back(w.engineer);
        break;
      default:
        break;
    }
    EntryId id = AddBare(d, parent, "e" + std::to_string(i), classes);
    if (i % 7 == 0) {
      ASSERT_TRUE(
          d.AddValue(id, w.mail, Value("x" + std::to_string(i % 3))).ok());
    }
    alive.push_back(id);
  }
  for (EntryId id : std::vector<EntryId>(alive.begin(), alive.end())) {
    if (d.IsAlive(id) && d.entry(id).children().empty() &&
        std::uniform_int_distribution<int>(0, 4)(rng) == 0) {
      ASSERT_TRUE(d.DeleteLeaf(id).ok());
    }
  }
}

class HeadPinnedOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    d_ = std::make_unique<Directory>(w_.vocab);
    std::mt19937_64 rng(99);
    BuildWorld(*d_, w_, rng);
    d_->EnableSnapshots();
    pin_ = d_->PinSnapshot();
    ASSERT_TRUE(pin_);
  }

  // Head and pinned must agree on the member list, and on each side the
  // lazy IsEmpty must agree with the materialized result.
  void ExpectAgrees(const Query& q) {
    const std::string text = q.ToString(*w_.vocab);
    QueryEvaluator live(*d_);
    EntrySet expect = live.Evaluate(q);
    QueryEvaluator pinned(*pin_);
    EntrySet got = pinned.Evaluate(q);
    ASSERT_TRUE(pinned.status().ok())
        << pinned.status().ToString() << "\n  query: " << text;
    EXPECT_EQ(Members(got), Members(expect)) << "query: " << text;
    EXPECT_EQ(QueryEvaluator(*d_).IsEmpty(q), expect.Empty())
        << "[head IsEmpty] " << text;
    QueryEvaluator lazy(*pin_);
    EXPECT_EQ(lazy.IsEmpty(q), got.Empty()) << "[pinned IsEmpty] " << text;
    EXPECT_TRUE(lazy.status().ok()) << text;
  }

  SimpleWorld w_;
  std::unique_ptr<Directory> d_;
  PinnedSnapshot pin_;
};

TEST_F(HeadPinnedOracleTest, ClassSelections) {
  for (ClassId c : {w_.top, w_.org, w_.person, w_.engineer, w_.mailbox}) {
    ExpectAgrees(Query::Select(MatchClass(c)));
  }
}

TEST_F(HeadPinnedOracleTest, MatchAllAndValueSelections) {
  ExpectAgrees(Query::Select(MatchAll()));
  for (int v = 0; v < 4; ++v) {
    ExpectAgrees(Query::Select(
        MatchAttrEquals(w_.mail, Value("x" + std::to_string(v)))));
  }
}

TEST_F(HeadPinnedOracleTest, AllFourAxes) {
  std::vector<std::pair<ClassId, ClassId>> pairs = {
      {w_.org, w_.person},    {w_.person, w_.org},
      {w_.top, w_.engineer},  {w_.engineer, w_.top},
      {w_.person, w_.person}, {w_.org, w_.org},
      {w_.mailbox, w_.top},   {w_.top, w_.mailbox},
  };
  for (const auto& [a, b] : pairs) {
    Query qa = Query::Select(MatchClass(a));
    Query qb = Query::Select(MatchClass(b));
    ExpectAgrees(Query::Child(qa, qb));
    ExpectAgrees(Query::Parent(qa, qb));
    ExpectAgrees(Query::Descendant(qa, qb));
    ExpectAgrees(Query::Ancestor(qa, qb));
  }
}

TEST_F(HeadPinnedOracleTest, SetAlgebraAndFigure4Shapes) {
  Query org = Query::Select(MatchClass(w_.org));
  Query person = Query::Select(MatchClass(w_.person));
  Query engineer = Query::Select(MatchClass(w_.engineer));
  Query mailbox = Query::Select(MatchClass(w_.mailbox));

  ExpectAgrees(Query::Diff(person, engineer));
  ExpectAgrees(Query::Diff(engineer, person));
  ExpectAgrees(Query::Union({org, engineer}));
  ExpectAgrees(Query::Union({mailbox, mailbox}));
  ExpectAgrees(Query::Union({}));
  ExpectAgrees(Query::Intersect({person, engineer}));
  ExpectAgrees(Query::Intersect({person}));
  ExpectAgrees(Query::Intersect({org, person, engineer}));
  // The Figure 4 required-relationship violation shape: sources with no
  // axis-related target.
  ExpectAgrees(Query::Diff(org, Query::Descendant(org, person)));
  ExpectAgrees(Query::Diff(person, Query::Child(person, engineer)));
  // Nested hierarchy: grandparent-ish composition.
  ExpectAgrees(Query::Ancestor(Query::Descendant(org, person), engineer));
  ExpectAgrees(Query::Select(MatchAll(), Scope::kEmpty));
}

// The empty intersection is every alive entry (the identity of ∩ over
// subsets of D) on both sides.
TEST_F(HeadPinnedOracleTest, EmptyIntersectionIsEveryAliveEntry) {
  Query all = Query::Intersect({});
  ExpectAgrees(all);
  QueryEvaluator pinned(*pin_);
  EXPECT_EQ(pinned.Evaluate(all).Count(), d_->NumEntries());
  EXPECT_FALSE(pinned.IsEmpty(all));
  ExpectAgrees(Query::Diff(Query::Intersect({}), Query::Select(MatchAll())));
  ExpectAgrees(Query::Descendant(Query::Intersect({}),
                                 Query::Select(MatchClass(w_.engineer))));
}

TEST_F(HeadPinnedOracleTest, UnsupportedSurfacesError) {
  // Payload matchers would need live Entry objects; Δ-relative scopes
  // only mean something to the live evaluator.
  for (const Query& q :
       {Query::Select(MatchAttrPresent(w_.mail)),
        Query::Select(MatchNot(MatchAll())),
        Query::Select(MatchAll(), Scope::kDeltaOnly),
        Query::Select(MatchClass(w_.org), Scope::kExcludeDelta),
        Query::Descendant(Query::Select(MatchClass(w_.org)),
                          Query::Select(MatchAttrPresent(w_.mail)))}) {
    QueryEvaluator eager(*pin_);
    eager.Evaluate(q);
    EXPECT_FALSE(eager.status().ok()) << q.ToString(*w_.vocab);
    QueryEvaluator lazy(*pin_);
    lazy.IsEmpty(q);
    EXPECT_FALSE(lazy.status().ok()) << q.ToString(*w_.vocab);
  }
  // Scope::kEmpty is fine (statically empty).
  QueryEvaluator pinned(*pin_);
  EXPECT_TRUE(
      pinned.Evaluate(Query::Select(MatchAll(), Scope::kEmpty)).Empty());
  EXPECT_TRUE(pinned.status().ok());
}

// EXPLAIN is shared code: a pinned plan has the live plan's shape,
// cardinalities and axis strategies; selections read postings.
TEST_F(HeadPinnedOracleTest, ExplainWorksOnASnapshot) {
  Query q = Query::Diff(
      Query::Select(MatchClass(w_.org)),
      Query::Descendant(Query::Select(MatchClass(w_.org)),
                        Query::Select(MatchClass(w_.person))));
  QueryProfile live_profile;
  QueryEvaluator live(*d_);
  live.set_profile(&live_profile);
  live.Evaluate(q);
  QueryProfile pinned_profile;
  QueryEvaluator pinned(*pin_);
  pinned.set_profile(&pinned_profile);
  pinned.Evaluate(q);

  EXPECT_EQ(pinned_profile.total_nodes, live_profile.total_nodes);
  const ExplainNode& root = pinned_profile.root;
  EXPECT_EQ(root.op, "diff");
  EXPECT_EQ(root.out_cardinality, live_profile.root.out_cardinality);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].strategy, "posting");
  EXPECT_EQ(root.children[1].strategy,
            live_profile.root.children[1].strategy);
  EXPECT_EQ(root.children[1].out_cardinality,
            live_profile.root.children[1].out_cardinality);
}

}  // namespace
}  // namespace ldapbound
