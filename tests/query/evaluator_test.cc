#include "query/evaluator.h"

#include <gtest/gtest.h>

#include "tests/testing/helpers.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

// Fixture building the forest
//   att(org) ── labs(org) ── laks(person), suciu(person)
//            └─ sales(org) ── eve(person,engineer)
class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : d_(w_.vocab) {
    att_ = AddBare(d_, kInvalidEntryId, "o=att", {w_.top, w_.org});
    labs_ = AddBare(d_, att_, "ou=labs", {w_.top, w_.org});
    laks_ = AddBare(d_, labs_, "uid=laks", {w_.top, w_.person});
    suciu_ = AddBare(d_, labs_, "uid=suciu", {w_.top, w_.person});
    sales_ = AddBare(d_, att_, "ou=sales", {w_.top, w_.org});
    eve_ = AddBare(d_, sales_, "uid=eve",
                   {w_.top, w_.person, w_.engineer});
  }

  Query Cls(ClassId c, Scope scope = Scope::kAll) {
    return Query::Select(MatchClass(c), scope);
  }

  std::vector<EntryId> Eval(const Query& q, const EntrySet* delta = nullptr) {
    QueryEvaluator evaluator(d_, delta);
    return evaluator.Evaluate(q).ToVector();
  }

  SimpleWorld w_;
  Directory d_;
  EntryId att_, labs_, laks_, suciu_, sales_, eve_;
};

TEST_F(EvaluatorTest, AtomicSelect) {
  EXPECT_EQ(Eval(Cls(w_.person)),
            (std::vector<EntryId>{laks_, suciu_, eve_}));
  EXPECT_EQ(Eval(Cls(w_.engineer)), (std::vector<EntryId>{eve_}));
  EXPECT_EQ(Eval(Cls(w_.top)).size(), 6u);
}

TEST_F(EvaluatorTest, ChildAxis) {
  // org entries with a person child.
  Query q = Query::Child(Cls(w_.org), Cls(w_.person));
  EXPECT_EQ(Eval(q), (std::vector<EntryId>{labs_, sales_}));
}

TEST_F(EvaluatorTest, ParentAxis) {
  // person entries whose parent is an org.
  Query q = Query::Parent(Cls(w_.person), Cls(w_.org));
  EXPECT_EQ(Eval(q), (std::vector<EntryId>{laks_, suciu_, eve_}));
  // org entries whose parent is an org: labs and sales (att is a root).
  Query q2 = Query::Parent(Cls(w_.org), Cls(w_.org));
  EXPECT_EQ(Eval(q2), (std::vector<EntryId>{labs_, sales_}));
}

TEST_F(EvaluatorTest, DescendantAxis) {
  // org entries with an engineer descendant: att and sales.
  Query q = Query::Descendant(Cls(w_.org), Cls(w_.engineer));
  EXPECT_EQ(Eval(q), (std::vector<EntryId>{att_, sales_}));
  // Descendants are proper: engineer with an engineer descendant: none.
  Query q2 = Query::Descendant(Cls(w_.engineer), Cls(w_.engineer));
  EXPECT_TRUE(Eval(q2).empty());
}

TEST_F(EvaluatorTest, AncestorAxis) {
  // person entries with an org ancestor: all three.
  Query q = Query::Ancestor(Cls(w_.person), Cls(w_.org));
  EXPECT_EQ(Eval(q), (std::vector<EntryId>{laks_, suciu_, eve_}));
  // org entries with an org ancestor: labs, sales.
  Query q2 = Query::Ancestor(Cls(w_.org), Cls(w_.org));
  EXPECT_EQ(Eval(q2), (std::vector<EntryId>{labs_, sales_}));
}

TEST_F(EvaluatorTest, DiffOperator) {
  // The paper's Q1 pattern: org entries without a person descendant.
  Query q = Query::Diff(Cls(w_.org),
                        Query::Descendant(Cls(w_.org), Cls(w_.person)));
  EXPECT_TRUE(Eval(q).empty());
  // Remove laks+suciu's unit from consideration: engineers only below sales.
  Query q2 = Query::Diff(Cls(w_.org),
                         Query::Descendant(Cls(w_.org), Cls(w_.engineer)));
  EXPECT_EQ(Eval(q2), (std::vector<EntryId>{labs_}));
}

TEST_F(EvaluatorTest, UnionIntersect) {
  Query u = Query::Union({Cls(w_.engineer), Cls(w_.org)});
  EXPECT_EQ(Eval(u), (std::vector<EntryId>{att_, labs_, sales_, eve_}));
  Query i = Query::Intersect({Cls(w_.person), Cls(w_.engineer)});
  EXPECT_EQ(Eval(i), (std::vector<EntryId>{eve_}));
  Query empty_i = Query::Intersect({});
  EXPECT_EQ(Eval(empty_i).size(), 6u);  // identity: all alive entries
}

TEST_F(EvaluatorTest, ScopedSelects) {
  EntrySet delta;
  delta.Insert(laks_);
  delta.Insert(eve_);
  EXPECT_EQ(Eval(Cls(w_.person, Scope::kDeltaOnly), &delta),
            (std::vector<EntryId>{laks_, eve_}));
  EXPECT_EQ(Eval(Cls(w_.person, Scope::kExcludeDelta), &delta),
            (std::vector<EntryId>{suciu_}));
  EXPECT_TRUE(Eval(Cls(w_.person, Scope::kEmpty), &delta).empty());
  // Without a delta, kDeltaOnly selects nothing and kExcludeDelta all.
  EXPECT_TRUE(Eval(Cls(w_.person, Scope::kDeltaOnly)).empty());
  EXPECT_EQ(Eval(Cls(w_.person, Scope::kExcludeDelta)).size(), 3u);
}

TEST_F(EvaluatorTest, DeletedEntriesInvisible) {
  ASSERT_TRUE(d_.DeleteLeaf(eve_).ok());
  EXPECT_EQ(Eval(Cls(w_.person)), (std::vector<EntryId>{laks_, suciu_}));
  EXPECT_TRUE(Eval(Query::Descendant(Cls(w_.org), Cls(w_.engineer))).empty());
}

TEST_F(EvaluatorTest, SizeAndToString) {
  Query q = Query::Diff(Cls(w_.org),
                        Query::Descendant(Cls(w_.org), Cls(w_.person)));
  EXPECT_EQ(q.Size(), 5u);
  EXPECT_EQ(q.ToString(*w_.vocab),
            "(? (objectClass=org) (d (objectClass=org) (objectClass=person)))");
}

// The descendant/ancestor walks cost what their operands reach: a narrow
// operand must give the same members as a widened one intersected back
// down, on a deep chain where the walks stop at marks and memo hits.
TEST(EvaluatorAxisWalkTest, NarrowAndWideOperandsAgree) {
  SimpleWorld w;
  Directory d(w.vocab);
  // A deep chain of 600 plain entries with a rare class at a few spots.
  EntryId root = AddBare(d, kInvalidEntryId, "o=root", {w.top, w.org});
  EntryId at = root;
  std::vector<EntryId> rare;
  for (int i = 0; i < 600; ++i) {
    bool mark = (i % 211 == 0);  // 3 rare entries
    at = AddBare(d, at, "cn=c" + std::to_string(i),
                 mark ? std::vector<ClassId>{w.top, w.engineer}
                      : std::vector<ClassId>{w.top});
    if (mark) rare.push_back(at);
  }
  Query q_de = Query::Descendant(Query::Select(MatchClass(w.engineer)),
                                 Query::Select(MatchClass(w.engineer)));
  Query q_an = Query::Ancestor(Query::Select(MatchClass(w.engineer)),
                               Query::Select(MatchClass(w.engineer)));
  QueryEvaluator evaluator(d);
  // Wide reference: the same query with the node side widened to all
  // entries, then intersected back down.
  Query q_de_wide = Query::Intersect(
      {Query::Select(MatchClass(w.engineer)),
       Query::Descendant(Query::Select(MatchAll()),
                         Query::Select(MatchClass(w.engineer)))});
  Query q_an_wide = Query::Intersect(
      {Query::Select(MatchClass(w.engineer)),
       Query::Ancestor(Query::Select(MatchAll()),
                       Query::Select(MatchClass(w.engineer)))});
  EXPECT_EQ(evaluator.Evaluate(q_de).ToVector(),
            evaluator.Evaluate(q_de_wide).ToVector());
  EXPECT_EQ(evaluator.Evaluate(q_an).ToVector(),
            evaluator.Evaluate(q_an_wide).ToVector());
  // Shape sanity: the first two rare entries have a rare descendant; the
  // last two have a rare ancestor.
  EXPECT_EQ(evaluator.Evaluate(q_de).ToVector(),
            (std::vector<EntryId>{rare[0], rare[1]}));
  EXPECT_EQ(evaluator.Evaluate(q_an).ToVector(),
            (std::vector<EntryId>{rare[1], rare[2]}));
}

TEST_F(EvaluatorTest, StatsCountWork) {
  QueryEvaluator evaluator(d_);
  evaluator.Evaluate(Query::Descendant(Cls(w_.org), Cls(w_.person)));
  EXPECT_EQ(evaluator.stats().nodes_evaluated, 3u);
  EXPECT_GT(evaluator.stats().entries_scanned, 0u);
}

}  // namespace
}  // namespace ldapbound
