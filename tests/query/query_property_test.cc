// Property tests: the one-pass evaluator must agree with a brute-force
// quadratic interpretation of hierarchical selection queries on random
// forests — for every axis and for the difference operator, over the live
// directory and (for the Δ-free queries) over a pinned snapshot of it.
#include <gtest/gtest.h>

#include "query/evaluator.h"
#include "workload/random_gen.h"

namespace ldapbound {
namespace {

// Brute-force reference: evaluates Hier by scanning all entry pairs and
// deciding relatedness with parent-pointer walks.
EntrySet BruteForce(const Directory& d, const Query& q,
                    const EntrySet* delta) {
  EntrySet out(d.IdCapacity());
  switch (q.kind()) {
    case Query::Kind::kSelect: {
      d.ForEachAlive([&](const Entry& e) {
        if (q.scope() == Scope::kEmpty) return;
        if (q.scope() == Scope::kDeltaOnly &&
            (delta == nullptr || !delta->Contains(e.id()))) {
          return;
        }
        if (q.scope() == Scope::kExcludeDelta && delta != nullptr &&
            delta->Contains(e.id())) {
          return;
        }
        if (q.matcher()->Matches(e)) out.Insert(e.id());
      });
      return out;
    }
    case Query::Kind::kHier: {
      EntrySet a = BruteForce(d, q.operands()[0], delta);
      EntrySet b = BruteForce(d, q.operands()[1], delta);
      auto related = [&](EntryId x, EntryId y) {
        switch (q.axis()) {
          case Axis::kChild:
            return d.entry(y).parent() == x;
          case Axis::kParent:
            return d.entry(x).parent() == y;
          case Axis::kDescendant: {
            EntryId cur = d.entry(y).parent();
            while (cur != kInvalidEntryId) {
              if (cur == x) return true;
              cur = d.entry(cur).parent();
            }
            return false;
          }
          case Axis::kAncestor: {
            EntryId cur = d.entry(x).parent();
            while (cur != kInvalidEntryId) {
              if (cur == y) return true;
              cur = d.entry(cur).parent();
            }
            return false;
          }
        }
        return false;
      };
      a.ForEach([&](EntryId x) {
        bool found = false;
        b.ForEach([&](EntryId y) {
          if (!found && x != y && related(x, y)) found = true;
        });
        if (found) out.Insert(x);
      });
      return out;
    }
    case Query::Kind::kDiff: {
      EntrySet lhs = BruteForce(d, q.operands()[0], delta);
      EntrySet rhs = BruteForce(d, q.operands()[1], delta);
      lhs.SubtractFrom(rhs);
      return lhs;
    }
    case Query::Kind::kUnion: {
      for (const Query& op : q.operands()) {
        EntrySet part = BruteForce(d, op, delta);
        out.UnionWith(part);
      }
      return out;
    }
    case Query::Kind::kIntersect: {
      if (q.operands().empty()) return d.AliveSet();
      out = BruteForce(d, q.operands()[0], delta);
      for (size_t i = 1; i < q.operands().size(); ++i) {
        EntrySet part = BruteForce(d, q.operands()[i], delta);
        out.IntersectWith(part);
      }
      return out;
    }
  }
  return out;
}

class QueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryPropertyTest, EvaluatorAgreesWithBruteForce) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<ClassId> palette;
  for (const char* name : {"a", "b", "c", "d"}) {
    palette.push_back(vocab->InternClass(name));
  }
  RandomForestOptions options;
  options.num_entries = 120;
  options.seed = GetParam();
  options.max_classes_per_entry = 2;
  Directory d = MakeRandomForest(vocab, palette, options);

  // A delta: every third entry.
  EntrySet delta(d.IdCapacity());
  for (EntryId id = 0; id < d.IdCapacity(); id += 3) delta.Insert(id);
  d.PublishSnapshot();
  PinnedSnapshot pin = d.PinSnapshot();
  ASSERT_TRUE(pin);

  // `scoped`: the query uses Δ scopes, which only the live source has.
  auto check = [&](const Query& q, bool scoped = false) {
    std::vector<EntryId> expected = BruteForce(d, q, &delta).ToVector();
    QueryEvaluator evaluator(d, &delta);
    EXPECT_EQ(evaluator.Evaluate(q).ToVector(), expected)
        << q.ToString(*vocab) << " seed=" << GetParam();
    if (scoped) return;
    QueryEvaluator pinned(*pin);
    EXPECT_EQ(pinned.Evaluate(q).ToVector(), expected)
        << "[pinned] " << q.ToString(*vocab) << " seed=" << GetParam();
    EXPECT_TRUE(pinned.status().ok()) << "[pinned] " << q.ToString(*vocab);
  };

  for (ClassId x : palette) {
    for (ClassId y : palette) {
      for (Axis axis : kAllAxes) {
        Query hier = Query::Hier(axis, Query::Select(MatchClass(x)),
                                 Query::Select(MatchClass(y)));
        check(hier);
        check(Query::Diff(Query::Select(MatchClass(x)), hier));
        // Scoped variant (the Figure 5 building block).
        Query scoped = Query::Hier(
            axis, Query::Select(MatchClass(x), Scope::kDeltaOnly),
            Query::Select(MatchClass(y), Scope::kExcludeDelta));
        check(scoped, /*scoped=*/true);
      }
      check(Query::Union({Query::Select(MatchClass(x)),
                          Query::Select(MatchClass(y))}));
      check(Query::Intersect({Query::Select(MatchClass(x)),
                              Query::Select(MatchClass(y))}));
    }
  }
  check(Query::Intersect({}));
  check(Query::Select(MatchAll()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace ldapbound
