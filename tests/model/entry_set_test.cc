#include "model/entry_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <set>
#include <vector>

namespace ldapbound {
namespace {

constexpr EntryId kEdge = EntrySet::kChunkIds;  // first id of chunk 1

EntrySet Of(std::initializer_list<EntryId> ids) {
  EntrySet set;
  for (EntryId id : ids) set.Insert(id);
  return set;
}

TEST(EntrySetTest, InsertEraseContains) {
  EntrySet set;
  EXPECT_TRUE(set.Empty());
  set.Insert(0);
  set.Insert(63);
  set.Insert(64);
  set.Insert(199);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(63));
  EXPECT_TRUE(set.Contains(64));
  EXPECT_TRUE(set.Contains(199));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Contains(500));
  EXPECT_FALSE(set.Contains(10 * kEdge));  // past the table: false, not UB
  EXPECT_EQ(set.Count(), 4u);
  set.Erase(63);
  EXPECT_FALSE(set.Contains(63));
  EXPECT_EQ(set.Count(), 3u);
}

TEST(EntrySetTest, SetAlgebra) {
  EntrySet a = Of({1, 2, 100});
  EntrySet b = Of({2, 3});

  EntrySet u = a;
  u.UnionWith(b);
  EXPECT_EQ(u.Count(), 4u);

  EntrySet i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Contains(2));

  EntrySet d = a;
  d.SubtractFrom(b);
  EXPECT_EQ(d.Count(), 2u);
  EXPECT_TRUE(d.Contains(1));
  EXPECT_TRUE(d.Contains(100));
  EXPECT_FALSE(d.Contains(2));
}

TEST(EntrySetTest, ForEachAscending) {
  EntrySet set = Of({250, 3, 64, 65});
  std::vector<EntryId> seen;
  set.ForEach([&](EntryId id) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<EntryId>{3, 64, 65, 250}));
  EXPECT_EQ(set.ToVector(), seen);
}

// Erasing the last member leaves its chunk in place, holding no id: the
// set is empty and equals one that never held anything.
TEST(EntrySetTest, EraseToEmptyAndEquality) {
  EntrySet a, b;
  a.Insert(5);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a.Empty());
  a.Erase(5);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  EXPECT_TRUE(a.Empty());
  EXPECT_EQ(a.Count(), 0u);
  EXPECT_FALSE(a.Intersects(a));
  EXPECT_TRUE(a.IsSubsetOf(b));
  b.Insert(kEdge);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
}

TEST(EntrySetTest, DefaultConstructedIsEmpty) {
  EntrySet set;
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Count(), 0u);
  EXPECT_FALSE(set.Contains(0));
  EXPECT_TRUE(set.ForEachWhile([](EntryId) { return false; }));
}

// The sentinel is no member: inserting it builds no table sized to reach
// it, and erasing ids no chunk holds changes nothing.
TEST(EntrySetTest, InsertEraseOutOfRangeIgnored) {
  EntrySet set;
  set.Insert(kInvalidEntryId);
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Count(), 0u);
  EXPECT_FALSE(set.Contains(kInvalidEntryId));
  set.Insert(99);
  set.Erase(100);
  set.Erase(3 * kEdge);
  set.Erase(kInvalidEntryId);
  EXPECT_EQ(set.Count(), 1u);
  EXPECT_TRUE(set.Contains(99));
  EXPECT_EQ(set, Of({99}));
}

TEST(EntrySetTest, IdsOnBothSidesOfAChunkEdge) {
  const std::vector<EntryId> ids = {kEdge - 1, kEdge, 2 * kEdge - 1,
                                    2 * kEdge, 5 * kEdge + 7};
  EntrySet set;
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) set.Insert(*it);
  for (EntryId id : ids) EXPECT_TRUE(set.Contains(id)) << id;
  EXPECT_FALSE(set.Contains(kEdge - 2));
  EXPECT_FALSE(set.Contains(kEdge + 1));
  EXPECT_FALSE(set.Contains(3 * kEdge));
  EXPECT_EQ(set.Count(), ids.size());
  EXPECT_EQ(set.ToVector(), ids);

  // Stopping at the first id of chunk 1 visits the last id of chunk 0.
  std::vector<EntryId> seen;
  EXPECT_FALSE(set.ForEachWhile([&](EntryId id) {
    seen.push_back(id);
    return id < kEdge;
  }));
  EXPECT_EQ(seen, (std::vector<EntryId>{kEdge - 1, kEdge}));

  // Erasing a chunk's only id leaves its neighbors.
  set.Erase(kEdge);
  EXPECT_FALSE(set.Contains(kEdge));
  EXPECT_TRUE(set.Contains(kEdge - 1));
  EXPECT_TRUE(set.Contains(2 * kEdge - 1));
  EXPECT_EQ(set.Count(), ids.size() - 1);

  EntrySet low = Of({kEdge - 1});
  EntrySet high = Of({kEdge});
  EXPECT_FALSE(low.Intersects(high));
  EXPECT_FALSE(low.IsSubsetOf(high));
  EntrySet both = low;
  both.UnionWith(high);
  EXPECT_EQ(both.ToVector(), (std::vector<EntryId>{kEdge - 1, kEdge}));
}

// Each operation, with the left side, then the right side, lacking a
// chunk the other holds (chunk 1 here), and with a chunk neither holds.
TEST(EntrySetTest, AlgebraWithEitherSideLackingAChunk) {
  const EntrySet both_chunks = Of({1, kEdge + 1, 3 * kEdge});
  const EntrySet chunk0_only = Of({1, 2});

  EntrySet u = chunk0_only;
  u.UnionWith(both_chunks);
  EXPECT_EQ(u, Of({1, 2, kEdge + 1, 3 * kEdge}));
  u = both_chunks;
  u.UnionWith(chunk0_only);
  EXPECT_EQ(u, Of({1, 2, kEdge + 1, 3 * kEdge}));

  EntrySet i = chunk0_only;
  i.IntersectWith(both_chunks);
  EXPECT_EQ(i, Of({1}));
  i = both_chunks;
  i.IntersectWith(chunk0_only);
  EXPECT_EQ(i, Of({1}));
  EXPECT_FALSE(i.Contains(kEdge + 1));

  EntrySet d = chunk0_only;
  d.SubtractFrom(both_chunks);
  EXPECT_EQ(d, Of({2}));
  d = both_chunks;
  d.SubtractFrom(chunk0_only);
  EXPECT_EQ(d, Of({kEdge + 1, 3 * kEdge}));

  const EntrySet chunk1_only = Of({kEdge + 1});
  EXPECT_TRUE(both_chunks.Intersects(chunk1_only));
  EXPECT_TRUE(chunk1_only.Intersects(both_chunks));
  EXPECT_FALSE(chunk0_only.Intersects(chunk1_only));
  EXPECT_FALSE(chunk1_only.Intersects(chunk0_only));
  EXPECT_TRUE(chunk1_only.IsSubsetOf(both_chunks));
  EXPECT_FALSE(both_chunks.IsSubsetOf(chunk1_only));
  EXPECT_FALSE(chunk1_only.IsSubsetOf(chunk0_only));
  EXPECT_TRUE(EntrySet().IsSubsetOf(chunk0_only));

  // An intersection or difference that empties a chunk drops it.
  EntrySet gone = chunk1_only;
  gone.IntersectWith(chunk0_only);
  EXPECT_TRUE(gone.Empty());
  gone = chunk1_only;
  gone.SubtractFrom(both_chunks);
  EXPECT_TRUE(gone.Empty());
  EXPECT_EQ(gone, EntrySet());
}

TEST(EntrySetTest, AWrittenCopyLeavesItsSourceUnchanged) {
  EntrySet source = Of({1, 70, kEdge + 2});
  EntrySet copy = source;
  copy.Insert(2);
  copy.Erase(70);
  copy.Erase(kEdge + 2);
  copy.Insert(4 * kEdge);
  EXPECT_EQ(source, Of({1, 70, kEdge + 2}));
  EXPECT_EQ(copy, Of({1, 2, 4 * kEdge}));

  // And the reverse: writing the source leaves an earlier copy.
  EntrySet earlier = source;
  source.Insert(3);
  source.Erase(1);
  source.UnionWith(Of({kEdge + 9}));
  source.IntersectWith(Of({3, 70, kEdge + 9}));
  EXPECT_EQ(earlier, Of({1, 70, kEdge + 2}));
  EXPECT_EQ(source, Of({3, 70, kEdge + 9}));

  // In-place algebra on a copy leaves the operand it shares chunks with.
  EntrySet operand = Of({5, kEdge + 5});
  EntrySet acc;
  acc.UnionWith(operand);  // shares both chunks
  acc.Insert(6);
  acc.SubtractFrom(Of({kEdge + 5}));
  EXPECT_EQ(operand, Of({5, kEdge + 5}));
  EXPECT_EQ(acc, Of({5, 6}));
}

TEST(EntrySetTest, EqualMembersBuiltInDifferentOrdersCompareEqual) {
  EntrySet forward;
  EntrySet backward;
  const std::vector<EntryId> ids = {3, 64, kEdge, 2 * kEdge + 1};
  for (EntryId id : ids) forward.Insert(id);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) backward.Insert(*it);
  EXPECT_EQ(forward, backward);

  // A set that once reached further, or held and lost a chunk, equals one
  // that never did.
  EntrySet detour = backward;
  detour.Insert(9 * kEdge);
  detour.Insert(kEdge + 3);
  detour.Erase(9 * kEdge);
  detour.Erase(kEdge + 3);
  EXPECT_EQ(detour, forward);
  EXPECT_EQ(forward, detour);
  detour.Erase(3);
  EXPECT_FALSE(detour == forward);
  EXPECT_FALSE(forward == detour);
}

TEST(EntrySetTest, Intersects) {
  EntrySet a, b;
  EXPECT_FALSE(a.Intersects(b));
  a.Insert(63);
  b.Insert(64);  // adjacent ids in different words
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_FALSE(b.Intersects(a));
  b.Insert(63);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  b.Erase(63);
  a.Insert(127);
  b.Insert(127);  // overlap only in the last bit of word 1
  EXPECT_TRUE(a.Intersects(b));
}

TEST(EntrySetTest, IsSubsetOf) {
  EntrySet a, b;
  EXPECT_TRUE(a.IsSubsetOf(b));  // empty ⊆ empty
  b.Insert(5);
  b.Insert(64);
  b.Insert(127);
  EXPECT_TRUE(a.IsSubsetOf(b));  // empty ⊆ b
  EXPECT_FALSE(b.IsSubsetOf(a));
  a.Insert(64);
  a.Insert(127);
  EXPECT_TRUE(a.IsSubsetOf(b));
  a.Insert(128);  // word 2, absent from b
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.IsSubsetOf(a));
}

TEST(EntrySetTest, ForEachWhile) {
  EntrySet set = Of({3, 63, 64, 150});
  // Runs to completion when fn never stops.
  std::vector<EntryId> seen;
  EXPECT_TRUE(set.ForEachWhile([&](EntryId id) {
    seen.push_back(id);
    return true;
  }));
  EXPECT_EQ(seen, (std::vector<EntryId>{3, 63, 64, 150}));
  // Stops at the first id >= 64 and reports early exit.
  seen.clear();
  EXPECT_FALSE(set.ForEachWhile([&](EntryId id) {
    seen.push_back(id);
    return id < 64;
  }));
  EXPECT_EQ(seen, (std::vector<EntryId>{3, 63, 64}));
}

// Random inserts, erases, copies and algebra over four chunks agree with
// std::set, and no write through one set shows in another.
TEST(EntrySetTest, MatchesAReferenceSetUnderRandomOperations) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<EntryId> any_id(0, 4 * kEdge - 1);
  std::uniform_int_distribution<int> any_op(0, 7);
  constexpr int kSets = 4;
  std::vector<EntrySet> sets(kSets);
  std::vector<std::set<EntryId>> want(kSets);
  auto pick = [&rng] {
    return std::uniform_int_distribution<int>(0, kSets - 1)(rng);
  };
  for (int step = 0; step < 20000; ++step) {
    const int a = pick();
    const int b = pick();
    std::set<EntryId> out;
    switch (any_op(rng)) {
      case 0:
      case 1: {
        const EntryId id = any_id(rng);
        sets[a].Insert(id);
        want[a].insert(id);
        break;
      }
      case 2:
      case 3: {
        // Erase a member when there is one, so chunks drain.
        const EntryId id = want[a].empty() ? any_id(rng) : *want[a].begin();
        sets[a].Erase(id);
        want[a].erase(id);
        break;
      }
      case 4:
        sets[a] = sets[b];
        want[a] = want[b];
        break;
      case 5:
        sets[a].UnionWith(sets[b]);
        want[a].insert(want[b].begin(), want[b].end());
        break;
      case 6:
        sets[a].IntersectWith(sets[b]);
        std::set_intersection(want[a].begin(), want[a].end(),
                              want[b].begin(), want[b].end(),
                              std::inserter(out, out.end()));
        want[a] = std::move(out);
        break;
      case 7:
        sets[a].SubtractFrom(sets[b]);
        std::set_difference(want[a].begin(), want[a].end(), want[b].begin(),
                            want[b].end(), std::inserter(out, out.end()));
        want[a] = std::move(out);
        break;
    }
    for (int i : {a, b}) {
      ASSERT_EQ(sets[i].ToVector(),
                std::vector<EntryId>(want[i].begin(), want[i].end()))
          << "step " << step;
      ASSERT_EQ(sets[i].Count(), want[i].size());
      ASSERT_EQ(sets[i].Empty(), want[i].empty());
    }
    ASSERT_EQ(sets[a] == sets[b], want[a] == want[b]);
    ASSERT_EQ(sets[a].IsSubsetOf(sets[b]),
              std::includes(want[b].begin(), want[b].end(), want[a].begin(),
                            want[a].end()));
    const bool overlap = std::any_of(
        want[a].begin(), want[a].end(),
        [&](EntryId id) { return want[b].count(id) != 0; });
    ASSERT_EQ(sets[a].Intersects(sets[b]), overlap);
  }
}

}  // namespace
}  // namespace ldapbound
