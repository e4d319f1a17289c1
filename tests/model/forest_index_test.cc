#include "model/forest_index.h"

#include <gtest/gtest.h>

#include "model/directory.h"
#include "tests/testing/helpers.h"
#include "workload/random_gen.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

// The labels order `preorder` strictly ascending.
void ExpectLabelOrder(const ForestIndex& idx,
                      const std::vector<EntryId>& preorder) {
  for (size_t i = 1; i < preorder.size(); ++i) {
    EXPECT_LT(idx.label(preorder[i - 1]), idx.label(preorder[i])) << i;
  }
}

TEST(ForestIndexTest, PreorderAndIntervals) {
  SimpleWorld w;
  Directory d(w.vocab);
  // r
  // ├── a
  // │   ├── a1
  // │   └── a2
  // └── b
  EntryId r = AddBare(d, kInvalidEntryId, "o=r", {w.top});
  EntryId a = AddBare(d, r, "ou=a", {w.top});
  EntryId a1 = AddBare(d, a, "uid=a1", {w.top});
  EntryId a2 = AddBare(d, a, "uid=a2", {w.top});
  EntryId b = AddBare(d, r, "ou=b", {w.top});

  const ForestIndex& idx = d.GetIndex();
  ExpectLabelOrder(idx, {r, a, a1, a2, b});
  // Each interval holds its subtree and ends before the next entry.
  EXPECT_LT(idx.label(a2), idx.end_label(a));
  EXPECT_LE(idx.end_label(a), idx.label(b));
  EXPECT_LE(idx.end_label(a1), idx.label(a2));
  EXPECT_LT(idx.label(b), idx.end_label(r));
  EXPECT_EQ(idx.parent(a1), a);
  EXPECT_EQ(idx.parent(b), r);
  EXPECT_EQ(idx.parent(r), kInvalidEntryId);
  // r at depth 0, a and b at 1, a1 and a2 at 2.
  EXPECT_EQ(d.ComputeStats().depth_histogram,
            (std::vector<size_t>{1, 2, 2}));
}

TEST(ForestIndexTest, IsAncestor) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId r = AddBare(d, kInvalidEntryId, "o=r", {w.top});
  EntryId a = AddBare(d, r, "ou=a", {w.top});
  EntryId a1 = AddBare(d, a, "uid=a1", {w.top});
  EntryId b = AddBare(d, r, "ou=b", {w.top});

  const ForestIndex& idx = d.GetIndex();
  EXPECT_TRUE(idx.IsAncestor(r, a1));
  EXPECT_TRUE(idx.IsAncestor(a, a1));
  EXPECT_FALSE(idx.IsAncestor(a1, a));
  EXPECT_FALSE(idx.IsAncestor(a, b));
  EXPECT_FALSE(idx.IsAncestor(a, a));  // proper ancestry only
}

TEST(ForestIndexTest, MultipleRoots) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId r1 = AddBare(d, kInvalidEntryId, "o=r1", {w.top});
  EntryId r2 = AddBare(d, kInvalidEntryId, "o=r2", {w.top});
  EntryId c = AddBare(d, r2, "ou=c", {w.top});
  const ForestIndex& idx = d.GetIndex();
  ExpectLabelOrder(idx, {r1, r2, c});
  EXPECT_FALSE(idx.IsAncestor(r1, c));
  EXPECT_TRUE(idx.IsAncestor(r2, c));
}

TEST(ForestIndexTest, RebuildsAfterDeletion) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId r = AddBare(d, kInvalidEntryId, "o=r", {w.top});
  EntryId a = AddBare(d, r, "ou=a", {w.top});
  EntryId b = AddBare(d, r, "ou=b", {w.top});
  EXPECT_EQ(d.GetIndex().num_entries(), 3u);
  ASSERT_TRUE(d.DeleteLeaf(a).ok());
  const ForestIndex& idx = d.GetIndex();
  EXPECT_EQ(idx.num_entries(), 2u);
  ExpectLabelOrder(idx, {r, b});
  EXPECT_EQ(idx.label(a), ForestIndex::kNoLabel);
  EXPECT_FALSE(idx.IsAncestor(r, a));
  EXPECT_TRUE(idx.EquivalentToFresh(d));
}

// Property: on random forests, IsAncestor agrees with walking parent
// pointers, for every pair.
TEST(ForestIndexTest, PropertyAgreesWithParentWalk) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<ClassId> palette{vocab->top_class()};
  for (uint64_t seed : {1u, 2u, 3u}) {
    RandomForestOptions options;
    options.num_entries = 60;
    options.seed = seed;
    Directory d = MakeRandomForest(vocab, palette, options);
    const ForestIndex& idx = d.GetIndex();
    for (EntryId a = 0; a < d.IdCapacity(); ++a) {
      for (EntryId b = 0; b < d.IdCapacity(); ++b) {
        bool expected = false;
        EntryId cur = d.entry(b).parent();
        while (cur != kInvalidEntryId) {
          if (cur == a) {
            expected = true;
            break;
          }
          cur = d.entry(cur).parent();
        }
        EXPECT_EQ(idx.IsAncestor(a, b), expected)
            << "a=" << a << " b=" << b << " seed=" << seed;
      }
    }
  }
}

}  // namespace
}  // namespace ldapbound
