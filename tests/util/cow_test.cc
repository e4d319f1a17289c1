// Copy-on-write containers (util/cow.h): the O(Δ)-publication building
// blocks of the MVCC snapshot path. The load-bearing property everywhere
// is *freeze isolation* — a frozen View must keep answering with the
// values it was frozen at, no matter what the writer does afterwards.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "util/cow.h"

namespace ldapbound {
namespace {

TEST(CowVecTest, SetGetResize) {
  CowVec<uint64_t> v;
  EXPECT_EQ(v.size(), 0u);
  v.Resize(10, 7);
  ASSERT_EQ(v.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(v[i], 7u);
  v.Set(3, 42);
  EXPECT_EQ(v[3], 42u);
  // Growth keeps old values and fills new space.
  v.Resize(2000, 9);
  ASSERT_EQ(v.size(), 2000u);
  EXPECT_EQ(v[3], 42u);
  EXPECT_EQ(v[9], 7u);
  EXPECT_EQ(v[10], 9u);
  EXPECT_EQ(v[1999], 9u);
  // Resize never shrinks.
  v.Resize(5, 0);
  EXPECT_EQ(v.size(), 2000u);
}

TEST(CowVecTest, ViewGetFallback) {
  CowVec<uint64_t> v;
  v.Resize(4, 1);
  CowVec<uint64_t>::View view = v.Freeze();
  EXPECT_EQ(view.size(), 4u);
  EXPECT_EQ(view.Get(2, 99), 1u);
  EXPECT_EQ(view.Get(4, 99), 99u);   // out of range -> fallback
  EXPECT_EQ(view.Get(1000, 99), 99u);
  CowVec<uint64_t>::View empty;
  EXPECT_EQ(empty.Get(0, 99), 99u);
}

TEST(CowVecTest, FrozenViewIsolatedFromLaterWrites) {
  CowVec<uint64_t> v;
  const size_t n = 3 * CowVec<uint64_t>::kChunkSize;  // span several chunks
  v.Resize(n, 0);
  for (size_t i = 0; i < n; i += 97) v.Set(i, i);

  CowVec<uint64_t>::View v1 = v.Freeze();
  // Overwrite everything the view knows, including whole-chunk churn.
  for (size_t i = 0; i < n; ++i) v.Set(i, 1u << 20);
  v.Resize(n + CowVec<uint64_t>::kChunkSize, 5);
  CowVec<uint64_t>::View v2 = v.Freeze();

  ASSERT_EQ(v1.size(), n);
  for (size_t i = 0; i < n; i += 97) EXPECT_EQ(v1[i], i);
  for (size_t i = 1; i < n; i += 97) {
    if (i % 97 != 0) {
      EXPECT_EQ(v1.Get(i, 0), 0u);
    }
  }
  EXPECT_EQ(v2[0], 1u << 20);
  EXPECT_EQ(v2.Get(n + 1, 0), 5u);
}

TEST(CowVecTest, SequentialFreezesShareAndDiverge) {
  CowVec<int> v;
  v.Resize(8, 0);
  std::vector<CowVec<int>::View> versions;
  for (int round = 0; round < 6; ++round) {
    v.Set(round, round + 1);
    versions.push_back(v.Freeze());
  }
  // Version r sees exactly the first r+1 writes.
  for (int r = 0; r < 6; ++r) {
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(versions[r][i], i <= r ? i + 1 : 0) << "version " << r;
    }
  }
}

// Appending past the last Freeze writes in place: a View is never read
// at or past its size, so its tail chunk stays shared and no chunk is
// cloned. A write below the frozen size still clones.
TEST(CowVecTest, AppendsPastTheFreezeShareTheTailChunk) {
  constexpr size_t kChunk = CowVec<uint64_t>::kChunkSize;
  CowVec<uint64_t> v;
  const size_t n = kChunk + 10;  // the tail chunk is partly used
  v.Resize(n, 0);
  for (size_t i = 0; i < n; ++i) v.Set(i, i);
  CowVec<uint64_t>::View view = v.Freeze();

  for (size_t i = n; i < 2 * kChunk; ++i) {  // fill up the tail chunk
    v.Resize(i + 1, 0);
    v.Set(i, 1000 + i);
  }
  ASSERT_EQ(view.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(view[i], i) << i;
  // Shared, not cloned: the vector and the view read one element.
  EXPECT_EQ(&view[0], &v[0]);
  EXPECT_EQ(&view[n - 1], &v[n - 1]);

  // Below the frozen size, a write clones its chunk and only that one.
  v.Set(n - 1, 7);
  EXPECT_EQ(view[n - 1], n - 1);
  EXPECT_NE(&view[n - 1], &v[n - 1]);
  EXPECT_EQ(v[n - 1], 7u);
  EXPECT_EQ(v[n], 1000 + n);  // the clone kept the appends
  EXPECT_EQ(&view[0], &v[0]);
}

TEST(CowMapTest, SetFindErase) {
  CowMap<std::string, int> m;
  EXPECT_EQ(m.Find("a"), nullptr);
  m.Set("a", 1);
  m.Set("b", 2);
  ASSERT_NE(m.Find("a"), nullptr);
  EXPECT_EQ(*m.Find("a"), 1);
  m.Erase("a");
  EXPECT_EQ(m.Find("a"), nullptr);
  EXPECT_EQ(*m.Find("b"), 2);
  EXPECT_EQ(m.SizeSlow(), 1u);
}

TEST(CowMapTest, TombstoneShadowsFrozenState) {
  CowMap<int, int> m;
  m.Set(1, 10);
  CowMap<int, int>::View v1 = m.Freeze();
  m.Erase(1);
  CowMap<int, int>::View v2 = m.Freeze();
  m.Set(1, 30);
  CowMap<int, int>::View v3 = m.Freeze();

  ASSERT_NE(v1.Find(1), nullptr);
  EXPECT_EQ(*v1.Find(1), 10);
  EXPECT_EQ(v2.Find(1), nullptr);
  ASSERT_NE(v3.Find(1), nullptr);
  EXPECT_EQ(*v3.Find(1), 30);
}

// An erase tombstones only a key that frozen state holds: a key no
// Freeze sealed leaves the open delta, so churn that never freezes keeps
// the delta at the live keys.
TEST(CowMapTest, EraseOfNeverFrozenKeyLeavesNoTombstone) {
  CowMap<std::string, int> m;
  m.Set("kept", 1);
  m.Set("gone", 2);
  m.Erase("gone");
  EXPECT_EQ(m.OpenDeltaSize(), 1u);
  EXPECT_EQ(m.Find("gone"), nullptr);
  m.Erase("never-set");
  EXPECT_EQ(m.OpenDeltaSize(), 1u);
  for (int i = 0; i < 400000; ++i) {
    m.Set("k" + std::to_string(i), i);
    m.Erase("k" + std::to_string(i));
  }
  EXPECT_EQ(m.OpenDeltaSize(), 1u);

  // A frozen key still needs its tombstone, in every later delta.
  CowMap<std::string, int>::View v1 = m.Freeze();
  m.Erase("kept");
  EXPECT_EQ(m.OpenDeltaSize(), 1u);
  EXPECT_EQ(m.Find("kept"), nullptr);
  CowMap<std::string, int>::View v2 = m.Freeze();
  ASSERT_NE(v1.Find("kept"), nullptr);
  EXPECT_EQ(*v1.Find("kept"), 1);
  EXPECT_EQ(v2.Find("kept"), nullptr);
  // Erasing it again finds the sealed tombstone: nothing to shadow.
  m.Erase("kept");
  EXPECT_EQ(m.OpenDeltaSize(), 0u);
  EXPECT_EQ(m.Freeze().Find("kept"), nullptr);
  // Set and erased within one delta over a sealed value: shadowed.
  m.Set("x", 5);
  CowMap<std::string, int>::View v3 = m.Freeze();
  m.Set("x", 6);
  m.Erase("x");
  EXPECT_EQ(m.OpenDeltaSize(), 1u);
  EXPECT_EQ(m.Find("x"), nullptr);
  EXPECT_EQ(m.Freeze().Find("x"), nullptr);
  ASSERT_NE(v3.Find("x"), nullptr);
  EXPECT_EQ(*v3.Find("x"), 5);
  EXPECT_EQ(m.SizeSlow(), 0u);
}

TEST(CowMapTest, MutableClonesSealedValuesOncePerDelta) {
  CowMap<int, int> m;
  std::vector<const int*> made_from;  // make()'s argument, per call
  auto make = [&](const int* frozen) {
    made_from.push_back(frozen);
    return frozen == nullptr ? 0 : *frozen + 100;
  };
  m.Set(1, 10);
  // Before any freeze the key sits in the open delta: returned in place.
  m.Mutable(1, make) = 11;
  EXPECT_TRUE(made_from.empty());
  EXPECT_EQ(*m.Find(1), 11);

  CowMap<int, int>::View sealed = m.Freeze();
  // After the freeze the value is sealed — a frozen View references it,
  // so the writer gets a clone made from it, never the value itself.
  int& clone = m.Mutable(1, make);
  ASSERT_EQ(made_from.size(), 1u);
  ASSERT_NE(made_from[0], nullptr);
  EXPECT_EQ(*made_from[0], 11);
  EXPECT_EQ(clone, 111);
  EXPECT_NE(&clone, sealed.Find(1));
  clone = 112;
  EXPECT_EQ(*sealed.Find(1), 11);
  // The clone is the delta's value now: the next touch returns it.
  EXPECT_EQ(&m.Mutable(1, make), &clone);
  EXPECT_EQ(made_from.size(), 1u);

  // A tombstone is not a value: the next touch makes one from nothing.
  m.Erase(1);
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_EQ(m.Mutable(1, make), 0);
  ASSERT_EQ(made_from.size(), 2u);
  EXPECT_EQ(made_from[1], nullptr);
  // So does a key no state holds.
  EXPECT_EQ(m.Mutable(2, make), 0);
  ASSERT_EQ(made_from.size(), 3u);
  EXPECT_EQ(made_from[2], nullptr);
  EXPECT_EQ(*sealed.Find(1), 11);
  EXPECT_EQ(sealed.Find(2), nullptr);
}

// Fold/compaction correctness: write `writes` keys per round (some
// erasures) over a key space of `keys` for `rounds` rounds, freezing
// after each, so the chain both merges pairwise and folds into a fresh
// base, and check every version — old views must survive both untouched.
void ExpectEveryVersionSurvives(int keys, int writes, int rounds) {
  SCOPED_TRACE("key space " + std::to_string(keys) + ", " +
               std::to_string(writes) + " writes per round");
  CowMap<int, int> m;
  std::vector<CowMap<int, int>::View> versions;
  std::vector<std::map<int, int>> oracles;
  std::map<int, int> oracle;

  for (int round = 0; round < rounds; ++round) {
    for (int k = 0; k < writes; ++k) {
      int key = (round * 7 + k * 13) % keys;
      if ((round + k) % 5 == 0) {
        m.Erase(key);
        oracle.erase(key);
      } else {
        m.Set(key, round * 100 + k);
        oracle[key] = round * 100 + k;
      }
    }
    versions.push_back(m.Freeze());
    oracles.push_back(oracle);
  }

  for (int r = 0; r < rounds; ++r) {
    // Every oracle entry is found with the right value, and nothing else
    // in the key space is...
    for (int key = 0; key < keys; ++key) {
      const int* found = versions[r].Find(key);
      auto expected = oracles[r].find(key);
      if (expected == oracles[r].end()) {
        EXPECT_EQ(found, nullptr) << "version " << r << " key " << key;
        continue;
      }
      ASSERT_NE(found, nullptr) << "version " << r << " key " << key;
      EXPECT_EQ(*found, expected->second)
          << "version " << r << " key " << key;
    }
    // ...and ForEach enumerates exactly the oracle.
    std::map<int, int> seen;
    versions[r].ForEach([&](const int& k, const int& v) {
      EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate key " << k;
    });
    EXPECT_EQ(seen, oracles[r]) << "version " << r;
  }
}

TEST(CowMapTest, FoldPreservesAllVersions) {
  // Folds once, at round 11: four sealed overlays onto an empty base.
  ExpectEveryVersionSurvives(/*keys=*/40, /*writes=*/10, /*rounds=*/20);
  // Folds 12 times: one overlay adopted as the empty base (round 0), one
  // overlay onto a non-empty base (rounds 1-3), then pairs of overlays.
  ExpectEveryVersionSurvives(/*keys=*/1000, /*writes=*/150, /*rounds=*/20);
}

}  // namespace
}  // namespace ldapbound
