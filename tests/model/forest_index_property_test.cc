// Property tests for the incremental (gap-labelled) ForestIndex: after any
// random interleaving of Add / DeleteLeaf / DeleteSubtree / MoveSubtree the
// live index must be preorder-equivalent to an index rebuilt from scratch,
// and IsAncestor must agree with the parent walk — including for dead and
// out-of-range ids (the unguarded-read regression).

#include "model/forest_index.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "model/directory.h"
#include "tests/testing/helpers.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

// Local relabels and full rebuilds so far, process-wide (the index counts
// them only in the metric registry).
uint64_t Relabels() {
  return MetricRegistry::Default().Read("ldapbound_index_relabels_total");
}
uint64_t Rebuilds() {
  return MetricRegistry::Default().Read("ldapbound_index_full_rebuilds_total");
}

std::vector<EntryId> AliveIds(const Directory& d) {
  std::vector<EntryId> ids;
  d.ForEachAlive([&](const Entry& e) { ids.push_back(e.id()); });
  return ids;
}

bool IsAncestorByWalk(const Directory& d, EntryId anc, EntryId desc) {
  for (EntryId a = d.entry(desc).parent(); a != kInvalidEntryId;
       a = d.entry(a).parent()) {
    if (a == anc) return true;
  }
  return false;
}

// One randomized mutation; returns false when the dice picked an op that is
// not applicable (e.g. delete on an empty directory).
bool MutateOnce(Directory& d, const SimpleWorld& w, std::mt19937_64& rng) {
  std::vector<EntryId> alive = AliveIds(d);
  std::uniform_int_distribution<int> op_dist(0, 9);
  int op = op_dist(rng);
  auto pick = [&](const std::vector<EntryId>& from) {
    return from[std::uniform_int_distribution<size_t>(0, from.size() - 1)(
        rng)];
  };

  static uint64_t serial = 0;
  if (op <= 4 || alive.empty()) {  // bias toward growth
    EntryId parent = kInvalidEntryId;
    if (!alive.empty() &&
        std::uniform_int_distribution<int>(0, 9)(rng) != 0) {
      parent = pick(alive);
    }
    auto id = d.AddEntry(parent, "e" + std::to_string(serial++), {w.top}, {});
    return id.ok();
  }
  if (op <= 6) {  // delete a leaf
    std::vector<EntryId> leaves;
    for (EntryId id : alive) {
      if (d.entry(id).children().empty()) leaves.push_back(id);
    }
    if (leaves.empty()) return false;
    return d.DeleteLeaf(pick(leaves)).ok();
  }
  if (op == 7) {  // delete a whole subtree
    return d.DeleteSubtree(pick(alive)).ok();
  }
  // Move a subtree under a random non-descendant (or to root).
  EntryId id = pick(alive);
  EntryId new_parent = kInvalidEntryId;
  if (std::uniform_int_distribution<int>(0, 4)(rng) != 0) {
    EntryId candidate = pick(alive);
    if (candidate == id || IsAncestorByWalk(d, id, candidate)) return false;
    if (candidate == d.entry(id).parent()) return false;
    new_parent = candidate;
  } else if (d.entry(id).parent() == kInvalidEntryId) {
    return false;  // already a root
  }
  return d.MoveSubtree(id, new_parent).ok();
}

TEST(ForestIndexPropertyTest, IncrementalEqualsFreshRebuildUnderRandomOps) {
  SimpleWorld w;
  for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
    Directory d(w.vocab);
    std::mt19937_64 rng(seed);
    for (int step = 0; step < 300; ++step) {
      if (!MutateOnce(d, w, rng)) continue;
      ASSERT_TRUE(d.GetIndex().EquivalentToFresh(d))
          << "seed " << seed << " step " << step << " ("
          << d.NumEntries() << " entries, "
          << Relabels() << " relabels, " << Rebuilds()
          << " rebuilds in the process)";
    }
    EXPECT_EQ(d.GetIndex().num_entries(), d.NumEntries());
  }
}

TEST(ForestIndexPropertyTest, IsAncestorMatchesParentWalkAfterChurn) {
  SimpleWorld w;
  Directory d(w.vocab);
  std::mt19937_64 rng(99);
  for (int step = 0; step < 200; ++step) MutateOnce(d, w, rng);

  const ForestIndex& index = d.GetIndex();
  std::vector<EntryId> alive = AliveIds(d);
  ASSERT_FALSE(alive.empty());
  for (EntryId a : alive) {
    for (EntryId b : alive) {
      EXPECT_EQ(index.IsAncestor(a, b), IsAncestorByWalk(d, a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(ForestIndexPropertyTest, IsAncestorGuardsDeadAndOutOfRangeIds) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "root", {w.top});
  EntryId child = AddBare(d, root, "child", {w.top});
  EntryId doomed = AddBare(d, root, "doomed", {w.top});
  ASSERT_TRUE(d.DeleteLeaf(doomed).ok());

  const ForestIndex& index = d.GetIndex();
  EXPECT_TRUE(index.IsAncestor(root, child));

  // Out-of-range ids (beyond anything ever indexed) must read as "not an
  // ancestor", not as an out-of-bounds access.
  EntryId huge = static_cast<EntryId>(d.IdCapacity() + 1000);
  EXPECT_FALSE(index.IsAncestor(huge, child));
  EXPECT_FALSE(index.IsAncestor(root, huge));
  EXPECT_FALSE(index.IsAncestor(huge, huge));

  // Dead ids are never ancestors nor descendants.
  EXPECT_FALSE(index.IsAncestor(doomed, child));
  EXPECT_FALSE(index.IsAncestor(root, doomed));
  EXPECT_EQ(index.label(doomed), ForestIndex::kNoLabel);
  EXPECT_EQ(index.label(huge), ForestIndex::kNoLabel);
  EXPECT_EQ(index.parent(huge), kInvalidEntryId);
}

TEST(ForestIndexPropertyTest, AddDeleteCycleAtOneParentReusesLabelSpace) {
  // Add/delete churn at a fixed parent must not consume label space (the
  // youngest-sibling slot is reclaimed), so no relabels accumulate.
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "root", {w.top});
  uint64_t relabels_before = Relabels();
  uint64_t rebuilds_before = Rebuilds();
  for (int i = 0; i < 20000; ++i) {
    EntryId id = AddBare(d, root, "churn", {w.top});
    ASSERT_TRUE(d.DeleteLeaf(id).ok());
  }
  EXPECT_EQ(Relabels(), relabels_before);
  EXPECT_EQ(Rebuilds(), rebuilds_before);
  EXPECT_TRUE(d.GetIndex().EquivalentToFresh(d));
}

TEST(ForestIndexPropertyTest, DeepChainAndWideFanoutStayEquivalent) {
  SimpleWorld w;
  // A degenerate chain forces repeated interval subdivision under one
  // lineage; a wide fanout forces sibling packing — both must stay
  // equivalent (relabels are allowed, corruption is not).
  {
    Directory d(w.vocab);
    EntryId cur = AddBare(d, kInvalidEntryId, "root", {w.top});
    for (int i = 0; i < 2000; ++i) {
      cur = AddBare(d, cur, "c" + std::to_string(i), {w.top});
    }
    EXPECT_TRUE(d.GetIndex().EquivalentToFresh(d));
  }
  {
    Directory d(w.vocab);
    EntryId root = AddBare(d, kInvalidEntryId, "root", {w.top});
    for (int i = 0; i < 5000; ++i) {
      AddBare(d, root, "f" + std::to_string(i), {w.top});
    }
    EXPECT_TRUE(d.GetIndex().EquivalentToFresh(d));
  }
}

}  // namespace
}  // namespace ldapbound
