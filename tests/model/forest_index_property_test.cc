// Property tests for the incremental (gap-labelled) ForestIndex: after any
// random interleaving of Add / DeleteLeaf / DeleteSubtree / MoveSubtree the
// index's links must match an independent model of the forest, its labels
// must pass the audit, and IsAncestor must agree with the parent walk —
// including for dead and out-of-range ids (the unguarded-read regression).

#include "model/forest_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "model/directory.h"
#include "tests/testing/helpers.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::Ids;
using testing::SimpleWorld;

// The forest as the test itself keeps it, from the ops it applies: each
// alive entry's parent, and each list of children in sibling order
// (kInvalidEntryId's list being the roots). It shares no code with the
// index it checks.
struct TreeModel {
  std::map<EntryId, EntryId> parent;
  std::map<EntryId, std::vector<EntryId>> children;

  void Add(EntryId under, EntryId id) {
    parent[id] = under;
    children[under].push_back(id);
  }
  void Unlink(EntryId id) {
    std::vector<EntryId>& siblings = children[parent.at(id)];
    siblings.erase(std::find(siblings.begin(), siblings.end(), id));
  }
  void Delete(EntryId id) {
    Unlink(id);
    parent.erase(id);
    children.erase(id);
  }
  void Move(EntryId id, EntryId under) {
    Unlink(id);
    Add(under, id);
  }
  // `id` and its descendants, parents before children.
  std::vector<EntryId> Subtree(EntryId id) const {
    std::vector<EntryId> out{id};
    for (size_t i = 0; i < out.size(); ++i) {
      auto it = children.find(out[i]);
      if (it == children.end()) continue;
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    return out;
  }
  bool IsAncestor(EntryId anc, EntryId desc) const {
    for (EntryId a = parent.at(desc); a != kInvalidEntryId; a = parent.at(a)) {
      if (a == anc) return true;
    }
    return false;
  }
  std::vector<EntryId> ChildrenOf(EntryId id) const {
    auto it = children.find(id);
    return it == children.end() ? std::vector<EntryId>{} : it->second;
  }
};

// The directory's parents, child orders and roots against the model's,
// then the index's own audit.
::testing::AssertionResult MatchesModel(const Directory& d,
                                        const TreeModel& m) {
  if (d.NumEntries() != m.parent.size()) {
    return ::testing::AssertionFailure()
           << d.NumEntries() << " entries, the model has " << m.parent.size();
  }
  if (Ids(d.roots()) != m.ChildrenOf(kInvalidEntryId)) {
    return ::testing::AssertionFailure() << "roots differ";
  }
  for (const auto& [id, parent] : m.parent) {
    if (!d.IsAlive(id) || d.entry(id).parent() != parent) {
      return ::testing::AssertionFailure() << "parent of " << id;
    }
    if (Ids(d.entry(id).children()) != m.ChildrenOf(id)) {
      return ::testing::AssertionFailure() << "children of " << id;
    }
  }
  if (!d.GetIndex().EquivalentToFresh(d)) {
    return ::testing::AssertionFailure() << "audit failed";
  }
  return ::testing::AssertionSuccess();
}

// `base`'s children (the roots for kInvalidEntryId) as a pinned
// snapshot's one-level walk yields them.
std::vector<EntryId> PinnedOneLevel(const PinnedSnapshot& pin, EntryId base) {
  std::vector<EntryId> out;
  pin->WalkScope(base, SearchScope::kOneLevel, 0, [&](EntryId id) {
    out.push_back(id);
    return true;
  });
  return out;
}

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

// One randomized mutation, applied to `d` and, when it succeeds, to the
// model; returns false when the dice picked an op that is not applicable
// (e.g. delete on an empty directory).
bool MutateOnce(Directory& d, TreeModel& m, const SimpleWorld& w,
                std::mt19937_64& rng) {
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
    if (id.ok()) m.Add(parent, *id);
    return id.ok();
  }
  if (op <= 6) {  // delete a leaf
    std::vector<EntryId> leaves;
    for (EntryId id : alive) {
      if (m.ChildrenOf(id).empty()) leaves.push_back(id);
    }
    if (leaves.empty()) return false;
    EntryId leaf = pick(leaves);
    if (!d.DeleteLeaf(leaf).ok()) return false;
    m.Delete(leaf);
    return true;
  }
  if (op == 7) {  // delete a whole subtree
    EntryId top = pick(alive);
    if (!d.DeleteSubtree(top).ok()) return false;
    std::vector<EntryId> doomed = m.Subtree(top);
    for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) m.Delete(*it);
    return true;
  }
  // Move a subtree under a random non-descendant (or to root).
  EntryId id = pick(alive);
  EntryId new_parent = kInvalidEntryId;
  if (std::uniform_int_distribution<int>(0, 4)(rng) != 0) {
    EntryId candidate = pick(alive);
    if (candidate == id || m.IsAncestor(id, candidate)) return false;
    if (candidate == m.parent.at(id)) return false;
    new_parent = candidate;
  } else if (m.parent.at(id) == kInvalidEntryId) {
    return false;  // already a root
  }
  if (!d.MoveSubtree(id, new_parent).ok()) return false;
  m.Move(id, new_parent);
  return true;
}

TEST(ForestIndexPropertyTest, IncrementalEqualsFreshRebuildUnderRandomOps) {
  SimpleWorld w;
  for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
    Directory d(w.vocab);
    TreeModel m;
    std::mt19937_64 rng(seed);
    for (int step = 0; step < 300; ++step) {
      if (!MutateOnce(d, m, w, rng)) continue;
      ASSERT_TRUE(MatchesModel(d, m))
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
  TreeModel m;
  std::mt19937_64 rng(99);
  for (int step = 0; step < 200; ++step) MutateOnce(d, m, w, rng);

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

// Targeted unlinks: the first, a middle and the last child, a middle
// child moved, the only root deleted and a root added. Each step is
// checked against the model, and a pin taken before it keeps the old
// one-level order while a pin taken after reads the new one.
TEST(ForestIndexPropertyTest, UnlinkAtEveryListPositionKeepsPinnedOrders) {
  SimpleWorld w;
  Directory d(w.vocab);
  TreeModel m;
  auto add = [&](EntryId parent, const std::string& rdn) {
    EntryId id = AddBare(d, parent, rdn, {w.top});
    m.Add(parent, id);
    return id;
  };
  EntryId root = add(kInvalidEntryId, "root");
  EntryId other = add(root, "other");
  std::vector<EntryId> c;
  for (int i = 0; i < 6; ++i) c.push_back(add(root, "c" + std::to_string(i)));
  add(other, "o0");

  auto step = [&](const char* what, auto&& mutate) {
    SCOPED_TRACE(what);
    d.PublishSnapshot();
    PinnedSnapshot before = d.PinSnapshot();
    const TreeModel old = m;
    mutate();
    ASSERT_TRUE(MatchesModel(d, m));
    d.PublishSnapshot();
    PinnedSnapshot after = d.PinSnapshot();
    for (const auto& [id, parent] : old.parent) {
      EXPECT_EQ(PinnedOneLevel(before, id), old.ChildrenOf(id)) << id;
    }
    EXPECT_EQ(PinnedOneLevel(before, kInvalidEntryId),
              old.ChildrenOf(kInvalidEntryId));
    for (const auto& [id, parent] : m.parent) {
      EXPECT_EQ(PinnedOneLevel(after, id), m.ChildrenOf(id)) << id;
    }
    EXPECT_EQ(PinnedOneLevel(after, kInvalidEntryId),
              m.ChildrenOf(kInvalidEntryId));
  };
  auto remove = [&](EntryId id) {
    ASSERT_TRUE(d.DeleteLeaf(id).ok());
    m.Delete(id);
  };
  auto move = [&](EntryId id, EntryId under) {
    ASSERT_TRUE(d.MoveSubtree(id, under).ok());
    m.Move(id, under);
  };
  // root's children: other, c0 .. c5.
  step("first child", [&] { move(other, kInvalidEntryId); });
  step("delete the first child", [&] { remove(c[0]); });
  step("delete a middle child", [&] { remove(c[2]); });
  step("delete the last child", [&] { remove(c[5]); });
  step("move a middle child", [&] { move(c[3], other); });
  step("move it back", [&] { move(c[3], root); });
  EXPECT_EQ(Ids(d.entry(root).children()),
            (std::vector<EntryId>{c[1], c[4], c[3]}));

  // The only root goes, then a root comes.
  step("empty the forest", [&] {
    for (EntryId id : {c[1], c[4], c[3]}) remove(id);
    ASSERT_TRUE(d.DeleteSubtree(other).ok());
    std::vector<EntryId> doomed = m.Subtree(other);
    for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) m.Delete(*it);
  });
  step("delete the only root", [&] { remove(root); });
  EXPECT_TRUE(d.roots().empty());
  step("add a root", [&] { add(kInvalidEntryId, "again"); });
  EXPECT_EQ(d.roots().front(), m.ChildrenOf(kInvalidEntryId).front());
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
