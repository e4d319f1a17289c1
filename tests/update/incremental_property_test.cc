// Property test for Theorem 4.2: given a legal instance D, the incremental
// verdict for a subtree insertion/deletion must equal a full re-check of
// the updated instance — for both validator modes (paper-faithful and the
// ancestor-path extension).
#include <gtest/gtest.h>

#include <random>

#include "core/legality_checker.h"
#include "update/incremental.h"
#include "update/subtree_snapshot.h"
#include "workload/white_pages.h"

namespace ldapbound {
namespace {

class IncrementalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Builds a random content-legal subtree of units/persons under `parent`.
std::vector<EntryId> GrowRandomSubtree(Directory& d, EntryId parent,
                                       std::mt19937_64& rng, int max_nodes) {
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_int_distribution<int> fan(1, 3);
  std::vector<EntryId> created;
  static int counter = 0;

  // Root of the subtree: a unit or a person.
  bool root_is_unit = kind(rng) != 0;
  EntrySpec spec;
  if (root_is_unit) {
    std::string name = "ru" + std::to_string(counter++);
    spec.rdn = "ou=" + name;
    spec.classes = {"orgUnit", "orgGroup", "top"};
    spec.values = {{"ou", name}};
  } else {
    std::string uid = "rp" + std::to_string(counter++);
    spec.rdn = "uid=" + uid;
    spec.classes = {"person", "top"};
    spec.values = {{"uid", uid}, {"name", "r " + uid}};
  }
  EntryId root = d.AddEntryFromSpec(parent, spec).value();
  created.push_back(root);
  if (!root_is_unit) return created;

  int budget = fan(rng) % max_nodes + 1;
  for (int i = 0; i < budget; ++i) {
    std::string uid = "rq" + std::to_string(counter++);
    EntrySpec person;
    person.rdn = "uid=" + uid;
    person.classes = {"person", "top"};
    person.values = {{"uid", uid}, {"name", "r " + uid}};
    created.push_back(d.AddEntryFromSpec(root, person).value());
  }
  return created;
}

TEST_P(IncrementalPropertyTest, InsertVerdictEqualsFullRecheck) {
  uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = MakeWhitePagesSchema(vocab);
  ASSERT_TRUE(schema.ok());
  LegalityChecker full(*schema);

  WhitePagesOptions options;
  options.seed = seed;
  options.org_unit_depth = 2;
  options.org_unit_fanout = 2;
  options.persons_per_unit = 2;
  auto directory = MakeWhitePagesInstance(*schema, options);
  ASSERT_TRUE(directory.ok());
  ASSERT_TRUE(full.CheckLegal(*directory));

  for (int round = 0; round < 12; ++round) {
    // Pick a random alive parent (or the root area) and insert a subtree.
    std::vector<EntryId> alive;
    directory->ForEachAlive([&](const Entry& e) { alive.push_back(e.id()); });
    std::uniform_int_distribution<size_t> pick(0, alive.size() - 1);
    EntryId parent = alive[pick(rng)];

    std::vector<EntryId> created =
        GrowRandomSubtree(*directory, parent, rng, 3);
    EntrySet delta;
    for (EntryId id : created) delta.Insert(id);

    bool expected = full.CheckLegal(*directory);
    IncrementalValidator validator(*schema);
    bool incremental = validator.CheckAfterInsert(*directory, delta);
    EXPECT_EQ(incremental, expected) << "seed=" << seed << " round=" << round;
    // The Δ-driven extension must agree as well.
    IncrementalValidator::Options dd;
    dd.delta_driven_insert = true;
    bool delta_driven =
        IncrementalValidator(*schema, dd).CheckAfterInsert(*directory, delta);
    EXPECT_EQ(delta_driven, expected)
        << "seed=" << seed << " round=" << round << " (delta-driven)";

    if (!expected) {
      // Keep the running instance legal: undo the bad insert.
      for (auto it = created.rbegin(); it != created.rend(); ++it) {
        ASSERT_TRUE(directory->DeleteLeaf(*it).ok());
      }
    }
  }
}

TEST_P(IncrementalPropertyTest, DeleteVerdictEqualsFullRecheck) {
  uint64_t seed = GetParam();
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = MakeWhitePagesSchema(vocab);
  ASSERT_TRUE(schema.ok());
  LegalityChecker full(*schema);

  WhitePagesOptions options;
  options.seed = seed;
  options.org_unit_depth = 2;
  options.org_unit_fanout = 2;
  options.persons_per_unit = 2;
  auto directory = MakeWhitePagesInstance(*schema, options);
  ASSERT_TRUE(directory.ok());
  ASSERT_TRUE(full.CheckLegal(*directory));

  for (int round = 0; round < 20; ++round) {
    std::vector<EntryId> alive;
    directory->ForEachAlive([&](const Entry& e) {
      if (e.parent() != kInvalidEntryId) alive.push_back(e.id());
    });
    if (alive.empty()) break;
    std::uniform_int_distribution<size_t> pick(0, alive.size() - 1);
    EntryId doomed = alive[pick(rng)];
    EntrySet delta;
    for (EntryId id : directory->SubtreeEntries(doomed)) delta.Insert(id);

    // Both validator modes run against the pre-deletion instance.
    IncrementalValidator::Options faithful;
    IncrementalValidator::Options optimized;
    optimized.ancestor_path_optimization = true;
    bool verdict_faithful = IncrementalValidator(*schema, faithful)
                                .CheckBeforeDelete(*directory, doomed, delta);
    bool verdict_optimized = IncrementalValidator(*schema, optimized)
                                 .CheckBeforeDelete(*directory, doomed,
                                                    delta);

    // Oracle: apply the deletion, fully re-check, then restore.
    SubtreeSnapshot snapshot = *SubtreeSnapshot::Capture(*directory, doomed);
    EntryId parent = directory->entry(doomed).parent();
    ASSERT_TRUE(directory->DeleteSubtree(doomed).ok());
    bool expected = full.CheckLegal(*directory);
    EXPECT_EQ(verdict_faithful, expected)
        << "seed=" << seed << " round=" << round;
    EXPECT_EQ(verdict_optimized, expected)
        << "seed=" << seed << " round=" << round << " (optimized)";
    auto restored = snapshot.Restore(&*directory, parent);
    ASSERT_TRUE(restored.ok()) << restored.status();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace ldapbound
