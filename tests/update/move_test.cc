// Directory::MoveSubtree / Rename and the incremental ModDN check
// (CheckAfterMove), with verdict equivalence against full rechecks.
#include <gtest/gtest.h>

#include <random>

#include "core/legality_checker.h"
#include "ldap/dn.h"
#include "tests/testing/helpers.h"
#include "update/incremental.h"
#include "workload/white_pages.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

class MoveTest : public ::testing::Test {
 protected:
  MoveTest() : d_(w_.vocab) {
    acme_ = AddBare(d_, kInvalidEntryId, "o=acme", {w_.top, w_.org});
    hr_ = AddBare(d_, acme_, "ou=hr", {w_.top, w_.org});
    eng_ = AddBare(d_, acme_, "ou=eng", {w_.top, w_.org});
    bob_ = d_.AddEntry(hr_, "uid=bob", {w_.top, w_.person},
                       {{w_.name, Value("Bob")}})
               .value();
  }

  SimpleWorld w_;
  Directory d_;
  EntryId acme_, hr_, eng_, bob_;
};

TEST_F(MoveTest, BasicMove) {
  ASSERT_TRUE(d_.MoveSubtree(bob_, eng_).ok());
  EXPECT_EQ(d_.entry(bob_).parent(), eng_);
  EXPECT_TRUE(d_.entry(hr_).children().empty());
  EXPECT_EQ(testing::Ids(d_.entry(eng_).children()),
            std::vector<EntryId>{bob_});
  // The index follows: bob's labels now sit inside eng's interval.
  const ForestIndex& index = d_.GetIndex();
  EXPECT_LT(index.label(hr_), index.label(eng_));
  EXPECT_LT(index.label(eng_), index.label(bob_));
  EXPECT_TRUE(index.IsAncestor(eng_, bob_));
  EXPECT_FALSE(index.IsAncestor(hr_, bob_));
  EXPECT_EQ(index.parent(bob_), eng_);
  EXPECT_TRUE(index.EquivalentToFresh(d_));
}

TEST_F(MoveTest, MoveToRootAndBack) {
  ASSERT_TRUE(d_.MoveSubtree(bob_, kInvalidEntryId).ok());
  EXPECT_EQ(d_.entry(bob_).parent(), kInvalidEntryId);
  EXPECT_EQ(testing::Ids(d_.roots()), (std::vector<EntryId>{acme_, bob_}));
  ASSERT_TRUE(d_.MoveSubtree(bob_, hr_).ok());
  EXPECT_EQ(testing::Ids(d_.roots()), std::vector<EntryId>{acme_});
  EXPECT_EQ(d_.entry(bob_).parent(), hr_);
}

TEST_F(MoveTest, MoveUnderOwnSubtreeRejected) {
  EXPECT_EQ(d_.MoveSubtree(acme_, hr_).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(d_.MoveSubtree(acme_, acme_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MoveTest, MoveRdnCollisionRejected) {
  AddBare(d_, eng_, "uid=bob", {w_.top, w_.person});
  EXPECT_EQ(d_.MoveSubtree(bob_, eng_).code(), StatusCode::kAlreadyExists);
  // Original position intact after the failed move.
  EXPECT_EQ(d_.entry(bob_).parent(), hr_);
}

TEST_F(MoveTest, MoveWholeSubtreeKeepsDescendants) {
  EntryId gadget = AddBare(d_, bob_, "cn=gadget", {w_.top});
  ASSERT_TRUE(d_.MoveSubtree(hr_, eng_).ok());
  EXPECT_EQ(d_.entry(hr_).parent(), eng_);
  EXPECT_EQ(d_.entry(bob_).parent(), hr_);
  EXPECT_EQ(d_.entry(gadget).parent(), bob_);
  EXPECT_TRUE(d_.GetIndex().IsAncestor(eng_, gadget));
}

TEST_F(MoveTest, Rename) {
  ASSERT_TRUE(d_.Rename(bob_, "uid=robert").ok());
  EXPECT_EQ(d_.entry(bob_).rdn(), "uid=robert");
  AddBare(d_, hr_, "uid=alice", {w_.top, w_.person});
  EXPECT_EQ(d_.Rename(bob_, "UID=ALICE").code(), StatusCode::kAlreadyExists);
  // Case-only change of one's own RDN is allowed.
  ASSERT_TRUE(d_.Rename(bob_, "UID=Robert").ok());
  EXPECT_EQ(d_.entry(bob_).rdn(), "UID=Robert");
}

TEST_F(MoveTest, CheckAfterMoveRequiredChild) {
  w_.schema.mutable_structure().Require(w_.org, Axis::kChild, w_.person);
  // Make D legal: give eng and acme persons too.
  AddBare(d_, eng_, "uid=e1", {w_.top, w_.person});
  AddBare(d_, acme_, "uid=a1", {w_.top, w_.person});
  IncrementalValidator validator(w_.schema);
  // Moving bob from hr to eng leaves hr without a person child.
  ASSERT_TRUE(d_.MoveSubtree(bob_, eng_).ok());
  std::vector<Violation> out;
  EXPECT_FALSE(validator.CheckAfterMove(d_, bob_, hr_, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].entry, hr_);
}

TEST_F(MoveTest, CheckAfterMoveAncestorRequirement) {
  w_.schema.mutable_structure().Require(w_.person, Axis::kAncestor, w_.org);
  IncrementalValidator validator(w_.schema);
  // Moving bob to the forest root strips his org ancestors.
  ASSERT_TRUE(d_.MoveSubtree(bob_, kInvalidEntryId).ok());
  std::vector<Violation> out;
  EXPECT_FALSE(validator.CheckAfterMove(d_, bob_, hr_, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].entry, bob_);
  EXPECT_EQ(out[0].relationship.axis, Axis::kAncestor);
}

TEST_F(MoveTest, CheckAfterMoveForbiddenDescendant) {
  ASSERT_TRUE(w_.schema.mutable_structure()
                  .Forbid(w_.person, Axis::kDescendant, w_.person)
                  .ok());
  EntryId alice = AddBare(d_, eng_, "uid=alice", {w_.top, w_.person});
  ASSERT_TRUE(d_.AddValue(alice, w_.name, Value("Alice")).ok());
  IncrementalValidator validator(w_.schema);
  // Moving bob under alice nests persons.
  ASSERT_TRUE(d_.MoveSubtree(bob_, alice).ok());
  std::vector<Violation> out;
  EXPECT_FALSE(validator.CheckAfterMove(d_, bob_, hr_, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].entry, alice);
  EXPECT_TRUE(out[0].relationship.forbidden);
}

TEST_F(MoveTest, CheckAfterMoveForbiddenDescendantBelowRoot) {
  ASSERT_TRUE(w_.schema.mutable_structure()
                  .Forbid(w_.org, Axis::kDescendant, w_.engineer)
                  .ok());
  // The moved root is no engineer; the engineer sits below it.
  EntryId lab = AddBare(d_, kInvalidEntryId, "cn=lab", {w_.top});
  AddBare(d_, lab, "uid=carol", {w_.top, w_.person, w_.engineer});
  IncrementalValidator validator(w_.schema);
  ASSERT_TRUE(d_.MoveSubtree(lab, eng_).ok());
  std::vector<Violation> out;
  EXPECT_FALSE(validator.CheckAfterMove(d_, lab, kInvalidEntryId, &out));
  // Every new org ancestor offends, nearest first.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].entry, eng_);
  EXPECT_EQ(out[1].entry, acme_);
}

TEST_F(MoveTest, LegalMovePasses) {
  IncrementalValidator validator(w_.schema);
  ASSERT_TRUE(d_.MoveSubtree(bob_, eng_).ok());
  EXPECT_TRUE(validator.CheckAfterMove(d_, bob_, hr_));
}

// Property: random subtree moves on the white-pages instance — the
// incremental verdict equals a full re-check.
class MovePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MovePropertyTest, VerdictEqualsFullRecheck) {
  uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = MakeWhitePagesSchema(vocab);
  ASSERT_TRUE(schema.ok());
  WhitePagesOptions options;
  options.seed = seed;
  options.org_unit_fanout = 2;
  options.org_unit_depth = 2;
  options.persons_per_unit = 2;
  auto directory = MakeWhitePagesInstance(*schema, options);
  ASSERT_TRUE(directory.ok());
  LegalityChecker full(*schema);
  ASSERT_TRUE(full.CheckLegal(*directory));
  IncrementalValidator validator(*schema);

  std::vector<EntryId> alive;
  directory->ForEachAlive([&](const Entry& e) { alive.push_back(e.id()); });
  std::uniform_int_distribution<size_t> pick(0, alive.size() - 1);

  for (int round = 0; round < 40; ++round) {
    EntryId mover = alive[pick(rng)];
    EntryId target = alive[pick(rng)];
    EntryId old_parent = directory->entry(mover).parent();
    if (!directory->MoveSubtree(mover, target).ok()) continue;  // cycle/rdn

    bool incremental = validator.CheckAfterMove(*directory, mover,
                                                old_parent);
    bool expected = full.CheckLegal(*directory);
    EXPECT_EQ(incremental, expected)
        << "seed=" << seed << " round=" << round << " mover=" << mover
        << " target=" << target;

    if (!expected) {
      ASSERT_TRUE(directory->MoveSubtree(mover, old_parent).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MovePropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace ldapbound
