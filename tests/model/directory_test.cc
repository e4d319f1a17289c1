#include "model/directory.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "tests/testing/helpers.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

TEST(DirectoryTest, AddRootAndChild) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=acme", {w.top, w.org});
  EntryId child = AddBare(d, root, "uid=bob", {w.top, w.person});
  EXPECT_EQ(d.NumEntries(), 2u);
  EXPECT_EQ(d.entry(child).parent(), root);
  EXPECT_EQ(testing::Ids(d.entry(root).children()),
            std::vector<EntryId>{child});
  EXPECT_EQ(testing::Ids(d.roots()), std::vector<EntryId>{root});
}

TEST(DirectoryTest, ParentMustExist) {
  SimpleWorld w;
  Directory d(w.vocab);
  auto r = d.AddEntry(77, "uid=x", {w.top}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(DirectoryTest, EntryMustHaveAClass) {
  SimpleWorld w;
  Directory d(w.vocab);
  auto r = d.AddEntry(kInvalidEntryId, "uid=x", {}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DirectoryTest, SiblingRdnsMustBeUnique) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=acme", {w.top});
  AddBare(d, root, "uid=bob", {w.top});
  auto dup = d.AddEntry(root, "UID=BOB", {w.top}, {});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  // Same RDN under a different parent is fine.
  EntryId other = AddBare(d, kInvalidEntryId, "o=other", {w.top});
  EXPECT_TRUE(d.AddEntry(other, "uid=bob", {w.top}, {}).ok());
}

TEST(DirectoryTest, ValueTypeChecked) {
  SimpleWorld w;
  Directory d(w.vocab);
  auto bad = d.AddEntry(kInvalidEntryId, "uid=x", {w.top},
                        {AttributeValue{w.age, Value("not a number")}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto good = d.AddEntry(kInvalidEntryId, "uid=y", {w.top},
                         {AttributeValue{w.age, Value(int64_t{30})}});
  EXPECT_TRUE(good.ok());
}

TEST(DirectoryTest, ObjectClassValuesBecomeClasses) {
  SimpleWorld w;
  Directory d(w.vocab);
  AttributeId oc = w.vocab->objectclass_attr();
  EntryId id = d.AddEntry(kInvalidEntryId, "uid=x", {w.top},
                          {AttributeValue{oc, Value("person")}})
                   .value();
  EXPECT_TRUE(d.entry(id).HasClass(w.person));
  EXPECT_TRUE(d.entry(id).HasClass(w.top));
  // objectClass pairs are not duplicated into values().
  EXPECT_FALSE(d.entry(id).HasAttribute(oc));
}

TEST(DirectoryTest, AddRemoveValueKeepsSortedMultiset) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId id = AddBare(d, kInvalidEntryId, "uid=x", {w.top, w.person});
  ASSERT_TRUE(d.AddValue(id, w.mail, Value("b@x")).ok());
  ASSERT_TRUE(d.AddValue(id, w.mail, Value("a@x")).ok());
  ASSERT_TRUE(d.AddValue(id, w.mail, Value("a@x")).ok());  // duplicate no-op
  auto values = d.entry(id).GetValues(w.mail);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].AsString(), "a@x");
  EXPECT_EQ(values[1].AsString(), "b@x");
  ASSERT_TRUE(d.RemoveValue(id, w.mail, Value("a@x")).ok());
  EXPECT_EQ(d.entry(id).GetValues(w.mail).size(), 1u);
  EXPECT_EQ(d.RemoveValue(id, w.mail, Value("zz")).code(),
            StatusCode::kNotFound);
}

TEST(DirectoryTest, AddRemoveClassMaintainsCounts) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId id = AddBare(d, kInvalidEntryId, "uid=x", {w.top});
  EXPECT_EQ(d.CountWithClass(w.person), 0u);
  ASSERT_TRUE(d.AddClass(id, w.person).ok());
  EXPECT_EQ(d.CountWithClass(w.person), 1u);
  ASSERT_TRUE(d.RemoveClass(id, w.person).ok());
  EXPECT_EQ(d.CountWithClass(w.person), 0u);
  // The last class cannot be removed.
  EXPECT_EQ(d.RemoveClass(id, w.top).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DirectoryTest, DeleteLeafOnly) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=acme", {w.top});
  EntryId child = AddBare(d, root, "uid=bob", {w.top, w.person});
  EXPECT_EQ(d.DeleteLeaf(root).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(d.DeleteLeaf(child).ok());
  EXPECT_FALSE(d.IsAlive(child));
  EXPECT_EQ(d.NumEntries(), 1u);
  EXPECT_EQ(d.CountWithClass(w.person), 0u);
  EXPECT_TRUE(d.entry(root).children().empty());
  ASSERT_TRUE(d.DeleteLeaf(root).ok());
  EXPECT_TRUE(d.roots().empty());
}

TEST(DirectoryTest, DeleteSubtree) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=acme", {w.top});
  EntryId a = AddBare(d, root, "ou=a", {w.top, w.org});
  AddBare(d, a, "uid=p1", {w.top, w.person});
  AddBare(d, a, "uid=p2", {w.top, w.person});
  ASSERT_TRUE(d.DeleteSubtree(a).ok());
  EXPECT_EQ(d.NumEntries(), 1u);
  EXPECT_TRUE(d.IsAlive(root));
}

TEST(DirectoryTest, DeletedIdsAreNotReused) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId a = AddBare(d, kInvalidEntryId, "o=a", {w.top});
  ASSERT_TRUE(d.DeleteLeaf(a).ok());
  EntryId b = AddBare(d, kInvalidEntryId, "o=b", {w.top});
  EXPECT_NE(a, b);
  EXPECT_EQ(d.IdCapacity(), 2u);
}

TEST(DirectoryTest, FindChildByRdn) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=acme", {w.top});
  EntryId bob = AddBare(d, root, "uid=bob", {w.top});
  EXPECT_EQ(d.FindChildByRdn(kInvalidEntryId, "O=ACME"), root);
  EXPECT_EQ(d.FindChildByRdn(root, "uid=bob"), bob);
  EXPECT_EQ(d.FindChildByRdn(root, "uid=eve"), kInvalidEntryId);
}

TEST(DirectoryTest, AddEntryFromSpecParsesTypes) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntrySpec spec;
  spec.rdn = "uid=bob";
  spec.classes = {"person", "top"};
  spec.values = {{"name", "Bob"}, {"age", "31"}, {"active", "true"}};
  auto id = d.AddEntryFromSpec(kInvalidEntryId, spec);
  ASSERT_TRUE(id.ok());
  const Entry& e = d.entry(*id);
  EXPECT_EQ(e.GetValues(w.age)[0].AsInteger(), 31);
  EXPECT_EQ(e.GetValues(w.active)[0].AsBoolean(), true);
  EXPECT_EQ(e.NumAttributes(), 3u);
}

// Whoever holds a directory or a schema reads its names; only the holder
// of a mutable vocabulary defines them.
static_assert(
    std::is_same_v<decltype(std::declval<const Directory&>().vocab_ptr()),
                   const std::shared_ptr<const Vocabulary>&>);
static_assert(std::is_same_v<
              decltype(std::declval<const DirectorySchema&>().vocab_ptr()),
              const std::shared_ptr<const Vocabulary>&>);

// Over a const vocabulary each of the three places that take a name
// refuses one the vocabulary lacks, in the content check's words, before
// it allocates an id; over a mutable one the same calls intern it.
TEST(DirectoryTest, ConstVocabularyRefusesUnknownNamesMutableInterns) {
  SimpleWorld w;
  const size_t classes = w.vocab->num_classes();
  const size_t attributes = w.vocab->num_attributes();
  Directory frozen(std::shared_ptr<const Vocabulary>(w.vocab));
  EntryId org = AddBare(frozen, kInvalidEntryId, "o=acme", {w.top, w.org});
  const size_t ids = frozen.IdCapacity();
  const uint64_t version = frozen.version();

  EntrySpec fresh_class{"uid=a", {"person", "gadget"}, {{"name", "a"}}};
  auto refused = frozen.AddEntryFromSpec(org, fresh_class);
  EXPECT_EQ(refused.status().code(), StatusCode::kIllegal);
  EXPECT_EQ(refused.status().message(),
            "class 'gadget' is not part of the schema");

  EntrySpec fresh_attribute{"uid=b", {"person"}, {{"shoeSize", "42"}}};
  refused = frozen.AddEntryFromSpec(org, fresh_attribute);
  EXPECT_EQ(refused.status().code(), StatusCode::kIllegal);
  EXPECT_EQ(refused.status().message(),
            "attribute 'shoeSize' is not allowed by any of the entry's "
            "classes");

  refused = frozen.AddEntry(
      org, "uid=c", {w.person},
      {AttributeValue{w.vocab->objectclass_attr(), Value("gadget")}});
  EXPECT_EQ(refused.status().code(), StatusCode::kIllegal);
  EXPECT_EQ(refused.status().message(),
            "class 'gadget' is not part of the schema");

  Status added = frozen.AddValue(org, w.vocab->objectclass_attr(),
                                 Value("gadget"));
  EXPECT_EQ(added.code(), StatusCode::kIllegal);
  EXPECT_EQ(added.message(), "class 'gadget' is not part of the schema");

  EXPECT_EQ(w.vocab->num_classes(), classes);
  EXPECT_EQ(w.vocab->num_attributes(), attributes);
  EXPECT_EQ(frozen.IdCapacity(), ids);
  EXPECT_EQ(frozen.version(), version);
  EXPECT_EQ(frozen.NumEntries(), 1u);
  // Names the vocabulary has are found, as before.
  EXPECT_TRUE(
      frozen.AddValue(org, w.vocab->objectclass_attr(), Value("person"))
          .ok());

  Directory open(w.vocab);
  EntryId root = AddBare(open, kInvalidEntryId, "o=acme", {w.top, w.org});
  ASSERT_TRUE(open.AddEntryFromSpec(root, fresh_class).ok());
  ASSERT_TRUE(open.AddEntryFromSpec(root, fresh_attribute).ok());
  ASSERT_TRUE(open.AddEntry(root, "uid=c", {w.person},
                            {AttributeValue{w.vocab->objectclass_attr(),
                                            Value("widget")}})
                  .ok());
  ASSERT_TRUE(
      open.AddValue(root, w.vocab->objectclass_attr(), Value("sprocket"))
          .ok());
  for (const char* name : {"gadget", "widget", "sprocket"}) {
    EXPECT_TRUE(w.vocab->FindClass(name).ok()) << name;
  }
  auto shoe_size = w.vocab->FindAttribute("shoeSize");
  ASSERT_TRUE(shoe_size.ok());
  EXPECT_EQ(w.vocab->AttributeType(*shoe_size), ValueType::kString);
  EXPECT_EQ(w.vocab->num_classes(), classes + 3);
  EXPECT_EQ(w.vocab->num_attributes(), attributes + 1);
}

TEST(DirectoryTest, VersionBumpsOnMutation) {
  SimpleWorld w;
  Directory d(w.vocab);
  uint64_t v0 = d.version();
  EntryId id = AddBare(d, kInvalidEntryId, "o=a", {w.top});
  EXPECT_GT(d.version(), v0);
  uint64_t v1 = d.version();
  ASSERT_TRUE(d.AddValue(id, w.name, Value("x")).ok());
  EXPECT_GT(d.version(), v1);
}

TEST(DirectoryTest, ComputeStats) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId r = AddBare(d, kInvalidEntryId, "o=r", {w.top});
  EntryId a = AddBare(d, r, "ou=a", {w.top, w.org});
  ASSERT_TRUE(d.AddValue(a, w.ou, Value("a")).ok());
  EntryId p1 = AddBare(d, a, "uid=p1", {w.top, w.person});
  AddBare(d, a, "uid=p2", {w.top, w.person});
  EntryId r2 = AddBare(d, kInvalidEntryId, "o=r2", {w.top});

  DirectoryStats stats = d.ComputeStats();
  EXPECT_EQ(stats.num_entries, 5u);
  EXPECT_EQ(stats.num_roots, 2u);
  EXPECT_EQ(stats.num_leaves, 3u);
  EXPECT_EQ(stats.max_depth, 2u);
  EXPECT_DOUBLE_EQ(stats.avg_depth, (0 + 1 + 2 + 2 + 0) / 5.0);
  EXPECT_EQ(stats.max_fanout, 2u);
  EXPECT_EQ(stats.total_values, 1u);
  EXPECT_EQ(stats.total_classes, 1 + 2 + 2 + 2 + 1u);
  EXPECT_EQ(stats.depth_histogram, (std::vector<size_t>{2, 1, 2}));

  // Depths follow moves: o=r2 sinks below uid=p1, then ou=a (carrying
  // p1, p2 and r2) becomes a root.
  ASSERT_TRUE(d.MoveSubtree(r2, p1).ok());
  stats = d.ComputeStats();
  EXPECT_EQ(stats.num_roots, 1u);
  EXPECT_EQ(stats.max_depth, 3u);
  EXPECT_EQ(stats.depth_histogram, (std::vector<size_t>{1, 1, 2, 1}));
  EXPECT_DOUBLE_EQ(stats.avg_depth, (0 + 1 + 2 + 2 + 3) / 5.0);
  ASSERT_TRUE(d.MoveSubtree(a, kInvalidEntryId).ok());
  stats = d.ComputeStats();
  EXPECT_EQ(stats.num_roots, 2u);
  EXPECT_EQ(stats.max_depth, 2u);
  EXPECT_EQ(stats.depth_histogram, (std::vector<size_t>{2, 2, 1}));
  EXPECT_EQ(stats.num_leaves, 3u);

  DirectoryStats empty = Directory(w.vocab).ComputeStats();
  EXPECT_EQ(empty.num_entries, 0u);
  EXPECT_DOUBLE_EQ(empty.avg_depth, 0.0);
}

TEST(DirectoryTest, SubtreeEntriesPreorder) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=r", {w.top});
  EntryId a = AddBare(d, root, "ou=a", {w.top});
  EntryId b = AddBare(d, root, "ou=b", {w.top});
  EntryId a1 = AddBare(d, a, "uid=a1", {w.top});
  EXPECT_EQ(d.SubtreeEntries(root),
            (std::vector<EntryId>{root, a, a1, b}));
  EXPECT_EQ(d.SubtreeEntries(a), (std::vector<EntryId>{a, a1}));
}

}  // namespace
}  // namespace ldapbound
