// DirectorySnapshot publication (model/directory_snapshot.h + the
// Directory hooks): every published version must be a faithful,
// immutable image of the directory at publish time — alive set, class
// and value postings, RDN index, labels — and stay that way while the
// live directory moves on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "model/directory.h"
#include "model/directory_snapshot.h"
#include "tests/testing/helpers.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

// Checks that `snap` matches the live `d` right now, member by member.
void ExpectMatchesLive(const DirectorySnapshot& snap, const Directory& d,
                       const SimpleWorld& w) {
  EXPECT_EQ(snap.version, d.version());
  EXPECT_EQ(snap.num_alive, d.NumEntries());
  EXPECT_EQ(snap.contents.size(), d.IdCapacity());

  size_t alive_count = 0;
  d.ForEachAlive([&](const Entry& e) {
    ++alive_count;
    EntryId id = e.id();
    EXPECT_TRUE(snap.IsAlive(id));
    EXPECT_EQ(snap.parent(id), e.parent());
    EXPECT_EQ(snap.index.labels.Get(id, ForestIndex::kNoLabel),
              d.GetIndex().label(id));
    // Class postings contain exactly the members.
    for (ClassId c : e.classes()) {
      const EntrySet* posting = snap.ClassSet(c);
      ASSERT_NE(posting, nullptr);
      EXPECT_TRUE(posting->Contains(id));
    }
  });
  EXPECT_EQ(alive_count, snap.num_alive);

  // Per-class counts agree with the live count index.
  for (ClassId c : {w.top, w.org, w.person, w.engineer, w.mailbox}) {
    EXPECT_EQ(snap.CountWithClass(c), d.CountWithClass(c)) << "class " << c;
  }
}

// A directory publishes from construction: a fresh one pins its (empty)
// current state with no setup call.
TEST(DirectorySnapshotTest, FreshDirectoryPinsItsCurrentState) {
  SimpleWorld w;
  Directory d(w.vocab);
  PinnedSnapshot snap = d.PinSnapshot();
  ASSERT_TRUE(snap);
  ExpectMatchesLive(*snap, d, w);
  EXPECT_EQ(snap->version, 0u);
  EXPECT_FALSE(snap->IsAlive(0));
  EXPECT_EQ(snap->ClassSet(w.top), nullptr);
  EXPECT_EQ(snap->FindChildByRdn(kInvalidEntryId, "o=acme"), kInvalidEntryId);
}

TEST(DirectorySnapshotTest, PublishOnPopulatedDirectoryPublishesCurrentState) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=acme", {w.top, w.org});
  ASSERT_TRUE(d.AddValue(root, w.ou, Value("acme")).ok());
  EntryId alice = AddBare(d, root, "cn=alice", {w.top, w.person});
  ASSERT_TRUE(d.AddValue(alice, w.name, Value("Alice")).ok());
  AddBare(d, root, "cn=bob", {w.top, w.person});

  // Until a publish, readers keep the version published at construction.
  EXPECT_EQ(d.PinSnapshot()->num_alive, 0u);
  d.PublishSnapshot();
  PinnedSnapshot snap = d.PinSnapshot();
  ASSERT_TRUE(snap);
  ExpectMatchesLive(*snap, d, w);

  // Value postings hold the values added before the publish.
  const std::vector<EntryId>* posting =
      snap->ValuePosting(w.name, Value("Alice"));
  ASSERT_NE(posting, nullptr);
  EXPECT_EQ(*posting, std::vector<EntryId>{alice});
  EXPECT_EQ(snap->ValuePosting(w.name, Value("nobody")), nullptr);

  // RDN lookups mirror the live index, case-insensitively.
  EXPECT_EQ(snap->FindChildByRdn(root, "cn=alice"), alice);
  EXPECT_EQ(snap->FindChildByRdn(root, "CN=ALICE"), alice);
  EXPECT_EQ(snap->FindChildByRdn(root, "cn=nobody"), kInvalidEntryId);
  EXPECT_EQ(snap->FindChildByRdn(kInvalidEntryId, "o=acme"), root);
}

// Everything a snapshot answers, in comparable form: every value
// posting and the whole RDN index (via View::ForEach, so tombstones must
// stay invisible), every entry content (via Content, so a dead id's slot
// must stay invisible), and every class's population and
// members.
struct SnapshotImage {
  using Content = std::tuple<std::string, std::vector<ClassId>,
                             std::vector<AttributeValue>>;

  std::map<std::pair<AttributeId, std::string>, std::vector<EntryId>> values;
  std::map<ClassId, std::pair<size_t, std::vector<EntryId>>> classes;
  std::map<EntryId, Content> contents;
  std::map<std::string, EntryId> rdns;

  SnapshotImage(const DirectorySnapshot& snap, size_t num_classes) {
    snap.by_value.ForEach([&](const SnapshotValueKey& key,
                              const std::shared_ptr<std::vector<EntryId>>& p) {
      values[{key.attribute, key.value.ToString()}] = *p;
    });
    for (ClassId c = 0; c < num_classes; ++c) {
      std::vector<EntryId> members;
      if (const EntrySet* set = snap.ClassSet(c)) {
        for (EntryId id = 0; id < snap.contents.size(); ++id) {
          if (set->Contains(id)) members.push_back(id);
        }
      }
      classes[c] = {snap.CountWithClass(c), std::move(members)};
    }
    for (EntryId id = 0; id < snap.contents.size(); ++id) {
      if (const EntryContent* p = snap.Content(id)) {
        contents[id] = {p->rdn, p->classes, p->values};
      }
    }
    snap.rdn.ForEach(
        [&](const std::string& key, const EntryId& id) { rdns[key] = id; });
  }
};

// One deterministic history over `d`, calling `after_each` after every
// mutation: persons with values under ten units, then renames, value
// and class churn, moves and leaf deletes. Adds every (parent, RDN) pair
// it ever used to `probes`, renamed-away and moved-away ones included.
void RunHistory(Directory& d, const SimpleWorld& w, int first, int count,
                const std::function<void()>& after_each,
                std::vector<std::pair<EntryId, std::string>>& probes) {
  auto add = [&](EntryId parent, const std::string& rdn,
                 std::vector<ClassId> classes,
                 std::vector<AttributeValue> values) {
    auto id = d.AddEntry(parent, rdn, std::move(classes), std::move(values));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    probes.emplace_back(parent, rdn);
    after_each();
    return id.ok() ? *id : kInvalidEntryId;
  };
  auto expect_ok = [&](const Status& status) {
    EXPECT_TRUE(status.ok()) << status.ToString();
    after_each();
  };
  EntryId root = d.FindChildByRdn(kInvalidEntryId, "o=acme");
  if (root == kInvalidEntryId) {
    root = add(kInvalidEntryId, "o=acme", {w.top, w.org},
               {{w.ou, Value("acme")}});
  }
  std::vector<EntryId> units;
  for (int u = 0; u < 10; ++u) {
    const std::string rdn = "ou=u" + std::to_string(u);
    EntryId unit = d.FindChildByRdn(root, rdn);
    if (unit == kInvalidEntryId) {
      unit = add(root, rdn, {w.top, w.org}, {{w.ou, Value(rdn.substr(3))}});
    }
    units.push_back(unit);
  }
  std::vector<EntryId> persons;
  for (int i = first; i < first + count; ++i) {
    const std::string n = std::to_string(i);
    std::vector<ClassId> classes{w.top, w.person};
    std::vector<AttributeValue> values{{w.name, Value("Person " + n)},
                                       {w.age, Value(int64_t{i % 40})},
                                       {w.mail, Value("p" + n + "@acme")}};
    if (i % 3 == 0) {
      classes.push_back(w.mailbox);
    } else {
      values.pop_back();
    }
    persons.push_back(add(units[i % 10], "cn=p" + n, classes, values));
  }
  for (int k = 0; k < count; ++k) {
    const int i = first + k;
    const EntryId p = persons[k];
    const std::string n = std::to_string(i);
    if (i % 7 == 0) {
      expect_ok(d.Rename(p, "cn=r" + n));
      probes.emplace_back(d.entry(p).parent(), "cn=r" + n);
    }
    if (i % 5 == 0) {
      expect_ok(d.RemoveValue(p, w.name, Value("Person " + n)));
      expect_ok(d.AddValue(p, w.name, Value("Renamed " + n)));
    }
    if (i % 9 == 0) expect_ok(d.AddClass(p, w.engineer));
    if (i % 18 == 0) expect_ok(d.RemoveClass(p, w.engineer));
    if (i % 13 == 0) {
      const EntryId to = units[(i + 1) % 10];
      expect_ok(d.MoveSubtree(p, to));
      probes.emplace_back(to, d.entry(p).rdn());
    }
    if (i % 11 == 0) expect_ok(d.DeleteLeaf(p));
  }
}

// A directory published once after a load must publish exactly what one
// published after every mutation publishes — at a size where the first
// publish folds each map (the late copy's open deltas hold the whole
// load, its renames and deletes included), and again after a second
// history folds them onto non-empty bases.
TEST(DirectorySnapshotTest, EnabledLateMatchesMaintainedFromTheStart) {
  SimpleWorld w;
  Directory early(w.vocab);
  Directory late(w.vocab);
  std::vector<std::pair<EntryId, std::string>> probes;
  std::vector<std::pair<EntryId, std::string>> unused;
  auto publish_early = [&] { early.PublishSnapshot(); };
  RunHistory(early, w, 0, 560, publish_early, probes);
  RunHistory(late, w, 0, 560, [] {}, unused);
  ASSERT_GE(late.NumEntries(), 500u);
  late.PublishSnapshot();

  auto expect_same = [&](const char* phase) {
    SCOPED_TRACE(phase);
    PinnedSnapshot a = early.PinSnapshot();
    PinnedSnapshot b = late.PinSnapshot();
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    ASSERT_EQ(a->contents.size(), b->contents.size());
    EXPECT_EQ(a->num_alive, b->num_alive);
    const size_t num_classes = w.vocab->num_classes();
    SnapshotImage image_a(*a, num_classes);
    SnapshotImage image_b(*b, num_classes);
    EXPECT_FALSE(image_a.values.empty());
    EXPECT_EQ(image_a.values, image_b.values);
    EXPECT_EQ(image_a.classes, image_b.classes);
    EXPECT_EQ(image_a.contents.size(), late.NumEntries());
    EXPECT_EQ(image_a.contents, image_b.contents);
    EXPECT_EQ(image_a.rdns.size(), late.NumEntries());
    EXPECT_EQ(image_a.rdns, image_b.rdns);
    for (const auto& [parent, rdn] : probes) {
      EXPECT_EQ(a->FindChildByRdn(parent, rdn), b->FindChildByRdn(parent, rdn))
          << rdn;
      EXPECT_EQ(b->FindChildByRdn(parent, rdn), late.FindChildByRdn(parent, rdn))
          << rdn;
    }
  };
  expect_same("after the load");

  // A second history, published once in the late copy: enough new keys
  // that every map folds onto the base its first publish made.
  RunHistory(early, w, 560, 320, publish_early, probes);
  RunHistory(late, w, 560, 320, [] {}, unused);
  late.PublishSnapshot();
  expect_same("after a second history");
}

TEST(DirectorySnapshotTest, PinnedVersionSurvivesLaterMutations) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=acme", {w.top, w.org});
  EntryId alice = AddBare(d, root, "cn=alice", {w.top, w.person});
  ASSERT_TRUE(d.AddValue(alice, w.name, Value("Alice")).ok());
  d.PublishSnapshot();
  PinnedSnapshot old_snap = d.PinSnapshot();
  ASSERT_TRUE(old_snap);
  const uint64_t old_version = old_snap->version;
  const size_t old_alive = old_snap->num_alive;

  // Mutate heavily: delete, re-add, rename, move, value churn.
  EntryId bob = AddBare(d, root, "cn=bob", {w.top, w.person});
  ASSERT_TRUE(d.RemoveValue(alice, w.name, Value("Alice")).ok());
  ASSERT_TRUE(d.AddValue(alice, w.name, Value("Alicia")).ok());
  ASSERT_TRUE(d.Rename(bob, "cn=bobby").ok());
  ASSERT_TRUE(d.DeleteLeaf(alice).ok());
  d.PublishSnapshot();

  // The old pin still answers at its version.
  EXPECT_EQ(old_snap->version, old_version);
  EXPECT_EQ(old_snap->num_alive, old_alive);
  EXPECT_TRUE(old_snap->IsAlive(alice));
  const std::vector<EntryId>* posting =
      old_snap->ValuePosting(w.name, Value("Alice"));
  ASSERT_NE(posting, nullptr);
  EXPECT_EQ(*posting, std::vector<EntryId>{alice});
  EXPECT_EQ(old_snap->ValuePosting(w.name, Value("Alicia")), nullptr);
  EXPECT_EQ(old_snap->FindChildByRdn(root, "cn=bob"), kInvalidEntryId);
  const EntrySet* persons = old_snap->ClassSet(w.person);
  ASSERT_NE(persons, nullptr);
  EXPECT_TRUE(persons->Contains(alice));
  EXPECT_FALSE(persons->Contains(bob));

  // A fresh pin sees the new world.
  PinnedSnapshot fresh = d.PinSnapshot();
  ASSERT_TRUE(fresh);
  ExpectMatchesLive(*fresh, d, w);
  EXPECT_FALSE(fresh->IsAlive(alice));
  EXPECT_EQ(fresh->FindChildByRdn(root, "cn=bobby"), bob);
  // Alice's deletion drained the posting (the key may linger, empty).
  const std::vector<EntryId>* alicia =
      fresh->ValuePosting(w.name, Value("Alicia"));
  EXPECT_TRUE(alicia == nullptr || alicia->empty());
  old_snap.Release();
}

TEST(DirectorySnapshotTest, ValuePostingsStaySortedThroughChurn) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=acme", {w.top, w.org});
  std::vector<EntryId> carriers;
  for (int i = 0; i < 20; ++i) {
    EntryId id =
        AddBare(d, root, "cn=p" + std::to_string(i), {w.top, w.person});
    ASSERT_TRUE(d.AddValue(id, w.name, Value("shared")).ok());
    carriers.push_back(id);
  }
  // Remove every third carrier's value, delete every fifth entirely.
  for (size_t i = 0; i < carriers.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(
          d.RemoveValue(carriers[i], w.name, Value("shared")).ok());
    } else if (i % 5 == 0) {
      ASSERT_TRUE(d.DeleteLeaf(carriers[i]).ok());
    }
  }
  d.PublishSnapshot();
  PinnedSnapshot snap = d.PinSnapshot();
  ASSERT_TRUE(snap);

  const std::vector<EntryId>* posting =
      snap->ValuePosting(w.name, Value("shared"));
  ASSERT_NE(posting, nullptr);
  EXPECT_TRUE(std::is_sorted(posting->begin(), posting->end()));
  std::vector<EntryId> expected;
  for (size_t i = 0; i < carriers.size(); ++i) {
    if (i % 3 != 0 && !(i % 5 == 0)) expected.push_back(carriers[i]);
  }
  EXPECT_EQ(*posting, expected);
}

TEST(DirectorySnapshotTest, PublishIsCheapOnNoChange) {
  SimpleWorld w;
  Directory d(w.vocab);
  AddBare(d, kInvalidEntryId, "o=acme", {w.top, w.org});
  d.PublishSnapshot();
  auto publishes = [] {
    return MetricRegistry::Default().Read("ldapbound_snapshot_publishes_total");
  };
  uint64_t before = publishes();
  // Publishing with an empty delta must still advance the head (version
  // stamping) without touching the postings.
  d.PublishSnapshot();
  EXPECT_EQ(publishes(), before + 1);
  PinnedSnapshot snap = d.PinSnapshot();
  ASSERT_TRUE(snap);
  ExpectMatchesLive(*snap, d, w);
}

TEST(DirectorySnapshotTest, MoveSubtreeReflectedInLabelsAndRdnIndex) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId a = AddBare(d, kInvalidEntryId, "o=a", {w.top, w.org});
  EntryId b = AddBare(d, kInvalidEntryId, "o=b", {w.top, w.org});
  EntryId child = AddBare(d, a, "cn=c", {w.top, w.person});
  EntryId leaf = AddBare(d, child, "cn=l", {w.top, w.person});
  ASSERT_TRUE(d.MoveSubtree(child, b).ok());
  d.PublishSnapshot();

  PinnedSnapshot snap = d.PinSnapshot();
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->parent(child), b);
  EXPECT_EQ(snap->parent(leaf), child);
  EXPECT_EQ(snap->FindChildByRdn(b, "cn=c"), child);
  EXPECT_EQ(snap->FindChildByRdn(a, "cn=c"), kInvalidEntryId);
  // Interval nesting after the move: b's interval contains child's,
  // child's contains leaf's, and a's does not contain child's.
  auto label = [&](EntryId id) {
    return snap->index.labels.Get(id, ForestIndex::kNoLabel);
  };
  auto end_label = [&](EntryId id) {
    return snap->index.end_labels.Get(id, ForestIndex::kNoLabel);
  };
  EXPECT_LT(label(b), label(child));
  EXPECT_LT(end_label(child), end_label(b) + 1);
  EXPECT_LT(label(child), label(leaf));
  EXPECT_LT(end_label(leaf), end_label(child) + 1);
  EXPECT_FALSE(label(a) < label(child) && label(child) < end_label(a));
}

// A library loop that never publishes keeps its open deltas at the keys
// it changed, however often: renaming one entry 400,000 times must not
// leave one RDN tombstone per name it passed through.
TEST(DirectorySnapshotTest, RenameLoopWithoutPublishKeepsDeltasBounded) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=acme", {w.top, w.org});
  EntryId p = AddBare(d, root, "cn=p", {w.top, w.person});
  const size_t before = d.UnpublishedKeys();
  for (int i = 0; i < 400000; ++i) {
    ASSERT_TRUE(d.Rename(p, "cn=r" + std::to_string(i)).ok());
  }
  EXPECT_EQ(d.UnpublishedKeys(), before);
  EXPECT_EQ(d.FindChildByRdn(root, "cn=r399999"), p);
  EXPECT_EQ(d.FindChildByRdn(root, "cn=r0"), kInvalidEntryId);

  // A published name, renamed away, still needs its tombstone.
  d.PublishSnapshot();
  ASSERT_TRUE(d.Rename(p, "cn=q").ok());
  d.PublishSnapshot();
  EXPECT_EQ(d.PinSnapshot()->FindChildByRdn(root, "cn=r399999"),
            kInvalidEntryId);
  EXPECT_EQ(d.PinSnapshot()->FindChildByRdn(root, "cn=q"), p);
}

// Entry contents are per version: the first edit since a publish works
// on a clone, and later edits in the same delta reuse it, so an older pin
// keeps reading the RDN, classes and values it was published with while
// a newer pin reads the new ones. A content is present exactly for each
// version's alive entries.
TEST(DirectorySnapshotTest, EntryContentsArePerVersion) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root = AddBare(d, kInvalidEntryId, "o=acme", {w.top, w.org});
  EntryId alice =
      AddBare(d, root, "cn=alice", {w.top, w.person, w.engineer});
  ASSERT_TRUE(d.AddValue(alice, w.name, Value("Alice")).ok());
  d.PublishSnapshot();
  PinnedSnapshot old_snap = d.PinSnapshot();
  const EntryContent* old_content = old_snap->Content(alice);
  ASSERT_NE(old_content, nullptr);
  // One copy: the head and the snapshot share it.
  EXPECT_EQ(old_content, &d.entry(alice).content());

  ASSERT_TRUE(d.AddValue(alice, w.mail, Value("alice@acme")).ok());
  const EntryContent* clone = &d.entry(alice).content();
  EXPECT_NE(clone, old_content);
  ASSERT_TRUE(d.RemoveClass(alice, w.engineer).ok());
  EXPECT_EQ(&d.entry(alice).content(), clone);  // cloned once per delta
  ASSERT_TRUE(d.Rename(alice, "cn=alicia").ok());
  EXPECT_EQ(&d.entry(alice).content(), clone);
  d.PublishSnapshot();
  PinnedSnapshot fresh = d.PinSnapshot();

  std::vector<ClassId> old_classes{w.top, w.person, w.engineer};
  std::sort(old_classes.begin(), old_classes.end());
  EXPECT_EQ(old_snap->Content(alice), old_content);
  EXPECT_EQ(old_content->rdn, "cn=alice");
  EXPECT_EQ(old_content->classes, old_classes);
  EXPECT_EQ(old_content->values,
            (std::vector<AttributeValue>{{w.name, Value("Alice")}}));

  const EntryContent* new_content = fresh->Content(alice);
  ASSERT_EQ(new_content, clone);
  EXPECT_EQ(new_content->rdn, "cn=alicia");
  EXPECT_FALSE(new_content->HasClass(w.engineer));
  EXPECT_TRUE(new_content->HasClass(w.person));
  EXPECT_TRUE(new_content->HasValue(w.name, Value("Alice")));
  EXPECT_TRUE(new_content->HasValue(w.mail, Value("alice@acme")));

  // Deletion drops the content from the next version but not from pins
  // that predate it; the tombstoned entry stays readable.
  ASSERT_TRUE(d.DeleteLeaf(alice).ok());
  d.PublishSnapshot();
  PinnedSnapshot after_delete = d.PinSnapshot();
  EXPECT_EQ(after_delete->Content(alice), nullptr);
  EXPECT_EQ(fresh->Content(alice), new_content);
  EXPECT_EQ(old_snap->Content(alice), old_content);
  EXPECT_EQ(old_content->rdn, "cn=alice");
  EXPECT_EQ(d.entry(alice).rdn(), "cn=alicia");

  // Ids the directory never allocated have no content either.
  EXPECT_EQ(after_delete->Content(9999), nullptr);
}

}  // namespace
}  // namespace ldapbound
