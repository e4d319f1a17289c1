// Oracle property test for the wire read path: after every step of a
// random Add / DeleteLeaf / DeleteSubtree / MoveSubtree history,
//
//   - SnapshotSearch on the just-published snapshot equals SearchFrom on
//     the live directory, element for element (both in preorder);
//   - SnapshotSearchPage at random page sizes, each page resuming at the
//     previous page's last label + 1, concatenates to the same sequence;
//   - a snapshot taken before the step still answers with its own
//     version's result (pinned snapshot ≡ live head at that version).
//
// Bases are random alive entries or the empty base (the whole forest);
// every scope runs; filters are "", one (objectClass=C) per class of a
// skewed palette — so the same scope meets classes both rarer and more
// common than itself and both search strategies (scope walk, posting scan)
// run — and (tag=value).

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ldap/search.h"
#include "model/directory.h"
#include "server/net_server.h"
#include "workload/random_gen.h"

namespace ldapbound {
namespace {

constexpr int kTagValues = 4;

struct World {
  std::shared_ptr<Vocabulary> vocab = std::make_shared<Vocabulary>();
  std::vector<ClassId> classes;  // distinct, most common first
  std::vector<ClassId> palette;  // skewed draw: classes[0] dominates
  AttributeId tag = 0;

  World() {
    for (const char* name : {"common", "medium", "rare"}) {
      classes.push_back(vocab->InternClass(name));
    }
    palette = {classes[0], classes[0], classes[0], classes[0],
               classes[0], classes[0], classes[1], classes[1],
               classes[2]};
    tag = vocab->DefineAttribute("tag", ValueType::kString).value();
  }

  Value Tag(uint64_t n) const {
    return Value("t" + std::to_string(n % kTagValues));
  }
};

std::vector<EntryId> AliveIds(const Directory& d) {
  std::vector<EntryId> ids;
  d.ForEachAlive([&](const Entry& e) { ids.push_back(e.id()); });
  return ids;
}

std::string LiveDn(const Directory& d, EntryId id) {
  std::string dn;
  for (EntryId cur = id; cur != kInvalidEntryId; cur = d.entry(cur).parent()) {
    if (!dn.empty()) dn += ",";
    dn += d.entry(cur).rdn();
  }
  return dn;
}

bool InSubtree(const Directory& d, EntryId root, EntryId id) {
  for (EntryId cur = id; cur != kInvalidEntryId; cur = d.entry(cur).parent()) {
    if (cur == root) return true;
  }
  return false;
}

// One random structural mutation; false when the pick does not apply.
bool MutateOnce(Directory& d, const World& w, std::mt19937_64& rng,
                uint64_t& serial) {
  std::vector<EntryId> alive = AliveIds(d);
  auto pick = [&](const std::vector<EntryId>& from) {
    return from[std::uniform_int_distribution<size_t>(0, from.size() - 1)(
        rng)];
  };
  int op = std::uniform_int_distribution<int>(0, 9)(rng);
  if (op <= 3 || alive.size() < 4) {
    EntryId parent = kInvalidEntryId;
    if (!alive.empty() && std::uniform_int_distribution<int>(0, 9)(rng) != 0) {
      parent = pick(alive);
    }
    ClassId cls = w.palette[std::uniform_int_distribution<size_t>(
        0, w.palette.size() - 1)(rng)];
    uint64_t n = serial++;
    return d.AddEntry(parent, "cn=a" + std::to_string(n), {cls},
                      {AttributeValue{w.tag, w.Tag(n)}})
        .ok();
  }
  if (op <= 5) {
    std::vector<EntryId> leaves;
    for (EntryId id : alive) {
      if (d.entry(id).children().empty()) leaves.push_back(id);
    }
    return d.DeleteLeaf(pick(leaves)).ok();
  }
  if (op == 6) {
    EntryId id = pick(alive);
    if (d.SubtreeEntries(id).size() * 4 > alive.size()) return false;
    return d.DeleteSubtree(id).ok();
  }
  EntryId id = pick(alive);
  EntryId new_parent = kInvalidEntryId;
  if (std::uniform_int_distribution<int>(0, 4)(rng) != 0) {
    new_parent = pick(alive);
    if (InSubtree(d, id, new_parent) || new_parent == d.entry(id).parent()) {
      return false;
    }
  } else if (d.entry(id).parent() == kInvalidEntryId) {
    return false;
  }
  return d.MoveSubtree(id, new_parent).ok();
}

struct Probe {
  std::string base_dn;  // "" = the whole forest
  uint8_t scope = 0;
  std::string filter;
  std::vector<EntryId> expected;  // live SearchFrom at the probe's version
  bool error = false;             // base scope over the empty base
};

// Counts of (class filter, scope) pairs whose class posting was smaller /
// not smaller than the scope: both strategies must have had work.
struct Coverage {
  size_t posting_smaller = 0;
  size_t scope_smaller = 0;
};

std::vector<Probe> MakeProbes(const Directory& d, const World& w,
                              std::mt19937_64& rng, Coverage& coverage) {
  std::vector<EntryId> alive = AliveIds(d);
  std::vector<EntryId> bases{kInvalidEntryId};
  for (int i = 0; i < 3 && !alive.empty(); ++i) {
    bases.push_back(alive[std::uniform_int_distribution<size_t>(
        0, alive.size() - 1)(rng)]);
  }
  std::vector<std::pair<std::string, MatcherPtr>> filters{{"", nullptr}};
  for (ClassId cls : w.classes) {
    filters.emplace_back("(objectClass=" + d.vocab().ClassName(cls) + ")",
                         std::make_shared<ClassMatcher>(cls));
  }
  // t0..t3 are in use; t4 is a value no entry carries.
  std::string tag =
      "t" + std::to_string(
                std::uniform_int_distribution<int>(0, kTagValues)(rng));
  filters.emplace_back("(tag=" + tag + ")",
                       std::make_shared<AttrEqualsMatcher>(w.tag, Value(tag)));

  std::vector<Probe> probes;
  for (EntryId base : bases) {
    for (uint8_t scope = 0; scope <= 2; ++scope) {
      auto scope_size =
          SearchFrom(d, base, static_cast<SearchScope>(scope), nullptr)
              .value()
              .size();
      for (size_t f = 0; f < filters.size(); ++f) {
        Probe p;
        p.base_dn = base == kInvalidEntryId ? "" : LiveDn(d, base);
        p.scope = scope;
        p.filter = filters[f].first;
        p.error = base == kInvalidEntryId && scope == 0;
        p.expected =
            SearchFrom(d, base, static_cast<SearchScope>(scope),
                       filters[f].second)
                .value();
        if (f >= 1 && f <= w.classes.size() && scope_size > 0) {
          size_t members = d.CountWithClass(w.classes[f - 1]);
          ++(members < scope_size ? coverage.posting_smaller
                                  : coverage.scope_smaller);
        }
        probes.push_back(std::move(p));
      }
    }
  }
  return probes;
}

std::string Describe(const Probe& p) {
  return "base '" + p.base_dn + "' scope " + std::to_string(p.scope) +
         " filter '" + p.filter + "'";
}

void CheckSearch(const DirectorySnapshot& snap, const Vocabulary& vocab,
                 const Probe& p) {
  auto got = SnapshotSearch(snap, vocab, p.base_dn, p.scope, p.filter);
  if (p.error) {
    EXPECT_FALSE(got.ok()) << Describe(p);
    return;
  }
  ASSERT_TRUE(got.ok()) << Describe(p) << ": " << got.status().ToString();
  EXPECT_EQ(*got, p.expected) << Describe(p);
}

void CheckPaged(const DirectorySnapshot& snap, const Vocabulary& vocab,
                const Probe& p, std::mt19937_64& rng) {
  if (p.error) return;
  std::vector<EntryId> concatenated;
  uint64_t from_label = 0;
  for (;;) {
    size_t limit = std::uniform_int_distribution<size_t>(1, 7)(rng);
    auto page = SnapshotSearchPage(snap, vocab, p.base_dn, p.scope, p.filter,
                                   from_label, limit);
    ASSERT_TRUE(page.ok()) << Describe(p) << ": " << page.status().ToString();
    ASSERT_LE(page->size(), limit) << Describe(p);
    for (const SnapshotPageHit& hit : *page) {
      EXPECT_EQ(hit.label, snap.index.labels[hit.id]) << Describe(p);
      concatenated.push_back(hit.id);
    }
    if (page->size() < limit) break;
    from_label = page->back().label + 1;
  }
  EXPECT_EQ(concatenated, p.expected) << Describe(p);
}

TEST(SnapshotSearchPropertyTest, SnapshotSearchEqualsLiveSearchUnderChurn) {
  Coverage coverage;
  for (uint64_t seed : {3u, 17u, 2024u}) {
    World w;
    RandomForestOptions options;
    options.num_entries = 120;
    options.root_probability = 0.08;
    options.max_classes_per_entry = 1;
    options.seed = seed;
    Directory d = MakeRandomForest(w.vocab, w.palette, options);
    for (EntryId id : AliveIds(d)) {
      ASSERT_TRUE(d.AddValue(id, w.tag, w.Tag(id)).ok());
    }
    d.EnableSnapshots();
    std::mt19937_64 rng(seed);
    uint64_t serial = 0;

    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      std::vector<Probe> probes = MakeProbes(d, w, rng, coverage);
      // By-value copy: retains this version's structures after the pin
      // is gone, the way a paged-search cursor does.
      DirectorySnapshot before = *d.PinSnapshot();
      for (const Probe& p : probes) {
        CheckSearch(before, d.vocab(), p);
        CheckPaged(before, d.vocab(), p, rng);
      }
      if (::testing::Test::HasFatalFailure()) return;

      if (!MutateOnce(d, w, rng, serial)) continue;
      d.PublishSnapshot();
      // The older version keeps answering as of its own step.
      for (const Probe& p : probes) CheckSearch(before, d.vocab(), p);
    }
  }
  EXPECT_GT(coverage.posting_smaller, 0u);
  EXPECT_GT(coverage.scope_smaller, 0u);
}

}  // namespace
}  // namespace ldapbound
