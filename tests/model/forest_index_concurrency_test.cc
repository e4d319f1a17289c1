// Concurrent-reader safety of the ForestIndex under the MVCC contract
// (DESIGN.md §10), meant to run under TSan via the `concurrency` ctest
// label: a published snapshot's frozen label views and entry contents
// must stay byte-identical while the writer keeps mutating the live index.
// This is the regression test for the torn-preorder window the MVCC path
// closes: the CowVec clone-on-write discipline must isolate every chunk a
// reader can still reach, and the writer's in-place appends past the
// last publish must touch no element a reader reads.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "model/directory.h"
#include "model/forest_index.h"
#include "tests/testing/helpers.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

std::vector<EntryId> AliveIds(const Directory& d) {
  std::vector<EntryId> ids;
  d.ForEachAlive([&](const Entry& e) { ids.push_back(e.id()); });
  return ids;
}

// A small mutation burst: adds under random parents plus some leaf
// deletions.
void MutateBurst(Directory& d, const SimpleWorld& w, std::mt19937_64& rng) {
  static uint64_t serial = 0;
  for (int i = 0; i < 8; ++i) {
    std::vector<EntryId> alive = AliveIds(d);
    EntryId parent = kInvalidEntryId;
    if (!alive.empty() &&
        std::uniform_int_distribution<int>(0, 4)(rng) != 0) {
      parent = alive[std::uniform_int_distribution<size_t>(
          0, alive.size() - 1)(rng)];
    }
    AddBare(d, parent, "e" + std::to_string(serial++), {w.top});
  }
  std::vector<EntryId> alive = AliveIds(d);
  for (EntryId id : alive) {
    if (d.entry(id).children().empty() &&
        std::uniform_int_distribution<int>(0, 3)(rng) == 0) {
      ASSERT_TRUE(d.DeleteLeaf(id).ok());
    }
  }
}

// What one entry looked like at publish time.
struct LabelExpectation {
  EntryId id;
  uint64_t label;
  uint64_t end_label;
  ForestIndex::TreeLinks links;
  std::string rdn;
};

TEST(ForestIndexConcurrencyTest, PinnedLabelViewsImmutableUnderMutation) {
  SimpleWorld w;
  Directory d(w.vocab);
  std::mt19937_64 rng(4711);

  constexpr int kRounds = 20;
  constexpr int kReaders = 4;
  for (int round = 0; round < kRounds; ++round) {
    MutateBurst(d, w, rng);
    d.PublishSnapshot();
    PinnedSnapshot pin = d.PinSnapshot();
    ASSERT_TRUE(pin);
    const ForestIndex::LabelViews& views = pin->index;

    // Capture what the views say now, before the writer moves on; the
    // whole point is that this stays true while the live index churns.
    std::vector<LabelExpectation> expected;
    for (EntryId id : AliveIds(d)) {
      expected.push_back(LabelExpectation{
          id, views.labels.Get(id, ForestIndex::kNoLabel),
          views.end_labels.Get(id, ForestIndex::kNoLabel),
          views.links.Get(id, {}), pin->Content(id)->rdn});
      ASSERT_NE(expected.back().label, ForestIndex::kNoLabel);
    }

    std::atomic<int> failures{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          for (const LabelExpectation& e : expected) {
            if (views.labels.Get(e.id, ForestIndex::kNoLabel) != e.label ||
                views.end_labels.Get(e.id, ForestIndex::kNoLabel) !=
                    e.end_label ||
                views.links.Get(e.id, {}) != e.links ||
                pin->Content(e.id)->rdn != e.rdn) {
              failures.fetch_add(1);
              return;
            }
          }
        }
      });
    }

    // The writer mutates (and republishes) while the readers verify the
    // pinned version: every CowVec chunk the views reference must be
    // cloned, not written through, below the pinned size, and the new
    // entries' contents and links are appended into the chunks the
    // readers hold.
    MutateBurst(d, w, rng);
    d.PublishSnapshot();

    stop.store(true, std::memory_order_release);
    for (std::thread& r : readers) r.join();
    ASSERT_EQ(failures.load(), 0) << "round " << round;
    pin.Release();
  }
  EXPECT_TRUE(d.GetIndex().EquivalentToFresh(d));
}

}  // namespace
}  // namespace ldapbound
