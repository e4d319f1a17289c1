// The tentpole contract end to end (TSan target, `concurrency` label):
// N reader threads pin MVCC snapshots and run the Figure 4 structural
// queries plus value-posting lookups while M writer threads push
// group-committed transactions through the WAL. Every pinned snapshot
// must be internally consistent — the alive count matches the alive
// set, class postings only name alive entries, the value postings agree
// with the alive set, and the whole snapshot passes the structure
// check — because the server only publishes schema-legal versions.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/legality_checker.h"
#include "model/directory_snapshot.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "server/directory_server.h"

namespace ldapbound {
namespace {

namespace fs = std::filesystem;

constexpr char kSchema[] = R"(
attribute name string
attribute uid string
attribute ou string
key uid

class team : top {
  require ou
}
class person : top {
  require name, uid
}
structure {
  require team descendant person
  forbid person child top
}
)";

constexpr int kWriters = 2;
constexpr int kReaders = 4;
constexpr int kRoundsPerWriter = 25;

DistinguishedName Dn(const std::string& s) {
  return *DistinguishedName::Parse(s);
}

EntrySpec TeamSpec(const std::string& ou) {
  EntrySpec spec;
  spec.classes = {"team", "top"};
  spec.values = {{"ou", ou}};
  return spec;
}

EntrySpec PersonSpec(const std::string& uid) {
  EntrySpec spec;
  spec.classes = {"person", "top"};
  spec.values = {{"uid", uid}, {"name", "p " + uid}};
  return spec;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "ldapbound_mvcc/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(MvccConcurrencyTest, ReadersSeeConsistentSnapshotsUnderGroupCommit) {
  auto server = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server.ok());
  WalOptions wal;
  wal.group_commit_max_batch = 16;
  wal.group_commit_hold_us = 50;
  ASSERT_TRUE(server->EnableWal(FreshDir("readers"), wal).ok());

  // Seed one legal team so the directory is never trivially empty.
  {
    UpdateTransaction txn;
    txn.Insert(Dn("ou=seed"), TeamSpec("seed"));
    txn.Insert(Dn("uid=seed,ou=seed"), PersonSpec("seed"));
    ASSERT_TRUE(server->Apply(txn).ok());
  }

  const ClassId team = *server->vocab().FindClass("team");
  const ClassId person = *server->vocab().FindClass("person");
  const AttributeId uid = *server->vocab().FindAttribute("uid");
  const LegalityChecker checker(server->schema());

  std::atomic<bool> done{false};
  std::atomic<int> reader_failures{0};
  std::atomic<int> writer_failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        PinnedSnapshot snap = server->PinSnapshot();
        if (!snap) {
          reader_failures.fetch_add(1);
          return;
        }
        // Versions only move forward.
        if (snap->version < last_version) {
          reader_failures.fetch_add(1);
          return;
        }
        last_version = snap->version;

        // Internal consistency: the alive set is the ground truth.
        if (snap->num_alive != snap->alive->Count() || snap->num_alive < 2) {
          reader_failures.fetch_add(1);
          return;
        }
        for (ClassId c : {team, person}) {
          const EntrySet* posting = snap->ClassSet(c);
          if (posting == nullptr) {
            reader_failures.fetch_add(1);
            return;
          }
          bool subset = true;
          posting->ForEach([&](EntryId id) {
            if (!snap->IsAlive(id)) subset = false;
          });
          if (!subset || posting->Count() == 0) {
            reader_failures.fetch_add(1);
            return;
          }
        }

        // Value-posting lookup: the seed person is in every version.
        const std::vector<EntryId>* seeded =
            snap->ValuePosting(uid, Value("seed"));
        if (seeded == nullptr || seeded->size() != 1 ||
            !snap->IsAlive((*seeded)[0])) {
          reader_failures.fetch_add(1);
          return;
        }

        // The Figure 4 required-relationship query, straight off the
        // snapshot: teams with no person descendant. Every published
        // version is schema-legal, so this must be empty.
        QueryEvaluator eval(*snap);
        Query orphans = Query::Diff(
            Query::Select(MatchClass(team)),
            Query::Descendant(Query::Select(MatchClass(team)),
                              Query::Select(MatchClass(person))));
        if (!eval.IsEmpty(orphans) || !eval.status().ok()) {
          reader_failures.fetch_add(1);
          return;
        }

        // And the full structure check, fanned out across the pool,
        // agrees.
        if (!checker.CheckStructure(*snap)) {
          reader_failures.fetch_add(1);
          return;
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRoundsPerWriter; ++r) {
        std::string team_rdn =
            "ou=w" + std::to_string(w) + "-" + std::to_string(r);
        std::string who =
            "u" + std::to_string(w) + "-" + std::to_string(r);
        UpdateTransaction txn;
        txn.Insert(Dn(team_rdn), TeamSpec("t" + who));
        txn.Insert(Dn("uid=" + who + "," + team_rdn), PersonSpec(who));
        if (!server->Apply(txn).ok()) {
          writer_failures.fetch_add(1);
          return;
        }
      }
    });
  }

  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(writer_failures.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);

  // The final snapshot accounts for every acknowledged transaction:
  // the seed pair plus one (team, person) pair per writer round.
  PinnedSnapshot final_snap = server->PinSnapshot();
  ASSERT_TRUE(final_snap);
  const size_t expected = 2 + size_t(kWriters) * kRoundsPerWriter * 2;
  EXPECT_EQ(final_snap->num_alive, expected);
  EXPECT_EQ(final_snap->CountWithClass(team), expected / 2);
  EXPECT_EQ(final_snap->CountWithClass(person), expected / 2);
  std::vector<Violation> violations;
  EXPECT_TRUE(checker.CheckStructure(*final_snap, &violations));
  EXPECT_TRUE(violations.empty());
}

// A reader that pins before a burst of writes and holds the pin across
// the whole burst must keep answering at its version — the server-level
// restatement of PinnedVersionSurvivesLaterMutations, with real WAL
// commits moving underneath.
TEST(MvccConcurrencyTest, PinHeldAcrossCommitsAnswersAtItsVersion) {
  auto server = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->EnableWal(FreshDir("pinned"), WalOptions{}).ok());
  {
    UpdateTransaction txn;
    txn.Insert(Dn("ou=seed"), TeamSpec("seed"));
    txn.Insert(Dn("uid=seed,ou=seed"), PersonSpec("seed"));
    ASSERT_TRUE(server->Apply(txn).ok());
  }

  PinnedSnapshot pinned = server->PinSnapshot();
  ASSERT_TRUE(pinned);
  const uint64_t pinned_version = pinned->version;
  ASSERT_EQ(pinned->num_alive, 2u);

  for (int r = 0; r < 10; ++r) {
    std::string who = "x" + std::to_string(r);
    UpdateTransaction txn;
    txn.Insert(Dn("ou=" + who), TeamSpec(who));
    txn.Insert(Dn("uid=" + who + ",ou=" + who), PersonSpec(who));
    ASSERT_TRUE(server->Apply(txn).ok());
  }

  // The old pin is frozen in time...
  EXPECT_EQ(pinned->version, pinned_version);
  EXPECT_EQ(pinned->num_alive, 2u);
  const AttributeId uid = *server->vocab().FindAttribute("uid");
  EXPECT_EQ(pinned->ValuePosting(uid, Value("x0")), nullptr);

  // ...while a fresh pin sees all ten commits (publish happens before
  // Apply returns, so "pin after OK" is guaranteed to see them).
  PinnedSnapshot fresh = server->PinSnapshot();
  ASSERT_TRUE(fresh);
  EXPECT_GT(fresh->version, pinned_version);
  EXPECT_EQ(fresh->num_alive, 22u);
  const std::vector<EntryId>* x9 = fresh->ValuePosting(uid, Value("x9"));
  ASSERT_NE(x9, nullptr);
  EXPECT_EQ(x9->size(), 1u);
}

// Readers copy a pinned snapshot's alive set and person posting, which
// share their chunks with the writer's sets and with every other copy, and
// run set algebra on the copies, while one writer adds persons whose ids
// cross a chunk edge and deletes persons from the first chunk. Two readers
// also keep a whole DirectorySnapshot copy across iterations, as a paged
// cursor does, and drop it on their own thread. A write clones a chunk
// another set still shares, so no copy ever changes under its reader.
TEST(MvccConcurrencyTest, SharedChunksSurviveConcurrentWrites) {
  constexpr int kRounds = 200;
  constexpr int kKeepers = 2;  // readers holding a snapshot copy
  // The seed's last id falls just below the first chunk edge, so the
  // writer's adds cross it.
  const int seeded = static_cast<int>(EntrySet::kChunkIds) - kRounds / 2;
  auto server = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server.ok());
  {
    UpdateTransaction txn;
    txn.Insert(Dn("ou=seed"), TeamSpec("seed"));
    for (int i = 0; i < seeded; ++i) {
      const std::string who = "s" + std::to_string(i);
      txn.Insert(Dn("uid=" + who + ",ou=seed"), PersonSpec(who));
    }
    ASSERT_TRUE(server->Apply(txn).ok());
  }
  const ClassId person = *server->vocab().FindClass("person");

  // The counts a snapshot's sets must agree with; false on a mismatch.
  auto consistent = [person](const DirectorySnapshot& snap) {
    const EntrySet* posting = snap.ClassSet(person);
    if (posting == nullptr) return false;
    const EntrySet alive = *snap.alive;
    const EntrySet persons = *posting;
    const size_t num_persons = snap.CountWithClass(person);
    EntrySet both = alive;
    both.IntersectWith(persons);
    EntrySet rest = alive;
    rest.SubtractFrom(persons);
    EntrySet all = persons;
    all.UnionWith(rest);
    return alive.Count() == snap.num_alive &&
           persons.Count() == num_persons && both.Count() == num_persons &&
           rest.Count() == snap.num_alive - num_persons &&
           all.Count() == snap.num_alive && all == alive &&
           persons.IsSubsetOf(alive);
  };

  std::atomic<bool> done{false};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::optional<DirectorySnapshot> kept;
      for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
        {
          PinnedSnapshot snap = server->PinSnapshot();
          if (!snap || !consistent(*snap)) {
            reader_failures.fetch_add(1);
            return;
          }
          if (t < kKeepers && i % 3 == 0) kept = *snap;  // drops the last
        }
        if (kept.has_value() && !consistent(*kept)) {
          reader_failures.fetch_add(1);
          return;
        }
      }
    });
  }

  int writer_failures = 0;
  for (int r = 0; r < kRounds; ++r) {
    const std::string fresh = "w" + std::to_string(r);
    const std::string seed = "s" + std::to_string(r);
    if (!server->Add(Dn("uid=" + fresh + ",ou=seed"), PersonSpec(fresh))
             .ok() ||
        !server->Delete(Dn("uid=" + seed + ",ou=seed")).ok()) {
      ++writer_failures;
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(writer_failures, 0);
  EXPECT_EQ(reader_failures.load(), 0);
  PinnedSnapshot last = server->PinSnapshot();
  ASSERT_TRUE(last);
  EXPECT_TRUE(consistent(*last));
  EXPECT_EQ(last->num_alive, static_cast<size_t>(seeded) + 1);
  EXPECT_GE(server->directory().IdCapacity(), EntrySet::kChunkIds + 1);
}

// A refused write names the constraint that refused it from the one
// frozen vocabulary, after the write mutex is released, while concurrent
// adds naming classes the schema has never seen are refused before they
// take an id: the vocabulary never grows, so no name table changes under
// a reader.
TEST(MvccConcurrencyTest,
     RefusalsNameConstraintsWhileFreshClassAddsAreRefused) {
  constexpr int kRounds = 150;
  auto server = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server.ok());
  server->EnableSlowOps(/*capacity=*/2 * kRounds + 1);  // keeps every op
  {
    UpdateTransaction txn;
    txn.Insert(Dn("ou=seed"), TeamSpec("seed"));
    txn.Insert(Dn("uid=seed,ou=seed"), PersonSpec("seed"));
    ASSERT_TRUE(server->Apply(txn).ok());
  }
  const size_t ids = server->directory().IdCapacity();
  const size_t classes = server->vocab().num_classes();

  std::atomic<int> unexpected{0};
  // A person below a person breaks `forbid person child top`.
  std::thread refused([&] {
    for (int r = 0; r < kRounds; ++r) {
      const std::string who = "kid" + std::to_string(r);
      if (server->Add(Dn("uid=" + who + ",uid=seed,ou=seed"), PersonSpec(who))
              .ok()) {
        unexpected.fetch_add(1);
      }
    }
  });
  // Each add names four classes no schema defines, and is refused.
  std::thread fresh([&] {
    for (int r = 0; r < kRounds; ++r) {
      const std::string tag = std::to_string(r);
      EntrySpec spec = PersonSpec("fresh" + tag);
      for (const char* suffix : {"a", "b", "c", "d"}) {
        spec.classes.push_back("fresh" + tag + suffix);
      }
      if (server->Add(Dn("uid=fresh" + tag + ",ou=seed"), std::move(spec))
              .code() != StatusCode::kIllegal) {
        unexpected.fetch_add(1);
      }
    }
  });
  refused.join();
  fresh.join();

  EXPECT_EQ(unexpected.load(), 0);
  // No vocabulary holds the fresh names, and only the structure refusals
  // took ids (one each: a checked add is placed, then rolled back).
  EXPECT_EQ(&server->vocab(), &server->directory().vocab());
  EXPECT_EQ(server->vocab().num_classes(), classes);
  EXPECT_FALSE(server->vocab().FindClass("fresh0a").ok());
  EXPECT_EQ(server->directory().IdCapacity(), ids + kRounds);
  int named = 0;
  int unknown = 0;
  for (const SlowOp& op : server->slow_ops()->Snapshot()) {
    if (op.explain.find("person -> top (forbidden)") != std::string::npos) {
      ++named;
    }
    if (op.explain == "content pass: class schema") ++unknown;
  }
  EXPECT_EQ(named, kRounds);
  EXPECT_EQ(unknown, kRounds);
}

}  // namespace
}  // namespace ldapbound
