// WAL group commit: concurrent committers batch into one fsync'd frame
// group, acks only after the group reaches disk, and the recovered state
// always equals the acknowledged state. Covers the single-writer round
// trip (a group of one), genuine multi-writer batching, the
// read-only-on-flush-failure contract, and Compact() draining the queue.

#include "server/group_commit.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "server/directory_server.h"
#include "tests/server/wal_workload.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

namespace fs = std::filesystem;
using testing::ApplyWalCommit;
using testing::ExpectedLdifAfter;
using testing::kWalSchema;
using testing::WalDn;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "ldapbound_group_commit/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// WAL groups and commits flushed so far in this process: the queue counts
/// them only in the metric registry, so tests assert deltas.
struct Flushed {
  uint64_t groups =
      MetricRegistry::Default().Read("ldapbound_wal_group_commits_total");
  uint64_t commits = MetricRegistry::Default().Read(
      "ldapbound_wal_group_commit_batch_size_sum");
};

WalOptions GroupOptions(size_t max_batch, uint32_t hold_us) {
  WalOptions options;
  options.group_commit_max_batch = max_batch;
  options.group_commit_hold_us = hold_us;
  return options;
}

TEST(GroupCommitTest, DefaultIsABatchOfOne) {
  // Every WAL commit goes through the queue; the default batch of one
  // flushes each commit with its own fsync.
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->EnableWal(FreshDir("default"), WalOptions{}).ok());
  ASSERT_NE(server->group_commit(), nullptr);
  EXPECT_EQ(server->group_commit()->max_batch(), 1u);

  const Flushed before;
  constexpr uint64_t kCommits = 5;
  for (uint64_t i = 1; i <= kCommits; ++i) {
    ASSERT_TRUE(ApplyWalCommit(*server, i).ok()) << "commit " << i;
  }
  const Flushed after;
  EXPECT_EQ(after.commits - before.commits, kCommits);
  EXPECT_EQ(after.groups - before.groups, kCommits);
}

TEST(GroupCommitTest, SingleWriterRoundTripAndRecovery) {
  std::string dir = FreshDir("single");
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  // hold_us = 0: a lone writer flushes immediately as a group of one.
  ASSERT_TRUE(server->EnableWal(dir, GroupOptions(4, 0)).ok());
  ASSERT_NE(server->group_commit(), nullptr);

  const Flushed before;
  constexpr uint64_t kCommits = 20;
  for (uint64_t i = 1; i <= kCommits; ++i) {
    ASSERT_TRUE(ApplyWalCommit(*server, i).ok()) << "commit " << i;
  }
  const Flushed after;
  EXPECT_EQ(after.commits - before.commits, kCommits);
  EXPECT_GE(after.groups - before.groups, 1u);
  EXPECT_EQ(server->ExportLdif(), *ExpectedLdifAfter(kCommits));

  // Every acked commit is durable: a fresh recovery replays to the same
  // state, and group commit may be re-enabled (or not) independently.
  auto recovered = DirectoryServer::Recover(dir, GroupOptions(4, 0));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->ExportLdif(), *ExpectedLdifAfter(kCommits));
  EXPECT_NE(recovered->group_commit(), nullptr);
  EXPECT_TRUE(ApplyWalCommit(*recovered, kCommits + 1).ok());
}

TEST(GroupCommitTest, ConcurrentWritersShareFsyncs) {
  std::string dir = FreshDir("concurrent");
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  // A generous hold window so followers reliably pile into the leader's
  // group even on a single-core machine.
  ASSERT_TRUE(server->EnableWal(dir, GroupOptions(4, 50000)).ok());

  const Flushed before;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 10;
  std::vector<std::thread> writers;
  std::vector<Status> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&server, &results, t] {
      DirectoryServer& s = *server;
      const std::string team_dn = "ou=gc" + std::to_string(t);
      EntrySpec team_spec;
      team_spec.classes = {"team", "top"};
      team_spec.values = {{"ou", "gc" + std::to_string(t)}};
      auto person_spec = [&](uint64_t i) {
        EntrySpec spec;
        spec.classes = {"person", "top"};
        spec.values = {
            {"uid", "gc" + std::to_string(t) + "-" + std::to_string(i)},
            {"name", "writer " + std::to_string(t)}};
        return spec;
      };
      UpdateTransaction txn;
      txn.Insert(WalDn(team_dn), team_spec);
      txn.Insert(WalDn("uid=gc" + std::to_string(t) + "-0," + team_dn),
                 person_spec(0));
      Status status = s.Apply(txn);
      for (uint64_t i = 1; status.ok() && i <= kPerThread; ++i) {
        status = s.Add(WalDn("uid=gc" + std::to_string(t) + "-" +
                             std::to_string(i) + "," + team_dn),
                       person_spec(i));
      }
      results[t] = status;
    });
  }
  for (std::thread& w : writers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(results[t].ok()) << "writer " << t << ": " << results[t];
  }

  const Flushed after;
  constexpr uint64_t kTotal = kThreads * (kPerThread + 1);
  EXPECT_EQ(after.commits - before.commits, kTotal);
  // Batching actually happened: fewer fsync'd groups than commits.
  EXPECT_LT(after.groups - before.groups, kTotal);

  // Durability: recovery reproduces exactly the live state.
  EXPECT_TRUE(server->IsLegal());
  auto recovered = DirectoryServer::Recover(dir, WalOptions{});
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->ExportLdif(), server->ExportLdif());
}

TEST(GroupCommitTest, CompactDrainsQueueAndPreservesState) {
  std::string dir = FreshDir("compact");
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->EnableWal(dir, GroupOptions(8, 1000)).ok());

  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(ApplyWalCommit(*server, i).ok());
  }
  ASSERT_TRUE(server->Compact().ok());
  for (uint64_t i = 11; i <= 15; ++i) {
    ASSERT_TRUE(ApplyWalCommit(*server, i).ok());
  }

  auto recovered = DirectoryServer::Recover(dir, WalOptions{});
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->ExportLdif(), *ExpectedLdifAfter(15));
}

TEST(GroupCommitTest, FlushFailureFailsWaiterAndTurnsServerReadOnly) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  std::string dir = FreshDir("flush-failure");
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  // Arm AFTER EnableWal so the initial snapshot is not what fails.
  ASSERT_TRUE(server->EnableWal(dir, GroupOptions(4, 0)).ok());
  Failpoints::Reset();
  Failpoints::Arm("wal.fsync", Failpoints::Action::kError, 1);

  // The group's fsync fails, so the waiter must see the error even though
  // the in-memory apply succeeded, and the server goes read-only.
  Status status = ApplyWalCommit(*server, 1);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(server->wal_failed());

  Failpoints::Reset();
  Status next = ApplyWalCommit(*server, 2);
  EXPECT_EQ(next.code(), StatusCode::kUnavailable)
      << "server accepted a write after a failed group flush";
}

}  // namespace
}  // namespace ldapbound
