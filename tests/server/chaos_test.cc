// Chaos harness (DESIGN.md §11, issue 7): fault storms against a live
// DirectoryServer with concurrent writers and readers. Injected faults —
// fsync errors, disk-full, slow-disk stalls, overload bursts — must never
// lose an acknowledged commit, must shed with distinct retryable statuses,
// must keep the commit queue bounded, and must let the supervised probe
// bring the server back to healthy once the fault clears.
//
// ctest label: chaos (CI runs it under ASan with failpoints on; see
// .github/workflows/ci.yml). Thread counts are modest and budgets
// generous so the suite stays deterministic on a single-core box.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/directory_server.h"
#include "server/group_commit.h"
#include "server/health.h"
#include "tests/server/wal_workload.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

namespace fs = std::filesystem;
using testing::ApplyWalCommit;
using testing::kWalSchema;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "ldapbound_chaos/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A count so far in this process, as /metrics shows it; the server
/// counts only in the registry, so each case compares against a reading
/// taken before its storm.
uint64_t Metric(const char* name, const char* labels = "") {
  return MetricRegistry::Default().Read(name, labels);
}
constexpr char kRecoveries[] = "ldapbound_health_recoveries_total";
constexpr char kAdmissionRejected[] = "ldapbound_admission_rejected_total";

WalOptions GroupOptions(size_t max_batch, uint32_t hold_us) {
  WalOptions options;
  options.group_commit_max_batch = max_batch;
  options.group_commit_hold_us = hold_us;
  return options;
}

template <typename Pred>
bool WaitFor(Pred done, std::chrono::milliseconds budget =
                            std::chrono::seconds(60)) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// A writer bombards the server with Adds of uniquely-named persons under
// the team made by commit 1, never reusing a DN (a failed attempt's entry
// may still have been applied in memory, and a durable superset of the
// acknowledged set is fine — a DN collision would confuse the ledger).
// Records every acknowledged DN and tallies failures by status code.
struct WriterLedger {
  std::mutex mu;
  std::vector<std::string> acked;
  std::map<StatusCode, uint64_t> failures;
  std::atomic<uint64_t> attempts{0};
};

void RunWriter(DirectoryServer* server, int writer_id, int attempts,
               WriterLedger* ledger) {
  EntrySpec spec;
  spec.classes = {"person", "top"};
  for (int a = 0; a < attempts; ++a) {
    const std::string uid =
        "w" + std::to_string(writer_id) + "a" + std::to_string(a);
    spec.values = {{"uid", uid}, {"name", "chaos " + uid}};
    const std::string dn = "uid=" + uid + ",ou=t1";
    ledger->attempts.fetch_add(1, std::memory_order_relaxed);
    Status status = server->Add(*DistinguishedName::Parse(dn), spec);
    {
      std::lock_guard<std::mutex> lock(ledger->mu);
      if (status.ok()) {
        ledger->acked.push_back(dn);
      } else {
        ++ledger->failures[status.code()];
        // Distinct-status contract: every shed the resilience layer
        // produces is retryable; only the write that *hit* the fault (or
        // found the queue poisoned by it) may carry a terminal code.
        if (status.code() != StatusCode::kInternal &&
            status.code() != StatusCode::kDiskFull) {
          EXPECT_TRUE(status.retryable()) << status;
        }
      }
    }
    // A well-behaved client backs off on failure; without this the
    // writers exhaust every attempt inside one degraded window, faster
    // than any probe could heal.
    if (!status.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

// Readers pin MVCC snapshots throughout the storm (the lock-free read
// path `serve` uses): every pinned snapshot must be internally
// consistent and versions must only move forward, in every health state.
void RunReader(DirectoryServer* server, std::atomic<bool>* stop,
               std::atomic<uint64_t>* reads) {
  uint64_t last_version = 0;
  while (!stop->load(std::memory_order_acquire)) {
    PinnedSnapshot snap = server->PinSnapshot();
    ASSERT_TRUE(static_cast<bool>(snap));
    EXPECT_GE(snap->version, last_version);
    last_version = snap->version;
    EXPECT_EQ(snap->num_alive, snap->alive->Count());
    reads->fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// Every acknowledged DN must be present in a fresh recovery of the WAL
// directory — the "no acknowledged commit lost" contract, checked by
// replaying the log like a restart would.
void ExpectAckedDurable(const std::string& dir, const WalOptions& options,
                        const WriterLedger& ledger,
                        const std::string& expected_ldif) {
  auto recovered = DirectoryServer::Recover(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->IsLegal());
  EXPECT_EQ(recovered->ExportLdif(), expected_ldif);
  for (const std::string& dn : ledger.acked) {
    EXPECT_TRUE(recovered->Search(dn, "(objectClass=person)").ok())
        << "acknowledged commit lost: " << dn;
  }
}

TEST(ChaosTest, FsyncFaultStormNeverLosesAckedCommits) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  Failpoints::Reset();
  std::string dir = FreshDir("fsync-storm");
  const uint64_t recoveries = Metric(kRecoveries);
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  const WalOptions wal_options = GroupOptions(4, 100);
  ASSERT_TRUE(server->EnableWal(dir, wal_options).ok());
  // Concurrent readers ride MVCC snapshots, as in production `serve`;
  // searching the mutable directory under writers would be a data race.
  server->EnableMvcc();

  DirectoryServer::ResilienceOptions resilience;
  resilience.auto_recover = true;
  resilience.recovery_backoff.initial_ms = 5;
  resilience.recovery_backoff.max_ms = 100;
  server->EnableResilience(resilience);

  ASSERT_TRUE(ApplyWalCommit(*server, 1).ok());  // the team

  WriterLedger ledger;
  std::atomic<bool> stop_readers{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back(RunWriter, &*server, w, 40, &ledger);
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back(RunReader, &*server, &stop_readers, &reads);
  }

  // The storm: alternate generic fsync errors and disk-full, letting the
  // probe heal the server between rounds.
  for (int round = 0; round < 4; ++round) {
    const char* site = (round % 2 == 0) ? "wal.fsync" : "wal.fsync.enospc";
    Failpoints::Arm(site, Failpoints::Action::kError, 1);
    // Wait for a writer to trip the fault (or for the writers to have
    // finished without hitting the single-shot failpoint).
    WaitFor([&] { return server->wal_failed() ||
                         ledger.attempts.load() >= 3 * 40; },
            std::chrono::seconds(10));
    Failpoints::Disarm(site);
    ASSERT_TRUE(WaitFor([&] { return !server->wal_failed(); }))
        << "probe failed to heal after round " << round << "; state="
        << HealthStateName(server->health_state());
  }
  Failpoints::Reset();

  for (int w = 0; w < 3; ++w) threads[w].join();
  ASSERT_TRUE(WaitFor([&] { return !server->wal_failed(); }));
  stop_readers.store(true, std::memory_order_release);
  for (size_t t = 3; t < threads.size(); ++t) threads[t].join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_FALSE(ledger.acked.empty());
  // Only codes the resilience layer (or the fault itself) produces.
  const std::set<StatusCode> allowed = {
      StatusCode::kInternal, StatusCode::kDiskFull, StatusCode::kUnavailable,
      StatusCode::kOverloaded, StatusCode::kDeadlineExceeded};
  for (const auto& [code, count] : ledger.failures) {
    EXPECT_TRUE(allowed.count(code))
        << "unexpected failure code " << static_cast<int>(code) << " ("
        << count << "x)";
  }
  EXPECT_GE(Metric(kRecoveries) - recoveries, 1u);
  ExpectAckedDurable(dir, wal_options, ledger, server->ExportLdif());
}

// A writer burst against a stalling disk, with a bounded commit queue.
void RunOverloadBurst(const std::string& name, const WalOptions& wal_options) {
  SCOPED_TRACE(name);
  Failpoints::Reset();
  std::string dir = FreshDir("overload-" + name);
  const uint64_t overloaded =
      Metric(kAdmissionRejected, "reason=\"overloaded\"");
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->EnableWal(dir, wal_options).ok());

  constexpr size_t kMaxDepth = 2;
  constexpr int kWriters = 6;
  DirectoryServer::ResilienceOptions resilience;
  resilience.admission.max_queue_depth = kMaxDepth;
  server->EnableResilience(resilience);

  ASSERT_TRUE(ApplyWalCommit(*server, 1).ok());

  // Slow disk: every fsync stalls, so the commit queue backs up and the
  // admission bound has to do its job.
  Failpoints::Arm("wal.fsync", Failpoints::Action::kSleep, 1,
                  /*sleep_ms=*/40);

  WriterLedger ledger;
  std::atomic<bool> stop_sampler{false};
  std::atomic<size_t> max_depth_seen{0};
  std::thread sampler([&] {
    while (!stop_sampler.load(std::memory_order_acquire)) {
      size_t depth = server->group_commit()->depth();
      size_t prev = max_depth_seen.load(std::memory_order_relaxed);
      while (depth > prev &&
             !max_depth_seen.compare_exchange_weak(prev, depth)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back(RunWriter, &*server, w, 20, &ledger);
  }
  for (std::thread& t : writers) t.join();
  stop_sampler.store(true, std::memory_order_release);
  sampler.join();
  Failpoints::Reset();

  // The burst outran the disk: some writes were shed with the retryable
  // overload status, and the queue never grew past the bound plus the
  // writers already admitted but not yet enqueued.
  EXPECT_GT(ledger.failures[StatusCode::kOverloaded], 0u);
  EXPECT_LE(max_depth_seen.load(), kMaxDepth + kWriters);
  EXPECT_GT(Metric(kAdmissionRejected, "reason=\"overloaded\"") - overloaded,
            0u);
  EXPECT_FALSE(ledger.acked.empty());
  EXPECT_TRUE(server->wal_failed() == false);  // overload is not a fault

  ExpectAckedDurable(dir, wal_options, ledger, server->ExportLdif());
}

TEST(ChaosTest, OverloadBurstShedsAndStaysBounded) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  // A batching queue, and the default batch of one, which `serve` runs
  // unless --group-commit-batch says otherwise.
  RunOverloadBurst("batch2", GroupOptions(2, 0));
  RunOverloadBurst("default", WalOptions{});
}

TEST(ChaosTest, DeadlinesCancelBeforeWorkUnderStall) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  Failpoints::Reset();
  std::string dir = FreshDir("deadline-stall");
  const uint64_t deadline =
      Metric(kAdmissionRejected, "reason=\"deadline\"");
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  // The stall sits at server.commit, *under* the write mutex and before
  // the enqueue, so later writers burn their budget queued on the mutex —
  // exactly the window the post-queue deadline checkpoint covers. (A
  // budget that burns in the group's fsync wait is past the point of no
  // return, and by design is not cancelled there.)
  const WalOptions wal_options{};
  ASSERT_TRUE(server->EnableWal(dir, wal_options).ok());

  DirectoryServer::ResilienceOptions resilience;
  resilience.admission.default_deadline_ms = 20;  // tighter than the stall
  server->EnableResilience(resilience);

  ASSERT_TRUE(ApplyWalCommit(*server, 1).ok());

  // Stall every commit well past the default budget: writers queued
  // behind a stalled committer find their budget spent at the write-mutex
  // checkpoint and are cancelled before any work.
  Failpoints::Arm("server.commit", Failpoints::Action::kSleep, 1,
                  /*sleep_ms=*/60);

  WriterLedger ledger;
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back(RunWriter, &*server, w, 12, &ledger);
  }
  for (std::thread& t : writers) t.join();
  Failpoints::Reset();

  EXPECT_GT(ledger.failures[StatusCode::kDeadlineExceeded], 0u);
  EXPECT_GT(Metric(kAdmissionRejected, "reason=\"deadline\"") - deadline, 0u);
  // Deadline sheds did no work: the durable state replays to exactly the
  // in-memory state, containing every acknowledged DN.
  ExpectAckedDurable(dir, wal_options, ledger, server->ExportLdif());
}

TEST(ChaosTest, SustainedOverloadDegradesAndProbeHeals) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  Failpoints::Reset();
  std::string dir = FreshDir("sustained");
  const uint64_t recoveries = Metric(kRecoveries);
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  const WalOptions wal_options = GroupOptions(2, 0);
  ASSERT_TRUE(server->EnableWal(dir, wal_options).ok());

  DirectoryServer::ResilienceOptions resilience;
  resilience.admission.max_queue_depth = 1;
  resilience.admission.overload_degrade_threshold = 8;
  resilience.auto_recover = true;
  resilience.recovery_backoff.initial_ms = 10;
  server->EnableResilience(resilience);

  ASSERT_TRUE(ApplyWalCommit(*server, 1).ok());

  Failpoints::Arm("wal.fsync", Failpoints::Action::kSleep, 1,
                  /*sleep_ms=*/50);
  WriterLedger ledger;
  std::vector<std::thread> writers;
  for (int w = 0; w < 6; ++w) {
    writers.emplace_back(RunWriter, &*server, w, 25, &ledger);
  }
  for (std::thread& t : writers) t.join();
  Failpoints::Reset();

  // The streak crossed the threshold at some point: the server reported
  // sustained overload and degraded (cheap sheds) — and with the fault
  // gone and the queue empty, the probe brings it back.
  EXPECT_GT(ledger.failures[StatusCode::kOverloaded] +
                ledger.failures[StatusCode::kUnavailable],
            0u);
  ASSERT_TRUE(WaitFor([&] { return !server->wal_failed(); }))
      << "probe did not heal after sustained overload; state="
      << HealthStateName(server->health_state());
  EXPECT_GE(Metric(kRecoveries) - recoveries, 1u);
  ASSERT_TRUE(ApplyWalCommit(*server, 2).ok());  // writable again

  ExpectAckedDurable(dir, wal_options, ledger, server->ExportLdif());
}

}  // namespace
}  // namespace ldapbound
