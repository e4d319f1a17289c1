// Health-state machine (DESIGN.md §11): legal transitions, degraded-mode
// write rejection, the supervised recovery probe, and the end-to-end
// WAL-fault → degraded → resync → healthy round trip on a DirectoryServer.
#include "server/health.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

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

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "ldapbound_health/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Polls until `done` or the budget runs out; returns whether it was met.
// The probe's backoff starts at a few ms in these tests, so a generous
// budget keeps this deterministic even on a loaded single-core box.
template <typename Pred>
bool WaitFor(Pred done, std::chrono::milliseconds budget =
                            std::chrono::seconds(30)) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// Health counts since construction, read from the metric registry (the
/// manager counts only there; the registry is process-wide, so tests
/// assert deltas).
class HealthCountsSince {
 public:
  uint64_t transitions() const {
    return Read(kTransitions) - transitions_;
  }
  uint64_t recovery_attempts() const { return Read(kAttempts) - attempts_; }
  uint64_t recoveries() const { return Read(kRecoveries) - recoveries_; }

 private:
  static constexpr char kTransitions[] = "ldapbound_health_transitions_total";
  static constexpr char kAttempts[] =
      "ldapbound_health_recovery_attempts_total";
  static constexpr char kRecoveries[] = "ldapbound_health_recoveries_total";
  static uint64_t Read(const char* name) {
    return MetricRegistry::Default().Read(name);
  }
  const uint64_t transitions_ = Read(kTransitions);
  const uint64_t attempts_ = Read(kAttempts);
  const uint64_t recoveries_ = Read(kRecoveries);
};

TEST(HealthTest, StateNames) {
  EXPECT_EQ(HealthStateName(HealthState::kHealthy), "healthy");
  EXPECT_EQ(HealthStateName(HealthState::kDegraded), "degraded");
  EXPECT_EQ(HealthStateName(HealthState::kDraining), "draining");
  EXPECT_EQ(HealthStateName(HealthState::kRecovering), "recovering");
}

TEST(HealthTest, StartsHealthyWithEmptyReason) {
  HealthManager health;
  const HealthCountsSince counts;
  EXPECT_EQ(health.state(), HealthState::kHealthy);
  EXPECT_TRUE(health.healthy());
  EXPECT_EQ(health.reason(), "");
  EXPECT_EQ(counts.transitions(), 0u);
}

TEST(HealthTest, WalFailureDegradesAndKeepsFirstReason) {
  HealthManager health;
  const HealthCountsSince counts;
  health.ReportWalFailure(Status::Internal("fsync exploded"));
  EXPECT_EQ(health.state(), HealthState::kDegraded);
  EXPECT_FALSE(health.healthy());
  EXPECT_NE(health.reason().find("fsync exploded"), std::string::npos);
  EXPECT_EQ(counts.transitions(), 1u);

  // A second fault while already degraded keeps the first reason (the
  // probe is already on it) and is not a state transition.
  health.ReportWalFailure(Status::Internal("a later, different fault"));
  EXPECT_EQ(health.state(), HealthState::kDegraded);
  EXPECT_NE(health.reason().find("fsync exploded"), std::string::npos);
  EXPECT_EQ(counts.transitions(), 1u);
}

TEST(HealthTest, OverloadDegrades) {
  HealthManager health;
  health.ReportOverload(64);
  EXPECT_EQ(health.state(), HealthState::kDegraded);
  EXPECT_NE(health.reason().find("overload"), std::string::npos);
}

TEST(HealthTest, RecoveryNotAttemptedWhileHealthy) {
  HealthManager health;
  const HealthCountsSince counts;
  bool called = false;
  Status status = health.AttemptRecovery([&] {
    called = true;
    return Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(called);
  EXPECT_EQ(health.state(), HealthState::kHealthy);
  EXPECT_EQ(counts.recovery_attempts(), 0u);
}

TEST(HealthTest, SuccessfulRecoveryRoundTrip) {
  HealthManager health;
  const HealthCountsSince counts;
  health.ReportWalFailure(Status::Internal("boom"));

  Status status = health.AttemptRecovery([&] {
    // The recover callback sees the drain halfway point.
    EXPECT_EQ(health.state(), HealthState::kDraining);
    health.EnterRecovering();
    EXPECT_EQ(health.state(), HealthState::kRecovering);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(health.state(), HealthState::kHealthy);
  EXPECT_EQ(health.reason(), "");
  EXPECT_EQ(counts.recovery_attempts(), 1u);
  EXPECT_EQ(counts.recoveries(), 1u);
  // healthy →degraded →draining →recovering →healthy
  EXPECT_EQ(counts.transitions(), 4u);
}

TEST(HealthTest, FailedRecoveryFallsBackToDegraded) {
  HealthManager health;
  const HealthCountsSince counts;
  health.ReportWalFailure(Status::Internal("boom"));

  Status status = health.AttemptRecovery([&] {
    health.EnterRecovering();
    return Status::Internal("disk still broken");
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(health.state(), HealthState::kDegraded);
  EXPECT_NE(health.reason().find("disk still broken"), std::string::npos);
  EXPECT_EQ(counts.recovery_attempts(), 1u);
  EXPECT_EQ(counts.recoveries(), 0u);
}

TEST(HealthTest, ProbeAutoRecoversWithBackoff) {
  HealthManager health;
  const HealthCountsSince counts;
  // Fail the first two attempts, succeed on the third: the probe must
  // ride the backoff schedule and keep retrying without supervision.
  std::atomic<int> attempts{0};
  ExponentialBackoff::Options backoff;
  backoff.initial_ms = 2;
  backoff.max_ms = 20;
  health.StartProbe(
      [&] {
        health.EnterRecovering();
        if (attempts.fetch_add(1) < 2) return Status::Internal("not yet");
        return Status::OK();
      },
      backoff);
  EXPECT_TRUE(health.probe_running());

  health.ReportWalFailure(Status::Internal("boom"));
  ASSERT_TRUE(WaitFor([&] { return health.healthy(); }))
      << "probe did not recover the server; state="
      << HealthStateName(health.state());
  EXPECT_GE(counts.recovery_attempts(), 3u);
  EXPECT_EQ(counts.recoveries(), 1u);

  health.StopProbe();
  EXPECT_FALSE(health.probe_running());
}

TEST(HealthTest, ProbeRecoversRepeatedFaults) {
  HealthManager health;
  const HealthCountsSince counts;
  ExponentialBackoff::Options backoff;
  backoff.initial_ms = 1;
  health.StartProbe(
      [&] {
        health.EnterRecovering();
        return Status::OK();
      },
      backoff);

  for (int round = 1; round <= 3; ++round) {
    health.ReportWalFailure(Status::Internal("fault " + std::to_string(round)));
    ASSERT_TRUE(WaitFor([&] { return health.healthy(); }))
        << "round " << round;
  }
  EXPECT_EQ(counts.recoveries(), 3u);
}

// --- DirectoryServer integration: the read-only flip and its recovery ---

// Satellite (c) of issue 7: the pre-existing behavior — a WAL fsync
// failure flips the server read-only — now expressed through the state
// machine, with a distinct retryable rejection status and full recovery.
TEST(HealthTest, ServerWalFaultDegradesThenRecovers) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  Failpoints::Reset();
  std::string dir = FreshDir("server-roundtrip");
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->EnableWal(dir).ok());
  ASSERT_TRUE(ApplyWalCommit(*server, 1).ok());

  Failpoints::Arm("wal.fsync", Failpoints::Action::kError, 1);
  Status failed = ApplyWalCommit(*server, 2);
  Failpoints::Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(server->health_state(), HealthState::kDegraded);
  EXPECT_TRUE(server->wal_failed());

  // Writes rejected with the retryable degraded status; reads unharmed.
  Status refused = ApplyWalCommit(*server, 3);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(refused.retryable());
  EXPECT_TRUE(server->Search("", "(objectClass=person)").ok());

  // Manual recovery (the probe's path, driven inline): resyncs the WAL
  // from a snapshot and restores writability.
  ASSERT_TRUE(server->TryRecoverNow().ok());
  EXPECT_EQ(server->health_state(), HealthState::kHealthy);
  EXPECT_FALSE(server->wal_failed());
  ASSERT_TRUE(ApplyWalCommit(*server, 3).ok());

  // Everything acknowledged after recovery is durable.
  auto recovered = DirectoryServer::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->ExportLdif(), server->ExportLdif());
  EXPECT_TRUE(recovered->IsLegal());
}

TEST(HealthTest, ServerAutoRecoversViaProbe) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  Failpoints::Reset();
  std::string dir = FreshDir("server-probe");
  const HealthCountsSince counts;
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->EnableWal(dir).ok());

  DirectoryServer::ResilienceOptions resilience;
  resilience.auto_recover = true;
  resilience.recovery_backoff.initial_ms = 2;
  resilience.recovery_backoff.max_ms = 50;
  server->EnableResilience(resilience);

  ASSERT_TRUE(ApplyWalCommit(*server, 1).ok());
  Failpoints::Arm("wal.fsync", Failpoints::Action::kError, 1);
  ASSERT_FALSE(ApplyWalCommit(*server, 2).ok());
  Failpoints::Reset();

  ASSERT_TRUE(WaitFor([&] { return !server->wal_failed(); }))
      << "probe did not restore writability; state="
      << HealthStateName(server->health_state());
  ASSERT_TRUE(ApplyWalCommit(*server, 3).ok());
  EXPECT_GE(counts.recoveries(), 1u);
}

TEST(HealthTest, ServerDiskFullSurfacesDistinctly) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  Failpoints::Reset();
  std::string dir = FreshDir("server-enospc");
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->EnableWal(dir).ok());

  // Satellite (b): ENOSPC is not a generic I/O error — it gets its own
  // status code and names the condition in the message.
  Failpoints::Arm("wal.fsync.enospc", Failpoints::Action::kError, 1);
  Status failed = ApplyWalCommit(*server, 1);
  Failpoints::Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kDiskFull);
  EXPECT_NE(failed.message().find("disk full"), std::string::npos) << failed;
  EXPECT_EQ(server->health_state(), HealthState::kDegraded);

  // Recovery works once space is back (the failpoint is gone). Commit 1
  // was applied in memory before the append failed, so the resync
  // snapshot already carries it — continue with the next index.
  ASSERT_TRUE(server->TryRecoverNow().ok());
  ASSERT_TRUE(ApplyWalCommit(*server, 2).ok());
}

}  // namespace
}  // namespace ldapbound
