// Admission control (DESIGN.md §11): bounded group-commit queue, per-op
// deadline budgets at the front door and the post-queue checkpoint, the
// sustained-overload degrade signal, and the DirectoryServer wiring.
#include "server/admission.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "server/directory_server.h"
#include "server/group_commit.h"
#include "server/wal.h"
#include "tests/server/wal_workload.h"
#include "util/deadline.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

namespace fs = std::filesystem;
using testing::ApplyWalCommit;
using testing::kWalSchema;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "ldapbound_admission/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Admission verdicts so far in this process, as /metrics shows them (the
/// controller counts them only there): "admitted", "overloaded" or
/// "deadline".
uint64_t Verdicts(const std::string& verdict) {
  if (verdict == "admitted") {
    return MetricRegistry::Default().Read("ldapbound_admission_admitted_total");
  }
  return MetricRegistry::Default().Read("ldapbound_admission_rejected_total",
                                        "reason=\"" + verdict + "\"");
}

Deadline ExpiredDeadline() {
  return Deadline::At(Deadline::Clock::now() - std::chrono::milliseconds(5));
}

TEST(AdmissionTest, UnboundedAdmitsEverything) {
  AdmissionController admission({}, /*queue=*/nullptr);
  const uint64_t admitted = Verdicts("admitted");
  const uint64_t overloaded = Verdicts("overloaded");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(admission.AdmitWrite(Deadline()).ok());
  }
  EXPECT_EQ(Verdicts("admitted"), admitted + 10);
  EXPECT_EQ(Verdicts("overloaded"), overloaded);
}

TEST(AdmissionTest, ExpiredDeadlineShedBeforeAnyWork) {
  AdmissionController admission({}, /*queue=*/nullptr);
  const uint64_t deadline = Verdicts("deadline");
  Status status = admission.AdmitWrite(ExpiredDeadline());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(status.retryable());
  EXPECT_EQ(Verdicts("deadline"), deadline + 1);
  // Deadline sheds never feed the overload streak.
  EXPECT_EQ(admission.shed_streak(), 0u);
}

TEST(AdmissionTest, DefaultDeadline) {
  AdmissionOptions none;
  EXPECT_TRUE(
      AdmissionController(none, nullptr).DefaultDeadline().infinite());

  AdmissionOptions budgeted;
  budgeted.default_deadline_ms = 5000;
  Deadline deadline =
      AdmissionController(budgeted, nullptr).DefaultDeadline();
  EXPECT_FALSE(deadline.infinite());
  EXPECT_LE(deadline.remaining_ms(), 5000u);
}

TEST(AdmissionTest, QueueBoundShedsWithRetryableOverloaded) {
  std::string dir = FreshDir("bound");
  WalOptions wal_options;
  wal_options.group_commit_max_batch = 8;
  wal_options.group_commit_hold_us = 0;
  auto wal = WriteAheadLog::Open(dir, wal_options, /*next_seq=*/1);
  ASSERT_TRUE(wal.ok()) << wal.status();
  GroupCommitQueue queue(wal->get());

  AdmissionOptions options;
  options.max_queue_depth = 2;
  options.overload_degrade_threshold = 3;
  AdmissionController admission(options, &queue);

  // Build queue depth without flushing: Enqueue never blocks, and no
  // Wait has run yet to elect a leader.
  std::vector<GroupCommitQueue::Ticket*> tickets;
  tickets.push_back(queue.Enqueue("frame-1"));
  EXPECT_TRUE(admission.AdmitWrite(Deadline()).ok());  // depth 1 < 2
  tickets.push_back(queue.Enqueue("frame-2"));
  ASSERT_EQ(queue.depth(), 2u);

  const uint64_t overloaded = Verdicts("overloaded");
  Status shed = admission.AdmitWrite(Deadline());
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(shed.retryable());
  EXPECT_NE(shed.message().find("depth 2"), std::string::npos) << shed;
  EXPECT_EQ(Verdicts("overloaded"), overloaded + 1);
  EXPECT_EQ(admission.shed_streak(), 1u);

  // The degrade signal fires exactly when the streak crosses the
  // threshold, and is consumed by the first taker.
  EXPECT_FALSE(admission.TakeDegradeSignal());
  EXPECT_FALSE(admission.AdmitWrite(Deadline()).ok());
  EXPECT_FALSE(admission.TakeDegradeSignal());
  EXPECT_FALSE(admission.AdmitWrite(Deadline()).ok());
  EXPECT_EQ(admission.shed_streak(), 3u);
  EXPECT_TRUE(admission.TakeDegradeSignal());
  EXPECT_FALSE(admission.TakeDegradeSignal());

  // Drain the queue (first Wait elects itself leader and flushes all),
  // then admission opens back up and the streak resets.
  for (GroupCommitQueue::Ticket* ticket : tickets) {
    EXPECT_TRUE(queue.Wait(ticket).ok());
  }
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_TRUE(admission.AdmitWrite(Deadline()).ok());
  EXPECT_EQ(admission.shed_streak(), 0u);
}

// --- DirectoryServer wiring ---

TEST(AdmissionTest, ServerRejectsExpiredWriteDeadlineWithoutSideEffects) {
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(ApplyWalCommit(*server, 1).ok());
  const std::string before = server->ExportLdif();

  EntrySpec spec;
  spec.classes = {"person", "top"};
  spec.values = {{"uid", "u99"}, {"name", "late arrival"}};
  Status status = server->Add(*DistinguishedName::Parse("uid=u99,ou=t1"),
                              spec, ExpiredDeadline());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(status.retryable());
  EXPECT_EQ(server->ExportLdif(), before);  // no partial work
}

TEST(AdmissionTest, ServerRejectsExpiredSearchDeadline) {
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(ApplyWalCommit(*server, 1).ok());

  SearchRequest request;  // defaults: whole forest, match-all filter
  auto hits = server->Search(request, ExpiredDeadline());
  ASSERT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kDeadlineExceeded);

  EXPECT_TRUE(server->Search(request).ok());  // no budget, no rejection
}

TEST(AdmissionTest, ServerAppliesConfiguredDefaultDeadline) {
  auto server = DirectoryServer::Create(kWalSchema);
  ASSERT_TRUE(server.ok());

  DirectoryServer::ResilienceOptions resilience;
  resilience.admission.default_deadline_ms = 60'000;  // generous: admits
  server->EnableResilience(resilience);
  ASSERT_NE(server->admission(), nullptr);

  const uint64_t admitted = Verdicts("admitted");
  const uint64_t deadline = Verdicts("deadline");
  ASSERT_TRUE(ApplyWalCommit(*server, 1).ok());
  EXPECT_EQ(Verdicts("admitted"), admitted + 1);

  // An explicit deadline still wins over the default.
  EntrySpec spec;
  spec.classes = {"person", "top"};
  spec.values = {{"uid", "u98"}, {"name", "explicit budget"}};
  Status status = server->Add(*DistinguishedName::Parse("uid=u98,ou=t1"),
                              spec, ExpiredDeadline());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Verdicts("deadline"), deadline + 1);
}

}  // namespace
}  // namespace ldapbound
