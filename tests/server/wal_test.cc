// Write-ahead log: durability round trips, segment rotation, compaction,
// torn-tail truncation, corruption rejection, and the read-only fallback
// after an injected WAL failure.
#include "server/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ldap/ldif.h"
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
  std::string dir = ::testing::TempDir() + "ldapbound_wal/" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::string> SegmentPaths(const std::string& dir) {
  auto listing = ListWalDir(dir);
  std::vector<std::string> paths;
  for (const WalSegment& segment : listing->segments) {
    paths.push_back(segment.path);
  }
  return paths;
}

void PatchByte(const std::string& path, std::streamoff offset, char xor_mask) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file) << path;
  file.seekg(offset);
  char byte = 0;
  file.get(byte);
  file.seekp(offset);
  file.put(static_cast<char>(byte ^ xor_mask));
}

void ChopBytes(const std::string& path, uintmax_t n) {
  uintmax_t size = fs::file_size(path);
  ASSERT_GE(size, n);
  fs::resize_file(path, size - n);
}

DirectoryServer NewServer() {
  return DirectoryServer::Create(kWalSchema).value();
}

TEST(WalTest, CommitsSurviveRestart) {
  std::string dir = FreshDir("restart");
  {
    DirectoryServer server = NewServer();
    ASSERT_TRUE(server.EnableWal(dir).ok());
    for (uint64_t i = 1; i <= 12; ++i) {
      ASSERT_TRUE(ApplyWalCommit(server, i).ok()) << "commit " << i;
    }
    EXPECT_EQ(server.wal()->last_sequence(), 12u);
  }
  WalRecoveryReport report;
  auto recovered = DirectoryServer::Recover(dir, WalOptions{}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.frames_replayed, 12u);
  EXPECT_EQ(report.last_seq, 12u);
  EXPECT_FALSE(report.torn_tail_truncated);
  EXPECT_TRUE(recovered->IsLegal());
  EXPECT_EQ(recovered->ExportLdif(), *ExpectedLdifAfter(12));
}

TEST(WalTest, RecoveredServerKeepsCommitting) {
  std::string dir = FreshDir("continue");
  {
    DirectoryServer server = NewServer();
    ASSERT_TRUE(server.EnableWal(dir).ok());
    for (uint64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(ApplyWalCommit(server, i).ok());
    }
  }
  {
    auto server = DirectoryServer::Recover(dir);
    ASSERT_TRUE(server.ok()) << server.status();
    for (uint64_t i = 6; i <= 10; ++i) {
      ASSERT_TRUE(ApplyWalCommit(*server, i).ok()) << "commit " << i;
    }
    EXPECT_EQ(server->wal()->last_sequence(), 10u);
  }
  auto again = DirectoryServer::Recover(dir);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ExportLdif(), *ExpectedLdifAfter(10));
}

TEST(WalTest, SegmentsRotate) {
  std::string dir = FreshDir("rotate");
  DirectoryServer server = NewServer();
  WalOptions options;
  options.segment_bytes = 256;  // a frame or two per segment
  ASSERT_TRUE(server.EnableWal(dir, options).ok());
  for (uint64_t i = 1; i <= 15; ++i) {
    ASSERT_TRUE(ApplyWalCommit(server, i).ok());
  }
  EXPECT_GT(SegmentPaths(dir).size(), 2u);
  auto recovered = DirectoryServer::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->ExportLdif(), *ExpectedLdifAfter(15));
}

TEST(WalTest, CompactionSnapshotsAndTruncatesTheLog) {
  std::string dir = FreshDir("compact");
  DirectoryServer server = NewServer();
  WalOptions options;
  options.segment_bytes = 256;
  ASSERT_TRUE(server.EnableWal(dir, options).ok());
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(ApplyWalCommit(server, i).ok());
  }
  size_t segments_before = SegmentPaths(dir).size();
  ASSERT_GT(segments_before, 2u);
  ASSERT_TRUE(server.Compact().ok());
  EXPECT_LT(SegmentPaths(dir).size(), segments_before);

  // More traffic after the snapshot.
  for (uint64_t i = 11; i <= 14; ++i) {
    ASSERT_TRUE(ApplyWalCommit(server, i).ok());
  }

  WalRecoveryReport report;
  auto recovered = DirectoryServer::Recover(dir, WalOptions{}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.snapshot_seq, 10u);
  EXPECT_GT(report.snapshot_entries, 0u);
  EXPECT_EQ(report.frames_replayed, 4u);  // only the post-snapshot delta
  EXPECT_EQ(report.last_seq, 14u);
  EXPECT_EQ(recovered->ExportLdif(), *ExpectedLdifAfter(14));
}

// The WAL snapshot is streamed to its file chunk by chunk; the file must
// hold exactly WriteLdif's text, and recovery must load it.
TEST(WalTest, StreamedSnapshotIsWriteLdifByteForByte) {
  std::string dir = FreshDir("streamed");
  DirectoryServer server = NewServer();
  std::string ldif = "dn: ou=big\nobjectClass: team\nobjectClass: top\n"
                     "ou: big\n\n";
  for (int i = 0; i < 3000; ++i) {
    const std::string uid = "u" + std::to_string(i);
    ldif += "dn: uid=" + uid + ",ou=big\nobjectClass: person\n"
            "objectClass: top\nuid: " + uid + "\nname: person " + uid +
            "\n\n";
  }
  ASSERT_TRUE(server.ImportLdif(ldif).ok());
  const uint64_t bytes_before = MetricRegistry::Default().Read(
      "ldapbound_wal_snapshot_bytes_total");
  ASSERT_TRUE(server.EnableWal(dir).ok());

  auto listing = ListWalDir(dir);
  ASSERT_TRUE(listing.ok() && listing->snapshot.has_value());
  std::ifstream in(listing->snapshot->first, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const std::string expected = WriteLdif(server.directory());
  ASSERT_GT(expected.size(), size_t{3} << 16);  // several chunks
  EXPECT_TRUE(written == expected);
  EXPECT_EQ(MetricRegistry::Default().Read(
                "ldapbound_wal_snapshot_bytes_total") - bytes_before,
            expected.size());

  WalRecoveryReport report;
  auto recovered = DirectoryServer::Recover(dir, WalOptions{}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.snapshot_entries, 3001u);
  EXPECT_EQ(recovered->ExportLdif(), expected);
}

TEST(WalTest, TornTailGarbageIsTruncated) {
  std::string dir = FreshDir("torn-garbage");
  {
    DirectoryServer server = NewServer();
    ASSERT_TRUE(server.EnableWal(dir).ok());
    for (uint64_t i = 1; i <= 6; ++i) {
      ASSERT_TRUE(ApplyWalCommit(server, i).ok());
    }
  }
  // A crashed append can leave any partial junk at the tail.
  std::vector<std::string> segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 1u);
  {
    std::ofstream out(segments[0], std::ios::binary | std::ios::app);
    out.write("\x07garbage", 8);
  }
  WalRecoveryReport report;
  auto recovered = DirectoryServer::Recover(dir, WalOptions{}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(report.torn_tail_truncated);
  EXPECT_EQ(report.torn_tail_segment, segments[0]);
  EXPECT_EQ(report.last_seq, 6u);  // no acknowledged commit lost
  EXPECT_EQ(recovered->ExportLdif(), *ExpectedLdifAfter(6));
  // The truncation repaired the file: a second recovery is clean.
  auto again = DirectoryServer::Recover(dir, WalOptions{}, &report);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(report.torn_tail_truncated);
}

TEST(WalTest, TornTailPartialFrameDropsOnlyTheUnfinishedCommit) {
  std::string dir = FreshDir("torn-partial");
  {
    DirectoryServer server = NewServer();
    ASSERT_TRUE(server.EnableWal(dir).ok());
    for (uint64_t i = 1; i <= 6; ++i) {
      ASSERT_TRUE(ApplyWalCommit(server, i).ok());
    }
  }
  std::vector<std::string> segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 1u);
  ChopBytes(segments[0], 3);  // the last frame now ends past EOF
  WalRecoveryReport report;
  auto recovered = DirectoryServer::Recover(dir, WalOptions{}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(report.torn_tail_truncated);
  EXPECT_EQ(report.last_seq, 5u);  // exactly the torn commit is gone
  EXPECT_TRUE(recovered->IsLegal());
  EXPECT_EQ(recovered->ExportLdif(), *ExpectedLdifAfter(5));
}

TEST(WalTest, CorruptFinalFrameIsATornTail) {
  std::string dir = FreshDir("torn-crc");
  {
    DirectoryServer server = NewServer();
    ASSERT_TRUE(server.EnableWal(dir).ok());
    for (uint64_t i = 1; i <= 4; ++i) {
      ASSERT_TRUE(ApplyWalCommit(server, i).ok());
    }
  }
  std::vector<std::string> segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 1u);
  // Flip the very last payload byte: the final frame fails its CRC but
  // nothing follows it, so this is a torn (partially written) tail.
  PatchByte(segments[0],
            static_cast<std::streamoff>(fs::file_size(segments[0])) - 1,
            0x01);
  WalRecoveryReport report;
  auto recovered = DirectoryServer::Recover(dir, WalOptions{}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(report.torn_tail_truncated);
  EXPECT_EQ(report.last_seq, 3u);
  EXPECT_EQ(recovered->ExportLdif(), *ExpectedLdifAfter(3));
}

TEST(WalTest, MidLogCorruptionIsRejectedWithDiagnostic) {
  std::string dir = FreshDir("mid-corrupt");
  {
    DirectoryServer server = NewServer();
    ASSERT_TRUE(server.EnableWal(dir).ok());
    for (uint64_t i = 1; i <= 6; ++i) {
      ASSERT_TRUE(ApplyWalCommit(server, i).ok());
    }
  }
  std::vector<std::string> segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 1u);
  // Flip a byte inside the FIRST frame's payload; five valid frames
  // follow, so this is not a torn tail — recovery must refuse.
  PatchByte(segments[0], 16 + 16 + 4, 0x01);
  auto recovered = DirectoryServer::Recover(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(recovered.status().message().find("corrupt WAL segment"),
            std::string::npos)
      << recovered.status();
  EXPECT_NE(recovered.status().message().find("CRC32C mismatch"),
            std::string::npos)
      << recovered.status();
  EXPECT_NE(recovered.status().message().find(segments[0]),
            std::string::npos)
      << recovered.status();
}

TEST(WalTest, EnableWalRefusesAUsedDirectory) {
  std::string dir = FreshDir("reuse");
  {
    DirectoryServer server = NewServer();
    ASSERT_TRUE(server.EnableWal(dir).ok());
    ASSERT_TRUE(ApplyWalCommit(server, 1).ok());
  }
  DirectoryServer other = NewServer();
  Status status = other.EnableWal(dir);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("Recover"), std::string::npos);
}

TEST(WalTest, EnableWalOnPopulatedServerWritesInitialSnapshot) {
  std::string dir = FreshDir("seeded");
  DirectoryServer server = NewServer();
  ASSERT_TRUE(ApplyWalCommit(server, 1).ok());  // pre-WAL state
  ASSERT_TRUE(server.EnableWal(dir).ok());
  ASSERT_TRUE(ApplyWalCommit(server, 2).ok());  // logged commit

  WalRecoveryReport report;
  auto recovered = DirectoryServer::Recover(dir, WalOptions{}, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_GT(report.snapshot_entries, 0u);
  EXPECT_EQ(report.frames_replayed, 1u);
  EXPECT_EQ(recovered->ExportLdif(), *ExpectedLdifAfter(2));
}

TEST(WalTest, ImportLdifIsMadeDurableViaSnapshot) {
  std::string dir = FreshDir("import");
  std::string seed;
  {
    DirectoryServer staging = NewServer();
    for (uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(ApplyWalCommit(staging, i).ok());
    }
    seed = staging.ExportLdif();
  }
  DirectoryServer server = NewServer();
  ASSERT_TRUE(server.EnableWal(dir).ok());
  ASSERT_TRUE(server.ImportLdif(seed).ok());
  auto recovered = DirectoryServer::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->ExportLdif(), seed);
}

TEST(WalTest, RecoverWithoutSchemaFails) {
  std::string dir = FreshDir("no-schema");
  fs::create_directories(dir);
  auto recovered = DirectoryServer::Recover(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

TEST(WalTest, ChangelogAndWalCoexist) {
  std::string dir = FreshDir("both");
  DirectoryServer server = NewServer();
  server.EnableChangelog();
  ASSERT_TRUE(server.EnableWal(dir).ok());
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(ApplyWalCommit(server, i).ok());
  }
  ASSERT_NE(server.changelog(), nullptr);
  EXPECT_GT(server.changelog()->records().size(), 0u);
  auto recovered = DirectoryServer::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->ExportLdif(), server.ExportLdif());
}

TEST(WalTest, InjectedWalFailureMakesTheServerReadOnly) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  Failpoints::Reset();
  std::string dir = FreshDir("read-only");
  DirectoryServer server = NewServer();
  ASSERT_TRUE(server.EnableWal(dir).ok());
  ASSERT_TRUE(ApplyWalCommit(server, 1).ok());

  Failpoints::Arm("wal.fsync", Failpoints::Action::kError, 1);
  Status failed = ApplyWalCommit(server, 2);
  Failpoints::Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("read-only"), std::string::npos) << failed;
  EXPECT_TRUE(server.wal_failed());

  // Mutations are refused; reads still serve.
  Status refused = ApplyWalCommit(server, 3);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(server.Search("", "(objectClass=person)").ok());

  // The durable state is a prefix of the commit stream. Commit 2's frame
  // hit the disk before the injected fsync failure, so it may legitimately
  // be recovered — it just was never acknowledged.
  auto recovered = DirectoryServer::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  std::string durable = recovered->ExportLdif();
  EXPECT_TRUE(durable == *ExpectedLdifAfter(1) ||
              durable == *ExpectedLdifAfter(2));
  EXPECT_TRUE(recovered->IsLegal());
}

TEST(WalTest, ErrorInjectionAtEveryWalSiteLeavesARecoverablePrefix) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  for (const char* site :
       {"server.commit", "wal.write", "wal.fsync", "wal.rotate"}) {
    Failpoints::Reset();
    std::string dir = FreshDir(std::string("err-") + site);
    DirectoryServer server = NewServer();
    WalOptions options;
    options.segment_bytes = 256;  // make rotation reachable
    ASSERT_TRUE(server.EnableWal(dir, options).ok());
    Failpoints::Arm(site, Failpoints::Action::kError, 3);
    uint64_t acknowledged = 0;
    for (uint64_t i = 1; i <= 8; ++i) {
      if (ApplyWalCommit(server, i).ok()) {
        acknowledged = i;
      } else {
        break;  // server is read-only from here
      }
    }
    Failpoints::Reset();
    ASSERT_LT(acknowledged, 8u) << site << " never fired";
    auto recovered = DirectoryServer::Recover(dir);
    ASSERT_TRUE(recovered.ok()) << site << ": " << recovered.status();
    EXPECT_TRUE(recovered->IsLegal()) << site;
    // Every acknowledged commit survived; the failed one may or may not
    // have reached the disk (it was never acknowledged), so the durable
    // state is `acknowledged` or `acknowledged + 1` commits.
    std::string durable = recovered->ExportLdif();
    bool prefix_ok = durable == *ExpectedLdifAfter(acknowledged) ||
                     durable == *ExpectedLdifAfter(acknowledged + 1);
    EXPECT_TRUE(prefix_ok) << site << ": recovered state is not a prefix";
  }
}

}  // namespace
}  // namespace ldapbound
