#ifndef LDAPBOUND_SERVER_WAL_H_
#define LDAPBOUND_SERVER_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace ldapbound {

/// Durable write-ahead changelog.
///
/// The DirectoryServer invariant — every externally visible state is a
/// legal instance — is only worth anything if "visible" survives a crash:
/// a committed-and-acknowledged transaction that evaporates with the
/// process is the one failure the rollback discipline cannot see. The WAL
/// closes that gap: each committed mutation group is serialized as an LDIF
/// change record (the Changelog payload format) into a length-prefixed,
/// CRC32C-framed record, appended to a segment file and fsync'd *before*
/// the commit is acknowledged.
///
/// On-disk layout of a WAL directory:
///
///   schema.lbs               canonical bounding-schema text
///   wal-<seq16>.log          segment files; <seq16> = first commit
///                            sequence the segment holds, 16 hex digits
///   snap-<seq16>.ldif        point-in-time snapshot covering commits
///                            1..<seq16> (log-truncation compaction)
///   *.tmp                    in-flight snapshot writes; ignored and
///                            garbage-collected
///
/// Segment format: a 16-byte header (8-byte magic "LDBWAL1\n" + u64 LE
/// first sequence), then frames of
///
///   u32 LE payload length | u64 LE commit sequence | u32 LE masked CRC32C
///   | payload bytes
///
/// where the CRC covers the 12 leading header bytes plus the payload and
/// is stored masked (util/crc32c.h) so checksummed frames embedding CRCs
/// stay well-conditioned.
///
/// Recovery rule (implemented by ReplayWal): frames are replayed in
/// sequence order; a frame that extends past end-of-file, or whose CRC
/// fails *and* which is the final frame of the final segment, is a torn
/// tail — the segment is truncated back to the last valid frame and
/// recovery succeeds (the lost frame was never acknowledged). A CRC
/// mismatch or sequence gap anywhere else is mid-log corruption and
/// recovery fails with a diagnostic naming the segment, byte offset and
/// reason.
struct WalOptions {
  /// Rotate to a fresh segment once the current one exceeds this size.
  size_t segment_bytes = 1 << 20;

  /// fsync each appended frame before the commit is acknowledged. Turning
  /// this off trades the durability guarantee for commit latency (the
  /// bench_wal axis); recovery still works up to whatever the OS flushed.
  bool sync = true;

  /// Group commit: batch up to this many concurrently submitted commits
  /// into one frame group made durable by a single fsync (leader/follower
  /// handoff in DirectoryServer's commit queue, which every WAL commit
  /// goes through). Every commit is still acknowledged only after *its*
  /// group's fsync, so the durability contract is unchanged — the fsync
  /// cost is amortized over the batch. At 1 (or 0) every group is one
  /// commit with its own fsync, and the leader never holds it open.
  size_t group_commit_max_batch = 1;

  /// How long a group-commit leader holds the batch open waiting for
  /// followers to arrive, in microseconds, once at least one commit is
  /// pending. 0 flushes immediately (batching still happens when commits
  /// are already queued).
  uint32_t group_commit_hold_us = 200;
};

/// Receives a snapshot's text in consecutive chunks; a non-OK return
/// stops the writer.
using SnapshotSink = std::function<Status(std::string_view chunk)>;

/// Writes a whole snapshot into `sink` (e.g. a bound WriteLdif), returning
/// the first non-OK status the sink returned.
using SnapshotWriter = std::function<Status(const SnapshotSink& sink)>;

/// What recovery found; filled by DirectoryServer::Recover.
struct WalRecoveryReport {
  uint64_t snapshot_seq = 0;      ///< commits covered by the loaded snapshot
  size_t snapshot_entries = 0;    ///< entries bulk-loaded from it
  size_t segments_scanned = 0;
  size_t frames_replayed = 0;
  uint64_t last_seq = 0;          ///< last commit in the recovered state
  bool torn_tail_truncated = false;
  std::string torn_tail_segment;  ///< segment that was truncated
  uint64_t torn_tail_offset = 0;  ///< new size of that segment
};

/// One segment file, named by the first commit sequence it holds.
struct WalSegment {
  std::string path;
  uint64_t first_seq = 0;
};

/// A scan of a WAL directory (no file contents except the schema).
struct WalDirListing {
  std::string dir;
  std::string schema_text;  ///< empty when schema.lbs is absent
  /// Newest snapshot (path, covered sequence), if any.
  std::optional<std::pair<std::string, uint64_t>> snapshot;
  std::vector<WalSegment> segments;  ///< sorted by first_seq
};

/// Scans `dir`. A missing directory yields an empty listing (not an
/// error); malformed file names are ignored.
Result<WalDirListing> ListWalDir(const std::string& dir);

/// Replays every frame with sequence > `after_seq` from the listed
/// segments, calling `apply(seq, payload)` in sequence order. Enforces the
/// recovery rule documented above: torn tails of the final segment are
/// truncated in place (and recorded in `report`); mid-log corruption and
/// sequence gaps fail with a precise diagnostic. `report` must not be
/// null.
Status ReplayWal(const WalDirListing& listing, uint64_t after_seq,
                 const std::function<Status(uint64_t, std::string_view)>& apply,
                 WalRecoveryReport* report);

/// The append side. Owned by a DirectoryServer; one writer per directory
/// (the server's single-writer contract extends to its WAL).
///
/// Failpoints wired through this class (util/failpoint.h):
///   "wal.write"            before appending a frame's bytes
///   "wal.write.enospc"     same site, but injects the ENOSPC (disk-full)
///                          status the real out-of-space write would produce
///   "wal.fsync"            before the durability fsync of a frame
///   "wal.fsync.enospc"     disk-full variant of the fsync site
///   "wal.rotate"           before a segment rotation creates the next file
///   "wal.rename"           before a snapshot's tmp-file is renamed into place
///   "wal.resync.snapshot"  before a post-failure resync writes its snapshot
///   "wal.resync.enospc"    disk-full variant of the resync site (the probe
///                          retries while the disk stays full)
class WriteAheadLog {
 public:
  static constexpr char kSchemaFileName[] = "schema.lbs";

  /// Opens `dir` for appending, creating it (and a first segment) when
  /// new. `next_seq` is the sequence number the next appended frame will
  /// carry — 1 for a fresh log, `report.last_seq + 1` after recovery.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& dir,
                                                     const WalOptions& options,
                                                     uint64_t next_seq);

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends `payloads` as consecutive frames (one commit sequence each)
  /// with a single write and (per options.sync) a single fsync — the
  /// group-commit primitive and the only append. On OK every commit in the
  /// group may be acknowledged; on error none may (the durable prefix ends
  /// somewhere inside the group, and none of its frames were
  /// acknowledged). Rotation is checked once, before the group, so a group
  /// may overshoot segment_bytes (the threshold is soft).
  Status AppendGroup(const std::vector<std::string_view>& payloads);

  /// Sequence the next appended frame will carry. Safe to read from any
  /// thread while a group-commit leader appends (e.g. /statusz).
  uint64_t next_seq() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  /// Last sequence made durable (0 when none).
  uint64_t last_sequence() const { return next_seq() - 1; }
  const std::string& dir() const { return dir_; }
  const WalOptions& options() const { return options_; }

  /// Log-truncation compaction: streams the LDIF `write_snapshot` writes
  /// into a point-in-time snapshot covering every appended commit (tmp
  /// file + fsync + rename + directory fsync), rotates to a fresh
  /// segment, then deletes the segments and snapshots the new snapshot
  /// supersedes. The text goes to the file chunk by chunk, never whole
  /// into memory. Crash-safe at every step: an unrenamed .tmp is ignored
  /// by recovery, and stale segments left by a crash after the rename are
  /// skipped (their frames are ≤ the snapshot sequence).
  Status Compact(const SnapshotWriter& write_snapshot);

  /// Post-failure resync (the recovery probe of DESIGN.md §11): after a
  /// failed AppendGroup the in-memory directory is ahead of the
  /// durable log, and the current segment fd may be poisoned (a failed
  /// fsync makes the kernel's page-cache state untrustworthy). This
  /// streams what `write_snapshot` writes — the *current in-memory
  /// state*, which supersedes everything the log holds including any torn
  /// frames of the failed group — into a durable snapshot, opens a fresh
  /// segment on a fresh fd, and garbage-collects the old segments. Unlike
  /// Compact it never fsyncs the old segment. On OK the log is writable
  /// again and durable state == in-memory state; on error (e.g. the disk
  /// is still full) the log stays failed and the probe retries with
  /// backoff.
  Status ResyncFromSnapshot(const SnapshotWriter& write_snapshot);

  static std::string SegmentFileName(uint64_t first_seq);
  static std::string SnapshotFileName(uint64_t through_seq);

 private:
  WriteAheadLog(std::string dir, const WalOptions& options, uint64_t next_seq)
      : dir_(std::move(dir)), options_(options), next_seq_(next_seq) {}

  Status OpenSegment(uint64_t first_seq, bool create);
  Status RotateIfNeeded();
  Status SyncSegment();
  Status DeleteObsolete(uint64_t snapshot_seq);

  std::string dir_;
  WalOptions options_;
  /// Written by one appender at a time; atomic so monitors may read it.
  std::atomic<uint64_t> next_seq_{1};
  int fd_ = -1;
  std::string segment_path_;
  uint64_t segment_first_seq_ = 0;
  size_t segment_bytes_ = 0;  ///< current segment size including header
};

/// Durably writes `text` to `path` via tmp file + fsync + rename +
/// directory fsync. Shared by the schema file and snapshot writers.
Status AtomicWriteFile(const std::string& path, std::string_view text);

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_WAL_H_
