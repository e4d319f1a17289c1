#include "server/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace ldapbound {

namespace {

namespace fs = std::filesystem;

// Process-wide WAL observability (ldapbound_wal_* families). Updated once
// per append/fsync/compaction — the dominant cost at every site is the
// disk I/O being metered.
struct WalMetrics {
  Histogram& append_ns;   ///< one AppendGroup: frames + write (+ fsync)
  Histogram& fsync_ns;    ///< one segment fsync
  Histogram& compact_ns;  ///< one Compact: snapshot + rotate + GC
  Counter& frames_appended;
  Counter& appended_bytes;  ///< frame bytes (header + payload)
  Counter& rotations;       ///< size-triggered segment rotations
  Counter& segments_created;
  Counter& compactions;
  Counter& snapshot_bytes;  ///< LDIF bytes written by compactions
  Counter& disk_full;       ///< appends/fsyncs/snapshots failed with ENOSPC
  Counter& resyncs;         ///< post-failure snapshot resyncs completed
};

WalMetrics& GetWalMetrics() {
  MetricRegistry& r = MetricRegistry::Default();
  static WalMetrics* metrics = new WalMetrics{
      r.GetHistogram("ldapbound_wal_append_ns",
                     "Wall nanoseconds of one WAL append "
                     "(including fsync when sync mode is on)"),
      r.GetHistogram("ldapbound_wal_fsync_ns",
                     "Wall nanoseconds of one WAL segment fsync"),
      r.GetHistogram("ldapbound_wal_compact_ns",
                     "Wall nanoseconds of one WAL compaction"),
      r.GetCounter("ldapbound_wal_frames_appended_total",
                   "Frames durably appended to the WAL"),
      r.GetCounter("ldapbound_wal_appended_bytes_total",
                   "Frame bytes (headers + payloads) appended to the WAL"),
      r.GetCounter("ldapbound_wal_rotations_total",
                   "Segment rotations triggered by the size threshold"),
      r.GetCounter("ldapbound_wal_segments_created_total",
                   "WAL segment files created"),
      r.GetCounter("ldapbound_wal_compactions_total",
                   "Snapshot compactions completed"),
      r.GetCounter("ldapbound_wal_snapshot_bytes_total",
                   "Snapshot LDIF bytes written by compactions"),
      r.GetCounter("ldapbound_wal_disk_full_total",
                   "WAL writes that failed with ENOSPC (disk full)"),
      r.GetCounter("ldapbound_wal_resyncs_total",
                   "Post-failure snapshot resyncs (ResyncFromSnapshot)"),
  };
  return *metrics;
}

constexpr char kSegmentMagic[8] = {'L', 'D', 'B', 'W', 'A', 'L', '1', '\n'};
constexpr size_t kSegmentHeaderSize = 16;  // magic + u64 first sequence
constexpr size_t kFrameHeaderSize = 16;    // u32 len + u64 seq + u32 crc

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

/// Disk exhaustion is an operator-actionable condition distinct from an
/// I/O fault (free space vs replace-the-disk), so it gets its own status
/// code, message and counter; the health manager degrades with a
/// disk-full reason the monitor endpoint surfaces.
Status DiskFull(const std::string& what) {
  GetWalMetrics().disk_full.Increment();
  return Status::DiskFull(what + ": disk full (ENOSPC)");
}

Status Errno(const std::string& what) {
  if (errno == ENOSPC) return DiskFull(what);
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Failpoint probe usable in non-returning position (AppendGroup must
/// retire the group's sequences before propagating an injected error);
/// compiles to nothing when failpoints are off, like the macro.
Status HitFailpoint(const char* site) {
#ifdef LDAPBOUND_FAILPOINTS_ENABLED
  return Failpoints::Hit(site);
#else
  (void)site;
  return Status::OK();
#endif
}

Status WriteFully(int fd, std::string_view data) {
  const char* p = data.data();
  size_t remaining = data.size();
  while (remaining > 0) {
    ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("wal write");
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open directory '" + dir + "'");
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync directory '" + dir + "'");
  return Status::OK();
}

/// Creates `path`, streams `write`'s chunks into it and fsyncs it.
/// Returns the bytes written.
Result<uint64_t> WriteFileAndSync(const std::string& path,
                                  const SnapshotWriter& write) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return Errno("create '" + path + "'");
  uint64_t bytes = 0;
  Status status = write([fd, &bytes](std::string_view chunk) {
    bytes += chunk.size();
    return WriteFully(fd, chunk);
  });
  if (status.ok() && ::fsync(fd) != 0) status = Errno("fsync '" + path + "'");
  ::close(fd);
  if (!status.ok()) return status;
  return bytes;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses exactly 16 lowercase hex digits; returns false on anything else.
bool ParseHex16(std::string_view digits, uint64_t* out) {
  if (digits.size() != 16) return false;
  uint64_t v = 0;
  for (char c : digits) {
    uint32_t nibble;
    if (c >= '0' && c <= '9') nibble = static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') nibble = static_cast<uint32_t>(c - 'a' + 10);
    else return false;
    v = (v << 4) | nibble;
  }
  *out = v;
  return true;
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Hex8(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

}  // namespace

std::string WriteAheadLog::SegmentFileName(uint64_t first_seq) {
  return "wal-" + Hex16(first_seq) + ".log";
}

std::string WriteAheadLog::SnapshotFileName(uint64_t through_seq) {
  return "snap-" + Hex16(through_seq) + ".ldif";
}

Result<WalDirListing> ListWalDir(const std::string& dir) {
  WalDirListing listing;
  listing.dir = dir;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return listing;
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument("'" + dir + "' is not a directory");
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name == WriteAheadLog::kSchemaFileName) {
      LDAPBOUND_ASSIGN_OR_RETURN(listing.schema_text,
                                 ReadFileBytes(entry.path().string()));
      continue;
    }
    uint64_t seq = 0;
    if (StartsWith(name, "wal-") && name.size() == 4 + 16 + 4 &&
        name.substr(20) == ".log" && ParseHex16(name.substr(4, 16), &seq)) {
      listing.segments.push_back({entry.path().string(), seq});
      continue;
    }
    if (StartsWith(name, "snap-") && name.size() == 5 + 16 + 5 &&
        name.substr(21) == ".ldif" && ParseHex16(name.substr(5, 16), &seq)) {
      if (!listing.snapshot.has_value() || seq > listing.snapshot->second) {
        listing.snapshot = {entry.path().string(), seq};
      }
      continue;
    }
    // .tmp leftovers and foreign files: ignored (compaction collects tmps).
  }
  if (ec) return Status::Internal("scanning '" + dir + "': " + ec.message());
  std::sort(listing.segments.begin(), listing.segments.end(),
            [](const WalSegment& a, const WalSegment& b) {
              return a.first_seq < b.first_seq;
            });
  return listing;
}

Status ReplayWal(const WalDirListing& listing, uint64_t after_seq,
                 const std::function<Status(uint64_t, std::string_view)>& apply,
                 WalRecoveryReport* report) {
  report->last_seq = std::max(report->last_seq, after_seq);
  uint64_t expected_next = after_seq + 1;
  for (size_t i = 0; i < listing.segments.size(); ++i) {
    const WalSegment& segment = listing.segments[i];
    const bool is_last = (i + 1 == listing.segments.size());
    // A segment wholly covered by the snapshot (every frame ≤ after_seq,
    // known from the next segment's first sequence) is stale — skip it;
    // the next compaction garbage-collects it.
    if (!is_last && listing.segments[i + 1].first_seq <= after_seq + 1) {
      continue;
    }
    ++report->segments_scanned;

    LDAPBOUND_ASSIGN_OR_RETURN(std::string data,
                               ReadFileBytes(segment.path));
    const size_t size = data.size();

    auto corrupt = [&](size_t offset, const std::string& why) {
      return Status::InvalidArgument(
          "corrupt WAL segment '" + segment.path + "' at offset " +
          std::to_string(offset) + ": " + why +
          " (mid-log corruption; refusing to recover past it)");
    };
    auto torn = [&](size_t offset) -> Status {
      // Torn tail: the bytes past `offset` are an interrupted append of a
      // frame that was never acknowledged. Truncate back to the last
      // valid frame and recover successfully.
      if (::truncate(segment.path.c_str(),
                     static_cast<off_t>(offset)) != 0) {
        return Errno("truncate torn tail of '" + segment.path + "'");
      }
      report->torn_tail_truncated = true;
      report->torn_tail_segment = segment.path;
      report->torn_tail_offset = offset;
      return Status::OK();
    };

    if (size < kSegmentHeaderSize) {
      // An interrupted rotation can leave the final segment without a
      // complete header; it holds no frames.
      if (is_last) return torn(0);
      return corrupt(0, "segment header truncated");
    }
    if (std::memcmp(data.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
      return corrupt(0, "bad segment magic");
    }
    uint64_t header_seq = GetU64(data.data() + 8);
    if (header_seq != segment.first_seq) {
      return corrupt(8, "header first-sequence " + std::to_string(header_seq) +
                            " does not match file name sequence " +
                            std::to_string(segment.first_seq));
    }

    size_t offset = kSegmentHeaderSize;
    while (offset < size) {
      if (size - offset < kFrameHeaderSize) {
        if (is_last) return torn(offset);
        return corrupt(offset, "frame header truncated");
      }
      const char* frame = data.data() + offset;
      uint32_t length = GetU32(frame);
      uint64_t seq = GetU64(frame + 4);
      uint32_t stored_crc = GetU32(frame + 12);
      if (offset + kFrameHeaderSize + length > size ||
          offset + kFrameHeaderSize + length < offset) {
        // The frame (or a garbage length field) extends past end-of-file:
        // an interrupted append.
        if (is_last) return torn(offset);
        return corrupt(offset, "frame payload truncated");
      }
      std::string_view payload(frame + kFrameHeaderSize, length);
      uint32_t actual = Crc32c(std::string_view(frame, 12));
      actual = Crc32cExtend(actual, payload);
      if (Crc32cUnmask(stored_crc) != actual) {
        const bool final_frame = (offset + kFrameHeaderSize + length == size);
        if (is_last && final_frame) return torn(offset);
        return corrupt(offset, "CRC32C mismatch on frame seq " +
                                   std::to_string(seq) + " (stored 0x" +
                                   Hex8(Crc32cUnmask(stored_crc)) +
                                   ", computed 0x" + Hex8(actual) + ")");
      }
      if (seq > after_seq) {
        if (seq != expected_next) {
          return corrupt(offset, "sequence gap: expected commit " +
                                     std::to_string(expected_next) +
                                     ", found " + std::to_string(seq));
        }
        LDAPBOUND_RETURN_IF_ERROR(apply(seq, payload));
        ++expected_next;
        ++report->frames_replayed;
        report->last_seq = seq;
      }
      offset += kFrameHeaderSize + length;
    }
  }
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, std::string_view text) {
  std::string tmp = path + ".tmp";
  LDAPBOUND_RETURN_IF_ERROR(
      WriteFileAndSync(tmp, [text](const SnapshotSink& sink) {
        return sink(text);
      }).status());
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename '" + tmp + "' to '" + path + "'");
  }
  return SyncDirectory(fs::path(path).parent_path().string());
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& dir, const WalOptions& options, uint64_t next_seq) {
  if (next_seq == 0) {
    return Status::InvalidArgument("WAL sequences are 1-based");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("create WAL directory '" + dir +
                            "': " + ec.message());
  }
  LDAPBOUND_ASSIGN_OR_RETURN(WalDirListing listing, ListWalDir(dir));
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(dir, options, next_seq));
  if (listing.segments.empty()) {
    LDAPBOUND_RETURN_IF_ERROR(wal->OpenSegment(next_seq, /*create=*/true));
    LDAPBOUND_RETURN_IF_ERROR(SyncDirectory(dir));
    return wal;
  }
  const WalSegment& last = listing.segments.back();
  if (last.first_seq > next_seq) {
    return Status::Internal("WAL segment '" + last.path +
                            "' starts at sequence " +
                            std::to_string(last.first_seq) +
                            ", after the next sequence " +
                            std::to_string(next_seq));
  }
  uint64_t file_size = fs::file_size(last.path, ec);
  if (ec) return Status::Internal("stat '" + last.path + "': " + ec.message());
  if (file_size < kSegmentHeaderSize) {
    // Recovery truncated an interrupted rotation back to nothing; the
    // segment can only be reused if it would start at the next sequence.
    if (last.first_seq != next_seq) {
      return Status::Internal("headerless WAL segment '" + last.path +
                              "' does not start at the next sequence");
    }
    LDAPBOUND_RETURN_IF_ERROR(wal->OpenSegment(next_seq, /*create=*/true));
    LDAPBOUND_RETURN_IF_ERROR(SyncDirectory(dir));
    return wal;
  }
  LDAPBOUND_RETURN_IF_ERROR(
      wal->OpenSegment(last.first_seq, /*create=*/false));
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

Status WriteAheadLog::OpenSegment(uint64_t first_seq, bool create) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  segment_path_ = dir_ + "/" + SegmentFileName(first_seq);
  int flags = create ? (O_CREAT | O_TRUNC | O_WRONLY)
                     : (O_WRONLY | O_APPEND);
  fd_ = ::open(segment_path_.c_str(), flags, 0644);
  if (fd_ < 0) return Errno("open WAL segment '" + segment_path_ + "'");
  segment_first_seq_ = first_seq;
  if (create) {
    GetWalMetrics().segments_created.Increment();
    std::string header(kSegmentMagic, sizeof(kSegmentMagic));
    PutU64(header, first_seq);
    Status status = WriteFully(fd_, header);
    if (status.ok() && ::fsync(fd_) != 0) {
      status = Errno("fsync '" + segment_path_ + "'");
    }
    if (!status.ok()) return status;
    segment_bytes_ = kSegmentHeaderSize;
  } else {
    off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) return Errno("lseek '" + segment_path_ + "'");
    segment_bytes_ = static_cast<size_t>(end);
  }
  return Status::OK();
}

Status WriteAheadLog::SyncSegment() {
  if (fd_ < 0) return Status::Internal("WAL segment not open");
  LDAPBOUND_TRACE_SPAN("wal.fsync");
  LatencyTimer timer(GetWalMetrics().fsync_ns);
  if (::fsync(fd_) != 0) return Errno("fsync '" + segment_path_ + "'");
  return Status::OK();
}

Status WriteAheadLog::RotateIfNeeded() {
  if (segment_bytes_ <= kSegmentHeaderSize ||
      segment_bytes_ < options_.segment_bytes) {
    return Status::OK();
  }
  // The filled segment must be durable before the next one becomes
  // visible, or a crash could lose acknowledged frames that only lived in
  // the page cache while later frames survived.
  LDAPBOUND_RETURN_IF_ERROR(SyncSegment());
  LDAPBOUND_FAILPOINT("wal.rotate");
  LDAPBOUND_RETURN_IF_ERROR(OpenSegment(next_seq_, /*create=*/true));
  GetWalMetrics().rotations.Increment();
  return SyncDirectory(dir_);
}

Status WriteAheadLog::AppendGroup(
    const std::vector<std::string_view>& payloads) {
  if (payloads.empty()) return Status::OK();
  LDAPBOUND_TRACE_SPAN("wal.append");
  LatencyTimer timer(GetWalMetrics().append_ns);
  LDAPBOUND_RETURN_IF_ERROR(RotateIfNeeded());
  std::string frames;
  size_t total = 0;
  for (std::string_view payload : payloads) {
    total += kFrameHeaderSize + payload.size();
  }
  frames.reserve(total);
  uint64_t seq = next_seq_;
  for (std::string_view payload : payloads) {
    const size_t base = frames.size();
    PutU32(frames, static_cast<uint32_t>(payload.size()));
    PutU64(frames, seq);
    // The CRC covers the 12 length+sequence bytes plus the payload.
    uint32_t crc = Crc32c(std::string_view(frames.data() + base, 12));
    crc = Crc32cExtend(crc, payload);
    PutU32(frames, Crc32cMask(crc));
    frames.append(payload);
    ++seq;
  }
  // From here on the group's sequence numbers are consumed even on
  // failure (see the retire lambda): a failed write or fsync may have
  // left any prefix of the frames durable, so those sequences can never
  // be reused — a later resync stamps its snapshot past them, and any
  // torn frame they labeled is skipped by recovery as ≤ the snapshot.
  auto retire = [&](Status status) {
    next_seq_ = seq;
    return status;
  };
  Status injected = HitFailpoint("wal.write");
  if (!injected.ok()) return retire(injected);
  injected = HitFailpoint("wal.write.enospc");
  if (!injected.ok()) return retire(DiskFull("wal write '" + segment_path_ + "'"));
  Status written = WriteFully(fd_, frames);
  if (!written.ok()) return retire(written);
  segment_bytes_ += frames.size();
  if (options_.sync) {
    injected = HitFailpoint("wal.fsync");
    if (!injected.ok()) return retire(injected);
    injected = HitFailpoint("wal.fsync.enospc");
    if (!injected.ok()) {
      return retire(DiskFull("fsync '" + segment_path_ + "'"));
    }
    Status synced = SyncSegment();
    if (!synced.ok()) return retire(synced);
  }
  next_seq_ = seq;
  WalMetrics& metrics = GetWalMetrics();
  metrics.frames_appended.Increment(payloads.size());
  metrics.appended_bytes.Increment(frames.size());
  return Status::OK();
}

Status WriteAheadLog::Compact(const SnapshotWriter& write_snapshot) {
  LDAPBOUND_TRACE_SPAN("wal.compact");
  LatencyTimer timer(GetWalMetrics().compact_ns);
  const uint64_t through = next_seq_ - 1;
  LDAPBOUND_RETURN_IF_ERROR(SyncSegment());
  const std::string final_path = dir_ + "/" + SnapshotFileName(through);
  const std::string tmp_path = final_path + ".tmp";
  LDAPBOUND_ASSIGN_OR_RETURN(const uint64_t bytes,
                             WriteFileAndSync(tmp_path, write_snapshot));
  LDAPBOUND_FAILPOINT("wal.rename");
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Errno("rename snapshot '" + tmp_path + "'");
  }
  LDAPBOUND_RETURN_IF_ERROR(SyncDirectory(dir_));
  // Start a fresh segment (unless the active one is still empty) so every
  // older segment is wholly ≤ `through` and deletable.
  if (segment_bytes_ > kSegmentHeaderSize) {
    LDAPBOUND_RETURN_IF_ERROR(OpenSegment(next_seq_, /*create=*/true));
  }
  LDAPBOUND_RETURN_IF_ERROR(DeleteObsolete(through));
  WalMetrics& metrics = GetWalMetrics();
  metrics.compactions.Increment();
  metrics.snapshot_bytes.Increment(bytes);
  return SyncDirectory(dir_);
}

Status WriteAheadLog::ResyncFromSnapshot(
    const SnapshotWriter& write_snapshot) {
  LDAPBOUND_TRACE_SPAN("wal.resync");
  // Drop the old segment fd without fsync: its durable content up to the
  // last acknowledged group is already on disk (fsync-before-ack), and
  // everything after — including torn frames of the failed group — is
  // superseded by the snapshot below, whose sequence covers the retired
  // group (AppendGroup consumed those sequences on failure).
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const uint64_t through = next_seq_ - 1;
  const std::string final_path = dir_ + "/" + SnapshotFileName(through);
  const std::string tmp_path = final_path + ".tmp";
  LDAPBOUND_FAILPOINT("wal.resync.snapshot");
  LDAPBOUND_FAILPOINT_AS("wal.resync.enospc",
                         DiskFull("resync snapshot '" + tmp_path + "'"));
  LDAPBOUND_ASSIGN_OR_RETURN(const uint64_t bytes,
                             WriteFileAndSync(tmp_path, write_snapshot));
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Errno("rename snapshot '" + tmp_path + "'");
  }
  LDAPBOUND_RETURN_IF_ERROR(SyncDirectory(dir_));
  LDAPBOUND_RETURN_IF_ERROR(OpenSegment(next_seq_, /*create=*/true));
  LDAPBOUND_RETURN_IF_ERROR(DeleteObsolete(through));
  WalMetrics& metrics = GetWalMetrics();
  metrics.resyncs.Increment();
  metrics.snapshot_bytes.Increment(bytes);
  return SyncDirectory(dir_);
}

Status WriteAheadLog::DeleteObsolete(uint64_t snapshot_seq) {
  LDAPBOUND_ASSIGN_OR_RETURN(WalDirListing listing, ListWalDir(dir_));
  std::error_code ec;
  for (const WalSegment& segment : listing.segments) {
    if (segment.first_seq < segment_first_seq_ &&
        segment.path != segment_path_) {
      fs::remove(segment.path, ec);
    }
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      std::error_code ignore;
      fs::remove(entry.path(), ignore);
      continue;
    }
    uint64_t seq = 0;
    if (StartsWith(name, "snap-") && name.size() == 5 + 16 + 5 &&
        name.substr(21) == ".ldif" && ParseHex16(name.substr(5, 16), &seq) &&
        seq < snapshot_seq) {
      std::error_code ignore;
      fs::remove(entry.path(), ignore);
    }
  }
  return Status::OK();
}

}  // namespace ldapbound
