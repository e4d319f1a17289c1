#ifndef LDAPBOUND_SERVER_GROUP_COMMIT_H_
#define LDAPBOUND_SERVER_GROUP_COMMIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "util/deadline.h"
#include "util/result.h"

namespace ldapbound {

class WriteAheadLog;

/// The commit queue behind WAL group commit: batches concurrently
/// submitted transactions into one frame group made durable by a single
/// fsync (WriteAheadLog::AppendGroup), using leader/follower handoff —
/// the first committer whose group is open becomes the leader, holds the
/// batch open for up to `group_commit_hold_us` (or until
/// `group_commit_max_batch` commits are pending), flushes the whole group
/// with one fsync, wakes its followers, and hands leadership to the next
/// queued committer.
///
/// Durability contract: a transaction is acknowledged (its Wait returns
/// OK) only after the fsync of *its* group — exactly the
/// fsync-before-ack rule of §7, with the cost amortized over the batch.
/// Frames are appended in queue order, which the server makes equal to
/// in-memory commit order by enqueueing under its write mutex, so the
/// recovered prefix is always a prefix of the acknowledged history.
///
/// Threading: Enqueue must be called with the server's write mutex held
/// (it never blocks); Wait must be called after that mutex is released
/// (it blocks on the group fsync, letting other writers pipeline their
/// in-memory commits behind it). Drain is called with the write mutex
/// held, so no new commits can arrive while it waits.
class GroupCommitQueue {
 public:
  /// One queued commit. Opaque to callers; owned by the queue between
  /// Enqueue and Wait.
  struct Ticket;

  /// `wal` must outlive the queue, which batches per the log's options:
  /// up to group_commit_max_batch commits per group (at least 1), held
  /// open up to group_commit_hold_us (0 flushes immediately, batching only
  /// what is already queued).
  explicit GroupCommitQueue(WriteAheadLog* wal);
  ~GroupCommitQueue();

  GroupCommitQueue(const GroupCommitQueue&) = delete;
  GroupCommitQueue& operator=(const GroupCommitQueue&) = delete;

  /// Claims the next commit slot (queue order = acknowledgement order).
  /// Called with the server's write mutex held; never blocks. The deadline
  /// does NOT cancel the commit once enqueued (it is already applied in
  /// memory — see util/deadline.h); it only clamps how long a leader may
  /// hold the group open waiting for followers, so a commit near its
  /// budget is not taxed the full batching window.
  Ticket* Enqueue(std::string payload, Deadline deadline = Deadline());

  /// Blocks until the ticket's group is durable and returns the group's
  /// append status; consumes the ticket. Called after the write mutex is
  /// released.
  Status Wait(Ticket* ticket);

  /// Waits until every enqueued commit has been flushed. Called with the
  /// write mutex held (compaction and bulk import must not snapshot while
  /// frames are still queued, or recovery would apply them twice).
  void Drain();

  size_t max_batch() const { return max_batch_; }
  uint32_t hold_us() const { return hold_us_; }

  /// Commits currently waiting (enqueued, group not yet flushed). Lock-
  /// free: read by the admission controller on every write, before the
  /// write mutex is taken, so a bounded queue rejects instead of queueing.
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }

  /// True once a group flush has failed. A failed flush may have left a
  /// torn prefix of its frames in the log; appending *later* groups would
  /// make the durable log skip the failed commits while containing ones
  /// that depend on them, so every subsequent flush fails fast (with the
  /// poisoning status) without touching the WAL. Cleared only by
  /// ResetAfterResync.
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Re-arms the queue after the WAL has been resynced from a snapshot
  /// (WriteAheadLog::ResyncFromSnapshot). Called with the server's write
  /// mutex held and the queue drained — no commit may be in flight.
  void ResetAfterResync();

 private:
  /// Runs one leader flush; called by Wait with `lock` held, returns with
  /// it held and the leader's own ticket done.
  void LeadFlush(std::unique_lock<std::mutex>& lock);

  WriteAheadLog* wal_;
  const size_t max_batch_;
  const uint32_t hold_us_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Ticket*> queue_;
  bool flush_active_ = false;
  /// Set under mu_ by the first failed flush; poison_status_ is written
  /// once (also under mu_) and read by later leaders under mu_.
  std::atomic<bool> poisoned_{false};
  Status poison_status_ = Status::OK();
  std::atomic<size_t> depth_{0};
};

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_GROUP_COMMIT_H_
