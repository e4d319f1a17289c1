#ifndef LDAPBOUND_SERVER_REQUEST_STAGES_H_
#define LDAPBOUND_SERVER_REQUEST_STAGES_H_

#include <cstddef>
#include <cstdint>

#include "util/trace.h"

namespace ldapbound {

/// The wire path's stage model (DESIGN.md §13): every dispatched request
/// is stamped with a monotonic timestamp as it crosses each boundary, so
/// a tail latency decomposes into queue wait, execution, durability wait
/// and write-back instead of one opaque client-side number.
///
///   reactor            worker                 reactor
///   kDecoded ──► kEnqueued ──► kWorkerStart ──► kExecuteDone ──►
///     kResponseQueued ──► kBytesFlushed
///
/// with the worker's execution window refined by whichever of these the
/// op crosses: kSnapshotPinned (reads), kAdmitted (writes, admission
/// verdict), kCommitEnqueued / kCommitDurable (writes, WAL durability).
enum class WireStage : uint8_t {
  kDecoded = 0,      ///< reactor: frame parsed out of the read buffer
  kEnqueued,         ///< reactor: pushed onto the dispatch queue
  kWorkerStart,      ///< worker: popped from the dispatch queue
  kAdmitted,         ///< directory server: admission verdict (writes)
  kSnapshotPinned,   ///< worker: MVCC snapshot pinned (reads)
  kCommitEnqueued,   ///< group-commit enqueue
  kCommitDurable,    ///< WAL durability reached (fsync acknowledged)
  kExecuteDone,      ///< worker: Execute returned
  kResponseQueued,   ///< reactor: response appended to the conn buffer
  kBytesFlushed,     ///< reactor: the response's last byte hit the socket
  kCount
};

constexpr size_t kWireStageCount = static_cast<size_t>(WireStage::kCount);

/// One request's stamps, in Tracer::NowNs() time (the trace-span
/// timebase, so synthesized stage spans and checker spans line up in the
/// same slow-op record). 0 = the request never crossed that boundary.
struct WireStageStamps {
  uint64_t ns[kWireStageCount] = {};

  void Mark(WireStage stage) {
    ns[static_cast<size_t>(stage)] = Tracer::NowNs();
  }
  uint64_t at(WireStage stage) const {
    return ns[static_cast<size_t>(stage)];
  }
};

/// Lets layers below the worker loop (directory_server admission and WAL
/// durability, group_commit enqueue) stamp the wire request currently
/// executing on this thread without threading a parameter through every
/// signature. The worker installs a scope around Execute; MarkCurrent is
/// a no-op on threads with no live scope (CLI ops, tests, recovery).
class WireStageScope {
 public:
  explicit WireStageScope(WireStageStamps* stamps) : prev_(tls_) {
    tls_ = stamps;
  }
  ~WireStageScope() { tls_ = prev_; }
  WireStageScope(const WireStageScope&) = delete;
  WireStageScope& operator=(const WireStageScope&) = delete;

  static void MarkCurrent(WireStage stage) {
    if (tls_ != nullptr) tls_->Mark(stage);
  }

 private:
  static inline thread_local WireStageStamps* tls_ = nullptr;
  WireStageStamps* prev_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_REQUEST_STAGES_H_
