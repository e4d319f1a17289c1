#ifndef LDAPBOUND_SERVER_REQUEST_STAGES_H_
#define LDAPBOUND_SERVER_REQUEST_STAGES_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/trace.h"

namespace ldapbound {

class SlowOpLog;

/// The request stage model (DESIGN.md §13), the only per-request timing
/// source: every request — a wire request or a library call — carries
/// one record, stamped as it crosses each boundary. A dispatched wire
/// request (a write, a validate, a read past the reactor's budget)
/// crosses
///
///   reactor            worker                  reactor
///   kDecoded ──► kEnqueued ──► kExecuteStart ──► kExecuteDone ──►
///     kResponseQueued ──► kBytesFlushed
///
/// and a read the reactor answers itself skips the queue:
///
///   reactor
///   kDecoded ──► kExecuteStart ──► kExecuteDone ──► kResponseQueued ──►
///     kBytesFlushed
///
/// The execution window (a library call's whole life) is refined by
/// whichever of these the op crosses: kSnapshotPinned (reads), and for
/// writes kAdmitted ──► kLocked ──► kBodyDone ──► kPublished ──►
/// kCommitEnqueued ──► kCommitDurable.
enum class RequestStage : uint8_t {
  kDecoded = 0,     ///< reactor: frame parsed out of the read buffer
  kEnqueued,        ///< reactor: pushed onto the dispatch queue
  kExecuteStart,    ///< worker popped it, or the reactor runs it inline
  kAdmitted,        ///< write: admission verdict
  kLocked,          ///< write: write mutex acquired
  kBodyDone,        ///< write: body returned (applied and checked, or
                    ///< refused and undone)
  kPublished,       ///< write: MVCC snapshot published
  kSnapshotPinned,  ///< read: MVCC snapshot pinned
  kCommitEnqueued,  ///< write: group-commit enqueue
  kCommitDurable,   ///< write: WAL durability reached (fsync acknowledged)
  kExecuteDone,     ///< Execute returned (worker or reactor)
  kResponseQueued,  ///< reactor: response appended to the conn buffer
  kBytesFlushed,    ///< reactor: the response's last byte hit the socket
  kCount
};

constexpr size_t kRequestStageCount =
    static_cast<size_t>(RequestStage::kCount);

/// One request's record. Stamps are in Tracer::NowNs() time, so stage
/// and checker spans line up in one Chrome trace; 0 = never crossed. The
/// wire path fills `request_id`, `op` and `outcome`; the outermost
/// DirectoryServer op the request runs fills the annotation.
struct RequestStamps {
  uint64_t ns[kRequestStageCount] = {};
  uint64_t request_id = 0;       ///< wire request id; 0 for library calls
  const char* op = nullptr;      ///< "wire.add", "add", ...: a literal
  const char* outcome = "error"; ///< "ok", "rejected", "error": a literal

  // The annotation of the outermost DirectoryServer op.
  uint64_t op_start_ns = 0;  ///< the op's entry stamp; 0 = not annotated
  uint64_t op_id = 0;        ///< slow-op / JSON op-log id; 0 = none drawn
  std::string target;        ///< DN / request summary
  std::string detail;        ///< refusal message (truncated)
  std::string explain;       ///< per-violation "detected by" lines

  void Mark(RequestStage stage) {
    ns[static_cast<size_t>(stage)] = Tracer::NowNs();
  }
  uint64_t at(RequestStage stage) const {
    return ns[static_cast<size_t>(stage)];
  }
};

/// The record of the request executing on this thread, so layers below
/// the worker loop (admission, the commit skeleton, group-commit enqueue,
/// WAL durability) stamp it and the DirectoryServer op annotates it
/// without a parameter on every signature. The wire worker, and the
/// reactor for an inline read, installs a scope around Execute; the
/// outermost DirectoryServer op installs one when no record is current
/// (library calls, the CLI, recovery replay).
class RequestScope {
 public:
  explicit RequestScope(RequestStamps* record) : prev_(tls_) {
    tls_ = record;
  }
  ~RequestScope() { tls_ = prev_; }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  /// The calling thread's record, or nullptr.
  static RequestStamps* current() { return tls_; }

  static void MarkCurrent(RequestStage stage) {
    if (tls_ != nullptr) tls_->Mark(stage);
  }

 private:
  static inline thread_local RequestStamps* tls_ = nullptr;
  RequestStamps* prev_;
};

/// Finishes one request that ended at `end_ns`, the one place a record
/// becomes numbers: a wire request's stage pairs go into the
/// ldapbound_wire_stage_ns{stage} histograms; `log` (may be null) counts
/// the request and, when it is slow enough, retains one SlowOp; while
/// the tracer is enabled the same spans go into the Chrome trace. A wire
/// request is finished at kBytesFlushed, a library call at op return.
void FinishRequest(const RequestStamps& record, uint64_t end_ns,
                   SlowOpLog* log);

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_REQUEST_STAGES_H_
