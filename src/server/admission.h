#ifndef LDAPBOUND_SERVER_ADMISSION_H_
#define LDAPBOUND_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>

#include "util/deadline.h"
#include "util/status.h"

namespace ldapbound {

class GroupCommitQueue;

/// Write-path admission control (DESIGN.md §11): bounds the group-commit
/// queue so overload is shed at the door — with a retryable kOverloaded —
/// instead of growing an unbounded convoy of writers whose latency has
/// already blown past any useful budget. Also the front door for op
/// deadlines: an op that arrives with its budget already spent is
/// cancelled here, before it has done any work.
///
/// All state is relaxed atomics; Admit is called on every write before
/// the write mutex is taken and must not serialize writers itself. Its
/// verdicts are counted only in the metric registry
/// (ldapbound_admission_*), which /statusz reads.
struct AdmissionOptions {
  /// Reject writes while the group-commit queue holds this many commits.
  /// 0 = unbounded (admission control off, the pre-§11 behavior).
  size_t max_queue_depth = 0;

  /// Deadline given to ops that do not bring their own. 0 = infinite.
  uint64_t default_deadline_ms = 0;

  /// After this many *consecutive* overload rejections, report sustained
  /// overload to the HealthManager (degraded mode sheds cheaper: no queue
  /// probe, a bare kUnavailable). 0 disables the escalation.
  uint64_t overload_degrade_threshold = 0;
};

class AdmissionController {
 public:
  /// `queue` may be null (a server without a WAL has no commit queue to
  /// bound; deadline admission still applies).
  AdmissionController(const AdmissionOptions& options, GroupCommitQueue* queue)
      : options_(options), queue_(queue) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admits or sheds one write. kDeadlineExceeded when `deadline` already
  /// expired; kOverloaded when the queue is at its bound. OK otherwise.
  Status AdmitWrite(const Deadline& deadline);

  /// Records a deadline cancellation at the post-queue check (write mutex
  /// acquired, budget found spent) so both shed points share one counter.
  void RecordQueuedDeadlineShed();

  /// The deadline for an op that did not bring one.
  Deadline DefaultDeadline() const {
    return options_.default_deadline_ms == 0
               ? Deadline()
               : Deadline::AfterMs(options_.default_deadline_ms);
  }

  const AdmissionOptions& options() const { return options_; }

  /// Overload rejections since the last admit — the sustained-overload
  /// signal. Reset by any successful admission.
  uint64_t shed_streak() const {
    return shed_streak_.load(std::memory_order_relaxed);
  }

  /// True when AdmitWrite just crossed overload_degrade_threshold; the
  /// caller (DirectoryServer) reports it to the HealthManager. Returned
  /// as a side channel so this class needs no health dependency.
  bool TakeDegradeSignal() {
    return degrade_signal_.exchange(false, std::memory_order_acq_rel);
  }

 private:
  const AdmissionOptions options_;
  GroupCommitQueue* const queue_;
  std::atomic<uint64_t> shed_streak_{0};
  std::atomic<bool> degrade_signal_{false};
};

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_ADMISSION_H_
