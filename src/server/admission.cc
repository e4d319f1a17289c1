#include "server/admission.h"

#include <string>

#include "server/group_commit.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

struct AdmissionMetrics {
  Counter& admitted;
  Counter& rejected_overloaded;
  Counter& rejected_deadline;

  static AdmissionMetrics& Get() {
    MetricRegistry& r = MetricRegistry::Default();
    static constexpr char kRejected[] = "ldapbound_admission_rejected_total";
    static constexpr char kRejectedHelp[] =
        "Writes shed by admission control, by reason";
    static AdmissionMetrics m{
        r.GetCounter("ldapbound_admission_admitted_total",
                     "Writes admitted past admission control"),
        r.GetCounter(kRejected, kRejectedHelp, "reason=\"overloaded\""),
        r.GetCounter(kRejected, kRejectedHelp, "reason=\"deadline\""),
    };
    return m;
  }
};

}  // namespace

void AdmissionController::RecordQueuedDeadlineShed() {
  AdmissionMetrics::Get().rejected_deadline.Increment();
}

Status AdmissionController::AdmitWrite(const Deadline& deadline) {
  if (deadline.expired()) {
    AdmissionMetrics::Get().rejected_deadline.Increment();
    // Deadline sheds do not feed the overload streak: an expired budget
    // says the *client* is slow or retrying stale work, not that we are.
    return Status::DeadlineExceeded(
        "op deadline expired before admission (no work was done; safe to "
        "retry with a fresh budget)");
  }
  if (options_.max_queue_depth > 0 && queue_ != nullptr) {
    const size_t depth = queue_->depth();
    if (depth >= options_.max_queue_depth) {
      AdmissionMetrics::Get().rejected_overloaded.Increment();
      const uint64_t streak =
          shed_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.overload_degrade_threshold > 0 &&
          streak == options_.overload_degrade_threshold) {
        degrade_signal_.store(true, std::memory_order_release);
      }
      return Status::Overloaded(
          "write shed: group-commit queue depth " + std::to_string(depth) +
          " at limit " + std::to_string(options_.max_queue_depth) +
          " (retry with backoff)");
    }
  }
  AdmissionMetrics::Get().admitted.Increment();
  shed_streak_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace ldapbound
