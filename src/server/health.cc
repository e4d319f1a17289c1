#include "server/health.h"

#include <chrono>

#include "util/log.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

struct HealthMetrics {
  Gauge& state;
  Counter& to_healthy;
  Counter& to_degraded;
  Counter& to_draining;
  Counter& to_recovering;
  Counter& recovery_attempts;
  Counter& recoveries;

  static HealthMetrics& Get() {
    MetricRegistry& r = MetricRegistry::Default();
    static constexpr char kTransitions[] = "ldapbound_health_transitions_total";
    static constexpr char kTransitionsHelp[] =
        "Health state-machine transitions, by target state";
    static HealthMetrics m{
        r.GetGauge("ldapbound_health_state",
                   "Current health state (0 healthy, 1 degraded, 2 draining, "
                   "3 recovering)"),
        r.GetCounter(kTransitions, kTransitionsHelp, "to=\"healthy\""),
        r.GetCounter(kTransitions, kTransitionsHelp, "to=\"degraded\""),
        r.GetCounter(kTransitions, kTransitionsHelp, "to=\"draining\""),
        r.GetCounter(kTransitions, kTransitionsHelp, "to=\"recovering\""),
        r.GetCounter("ldapbound_health_recovery_attempts_total",
                     "Recovery probe attempts (drain + WAL resync)"),
        r.GetCounter("ldapbound_health_recoveries_total",
                     "Recovery probe attempts that returned the server to "
                     "healthy"),
    };
    return m;
  }

  Counter& ForTarget(HealthState to) {
    switch (to) {
      case HealthState::kHealthy:
        return to_healthy;
      case HealthState::kDegraded:
        return to_degraded;
      case HealthState::kDraining:
        return to_draining;
      case HealthState::kRecovering:
        return to_recovering;
    }
    return to_degraded;  // unreachable
  }
};

bool LegalTransition(HealthState from, HealthState to) {
  switch (to) {
    case HealthState::kDegraded:
      // Fault report, or a failed recovery attempt falling back.
      return from == HealthState::kHealthy || from == HealthState::kDraining ||
             from == HealthState::kRecovering;
    case HealthState::kDraining:
      return from == HealthState::kDegraded;
    case HealthState::kRecovering:
      return from == HealthState::kDraining;
    case HealthState::kHealthy:
      return from == HealthState::kRecovering;
  }
  return false;
}

}  // namespace

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kDraining:
      return "draining";
    case HealthState::kRecovering:
      return "recovering";
  }
  return "unknown";
}

HealthManager::HealthManager() { HealthMetrics::Get().state.Set(0); }

HealthManager::~HealthManager() { StopProbe(); }

std::string HealthManager::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reason_;
}

bool HealthManager::Transition(HealthState to, std::string_view reason) {
  HealthState from;
  {
    std::lock_guard<std::mutex> lock(mu_);
    from = state_.load(std::memory_order_relaxed);
    if (from == to) return false;
    if (!LegalTransition(from, to)) {
      if (JsonLog::Default().enabled()) {
        JsonLog::Default().Write(LogEvent("health_transition_rejected")
                                     .Str("from", HealthStateName(from))
                                     .Str("to", HealthStateName(to)));
      }
      return false;
    }
    if (to == HealthState::kDegraded) {
      // Repeat fault reports while already degraded never get here (the
      // from == to check above short-circuits them), so any reason that
      // does arrive is fresh information: either the first fault, or the
      // outcome of a recovery attempt that fell back.
      if (!reason.empty()) {
        reason_.assign(reason.data(), reason.size());
      }
    } else if (to == HealthState::kHealthy) {
      reason_.clear();
    }
    state_.store(to, std::memory_order_release);
  }
  HealthMetrics& metrics = HealthMetrics::Get();
  metrics.state.Set(static_cast<int64_t>(to));
  metrics.ForTarget(to).Increment();
  if (JsonLog::Default().enabled()) {
    LogEvent event("health_transition");
    event.Str("from", HealthStateName(from)).Str("to", HealthStateName(to));
    if (!reason.empty()) event.Str("reason", reason);
    JsonLog::Default().Write(event);
  }
  cv_.notify_all();
  return true;
}

void HealthManager::ReportWalFailure(const Status& status) {
  Transition(HealthState::kDegraded, status.message());
}

void HealthManager::ReportOverload(uint64_t shed_streak) {
  Transition(HealthState::kDegraded,
             "sustained overload: " + std::to_string(shed_streak) +
                 " consecutive writes shed by admission control");
}

void HealthManager::EnterRecovering() {
  Transition(HealthState::kRecovering, "");
}

Status HealthManager::AttemptRecovery(const std::function<Status()>& recover) {
  // Transition() is the arbiter: two concurrent attempts race on
  // kDegraded→kDraining and exactly one wins.
  if (!Transition(HealthState::kDraining, "")) {
    return Status::FailedPrecondition(
        "recovery not attempted: server is " +
        std::string(HealthStateName(state())));
  }
  HealthMetrics::Get().recovery_attempts.Increment();
  Status status = recover();
  if (status.ok()) {
    HealthMetrics::Get().recoveries.Increment();
    Transition(HealthState::kHealthy, "");
  } else {
    // From kDraining or kRecovering, depending on how far `recover` got.
    Transition(HealthState::kDegraded, status.message());
  }
  return status;
}

void HealthManager::StartProbe(std::function<Status()> recover,
                               const ExponentialBackoff::Options& backoff) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (probe_started_) return;
    probe_started_ = true;
    stop_ = false;
    recover_ = std::move(recover);
    backoff_ = ExponentialBackoff(backoff);
  }
  probe_ = std::thread([this] { ProbeLoop(); });
}

void HealthManager::StopProbe() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!probe_started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (probe_.joinable()) probe_.join();
  std::lock_guard<std::mutex> lock(mu_);
  probe_started_ = false;
}

bool HealthManager::probe_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probe_started_;
}

uint64_t HealthManager::next_probe_delay_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probe_started_ ? backoff_.current_ms() : 0;
}

void HealthManager::ProbeLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait(lock, [&] {
      return stop_ ||
             state_.load(std::memory_order_relaxed) == HealthState::kDegraded;
    });
    if (stop_) return;
    // Back off before the attempt: the fault that degraded us (full disk,
    // dying device) rarely clears instantly, and hammering fsync on a sick
    // disk makes things worse. The schedule resets on success.
    const uint64_t delay_ms = backoff_.NextDelayMs();
    cv_.wait_for(lock, std::chrono::milliseconds(delay_ms),
                 [&] { return stop_; });
    if (stop_) return;
    if (state_.load(std::memory_order_relaxed) != HealthState::kDegraded) {
      continue;
    }
    // Run the attempt unlocked: the recover callback takes the server's
    // write mutex and can block on a drain.
    lock.unlock();
    Status status = AttemptRecovery(recover_);
    lock.lock();
    if (status.ok()) backoff_.Reset();
  }
}

}  // namespace ldapbound
