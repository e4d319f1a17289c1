#ifndef LDAPBOUND_SERVER_HEALTH_H_
#define LDAPBOUND_SERVER_HEALTH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "util/backoff.h"
#include "util/status.h"

namespace ldapbound {

/// Server health, as a state machine (DESIGN.md §11). Replaces the ad-hoc
/// "WAL failed → read-only bool" flip: a fault now moves the server
/// through explicit states with logged, counted transitions, and — when a
/// recovery probe is attached — back out again without an operator.
///
///   kHealthy     writes admitted, /healthz 200.
///   kDegraded    read-only: a WAL append/fsync failure (incl. disk full)
///                or sustained overload was reported. Reads and searches
///                keep serving the last legal state; writes are rejected
///                with kUnavailable (retryable). /healthz 503.
///   kDraining    the probe decided to attempt recovery and is waiting
///                for in-flight writes to drain out of the commit path.
///   kRecovering  the drain is done; the probe is re-establishing WAL
///                writability (snapshot resync). Success → kHealthy,
///                failure → kDegraded and the probe backs off.
///
/// Legal transitions: kHealthy→kDegraded (fault reported), kDegraded→
/// kDraining→kRecovering (probe attempt), kRecovering→kHealthy (probe
/// succeeded), kRecovering→kDegraded (probe failed). Anything else is a
/// programming error and is ignored with a logged warning rather than
/// crashing the server.
enum class HealthState : uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kDraining = 2,
  kRecovering = 3,
};

/// Lower-case state name ("healthy", "degraded", ...) for /healthz,
/// /statusz and log events.
std::string_view HealthStateName(HealthState state);

/// Owns the health state, its observability (the ldapbound_health_* gauge
/// and counters, which hold its only counts, and JSON log events) and the
/// supervised recovery probe thread.
///
/// Threading: state() and degraded-reason reads are safe from any thread.
/// Fault reports are safe from any thread. The probe thread is started by
/// StartProbe and joined by StopProbe/destruction; the recover callback
/// runs on the probe thread and must do its own locking (the
/// DirectoryServer callback takes the write mutex).
class HealthManager {
 public:
  HealthManager();
  ~HealthManager();

  HealthManager(const HealthManager&) = delete;
  HealthManager& operator=(const HealthManager&) = delete;

  HealthState state() const { return state_.load(std::memory_order_acquire); }
  bool healthy() const { return state() == HealthState::kHealthy; }

  /// Why the server left kHealthy (empty while healthy). For error
  /// messages and /statusz.
  std::string reason() const;

  /// Reports a write-path fault (WAL append/fsync failure, disk full):
  /// kHealthy→kDegraded, recording `status` as the reason and waking the
  /// probe. Reporting while already degraded/draining/recovering keeps
  /// the first reason (the probe is already on it).
  void ReportWalFailure(const Status& status);

  /// Reports sustained overload (the admission controller shed
  /// `shed_streak` consecutive writes): same transition as a WAL fault
  /// but the recovery attempt has no log to repair — it just waits for
  /// the queue to empty.
  void ReportOverload(uint64_t shed_streak);

  /// Called by the recover callback once in-flight writes are drained,
  /// moving kDraining→kRecovering (a probe attempt's halfway point).
  void EnterRecovering();

  /// Runs one recovery attempt inline: kDegraded→kDraining, invokes
  /// `recover` (which calls EnterRecovering after its drain), then
  /// kHealthy on OK or back to kDegraded on error. Returns the recover
  /// status — or kFailedPrecondition when the server was not degraded
  /// (already healthy, or another attempt is in flight). The probe thread
  /// goes through this; tests and operator tooling may call it directly.
  Status AttemptRecovery(const std::function<Status()>& recover);

  /// Starts the supervised recovery probe: whenever the state is
  /// kDegraded, waits out the (exponentially backed-off) delay, moves to
  /// kDraining and calls `recover`. `recover` returns OK when the server
  /// is writable again (→ kHealthy, backoff reset) and an error to retry
  /// later (→ kDegraded, backoff grows). Call at most once; the callback
  /// must stay valid until StopProbe.
  void StartProbe(std::function<Status()> recover,
                  const ExponentialBackoff::Options& backoff);

  /// Stops and joins the probe thread (no-op when not started). Safe to
  /// call twice; called by the destructor.
  void StopProbe();

  /// True between StartProbe and StopProbe — /statusz reports whether
  /// auto-recovery is armed.
  bool probe_running() const;

  /// The delay the probe will wait before its next attempt (for tests and
  /// /statusz; 0 before StartProbe).
  uint64_t next_probe_delay_ms() const;

 private:
  void ProbeLoop();
  /// Applies `to` if the transition from the current state is legal;
  /// returns whether it was applied. `reason` replaces the degraded
  /// reason on entry to kDegraded and clears it on entry to kHealthy.
  bool Transition(HealthState to, std::string_view reason);

  std::atomic<HealthState> state_{HealthState::kHealthy};

  mutable std::mutex mu_;  // guards reason_, backoff_, probe lifecycle
  std::condition_variable cv_;
  std::string reason_;
  std::function<Status()> recover_;
  ExponentialBackoff backoff_;
  bool probe_started_ = false;
  bool stop_ = false;
  std::thread probe_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_HEALTH_H_
