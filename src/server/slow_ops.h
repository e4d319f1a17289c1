#ifndef LDAPBOUND_SERVER_SLOW_OPS_H_
#define LDAPBOUND_SERVER_SLOW_OPS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/trace.h"

namespace ldapbound {

/// One retained request record of the slow-op diagnostics, rendered from
/// the request's stage stamps (server/request_stages.h FinishRequest):
/// what the request was, how it ended, how long it took, the stage spans
/// it crossed (wire pipeline, write-mutex wait, validation, publish,
/// commit wait), and, for refusals, the detail and the constraint-level
/// "detected by" summary.
struct SlowOp {
  uint64_t op_id = 0;          ///< server-wide operation id
  std::string op;              ///< "add", "apply", "wire.search", ...
  std::string target;          ///< DN / request summary
  std::string outcome;         ///< "ok", "rejected", "error"
  std::string detail;          ///< rejection message (truncated)
  std::string explain;         ///< per-violation "detected by" lines
  uint64_t start_unix_ms = 0;  ///< wall-clock start
  uint64_t duration_ns = 0;
  /// The wire request id (0 = a library call, not a wire request): lets
  /// an operator line a /slowz entry up with the client that sent it.
  uint64_t wire_request_id = 0;
  std::vector<Tracer::Event> spans;  ///< stage spans, in stamp order

  /// The record as a JSON object (spans included, names escaped).
  std::string RenderJson() const;
};

/// Bounded keep-the-slowest log: retains the `capacity` slowest operations
/// seen so far (by duration), evicting the fastest retained one when a
/// slower operation arrives. Thread-safe. Offering a request that cannot
/// be retained is one relaxed atomic add and one relaxed load; only a
/// retained one builds its record and takes the mutex. Served as JSON by
/// the monitor endpoint's /slowz.
class SlowOpLog {
 public:
  explicit SlowOpLog(size_t capacity = 32, uint64_t min_duration_ns = 0);

  /// Counts one finished operation of `duration_ns` and, when it is slow
  /// enough to be retained (see retention_floor_ns), retains the record
  /// `build()` returns — so a caller builds a record only then.
  template <typename Build>
  void Offer(uint64_t duration_ns, Build&& build) {
    recorded_.fetch_add(1, std::memory_order_relaxed);
    if (duration_ns >= floor_ns_.load(std::memory_order_relaxed)) {
      Retain(build());
    }
  }

  /// Offers one finished operation. Operations faster than
  /// `min_duration_ns` are counted but never retained.
  void Record(SlowOp op) {
    const uint64_t duration_ns = op.duration_ns;
    Offer(duration_ns, [&op] { return std::move(op); });
  }

  /// The retained operations, slowest first.
  std::vector<SlowOp> Snapshot() const;

  /// {"capacity":...,"min_duration_ns":...,"recorded":...,"ops":[...]} —
  /// ops slowest first.
  std::string RenderJson() const;

  size_t capacity() const { return capacity_; }
  uint64_t min_duration_ns() const { return min_duration_ns_; }

  /// Operations offered since construction (retained or not).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// The smallest duration that could currently be retained: the
  /// min-duration gate, or once the log is full one more than the fastest
  /// retained duration. Advisory — a concurrent retention can raise it,
  /// so retaining re-checks under the mutex.
  uint64_t retention_floor_ns() const {
    return floor_ns_.load(std::memory_order_relaxed);
  }

 private:
  void Retain(SlowOp op);

  const size_t capacity_;
  const uint64_t min_duration_ns_;
  std::atomic<uint64_t> recorded_{0};
  /// Written only under mu_ (by Retain); read without it.
  std::atomic<uint64_t> floor_ns_;
  mutable std::mutex mu_;
  std::vector<SlowOp> ops_;  // unordered; Snapshot sorts
};

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_SLOW_OPS_H_
