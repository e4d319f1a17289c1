#ifndef LDAPBOUND_UTIL_TRACE_H_
#define LDAPBOUND_UTIL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace ldapbound {

/// Lightweight span tracing for the legality pipeline.
///
/// A span is an RAII scope (LDAPBOUND_TRACE_SPAN) naming a unit of work —
/// a checker pass, one constraint query, a WAL fsync. Spans record into a
/// per-thread buffer; buffers drain into a bounded global ring (oldest
/// events dropped first) either when full or when an export runs. The
/// ring exports as Chrome `trace_event` JSON (chrome://tracing,
/// Perfetto): `ldapbound check --trace-out file.json`.
///
/// Cost model: tracing is off by default and every span site is one
/// relaxed atomic load in that state. Enabled, a span is two
/// steady_clock reads plus an uncontended per-thread mutex (the owner
/// takes it per event; an exporter takes it only while draining), so
/// sites on per-pass/per-query granularity are safe — do not put spans
/// in per-entry loops. Per-request timing is not a span site: a server
/// request's stage stamps (server/request_stages.h) are recorded here
/// once, when the request finishes, while tracing is on.
///
/// Span names must be string literals (or otherwise outlive the tracer):
/// events store the pointer, not a copy.
class Tracer {
 public:
  struct Event {
    const char* name;   ///< literal; not owned
    uint32_t tid;       ///< small per-thread id (not the OS tid)
    uint64_t start_ns;  ///< steady_clock, ns
    uint64_t dur_ns;
  };

  /// The process-wide tracer (never destroyed).
  static Tracer& Default();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one completed span (called by TraceSpan; safe from any
  /// thread). No-op while disabled.
  void Record(const char* name, uint64_t start_ns, uint64_t dur_ns);

  /// Drains every thread's buffer into the ring and renders the ring as
  /// Chrome trace JSON. The ring is left empty (consecutive exports see
  /// disjoint events).
  std::string ExportChromeTraceJson();

  /// Drains and discards everything (tests; isolates scenarios).
  void Discard();

  /// Events evicted from the ring since the last export (an export
  /// resets it); nonzero means the ring capacity was too small for the
  /// traced window.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Reads LDAPBOUND_TRACE_OUT; when set, enables the tracer and
  /// registers an atexit hook writing the trace JSON there. Idempotent.
  /// Lets the google-benchmark binaries (which own main()) produce traces
  /// without flag plumbing.
  static void InstallExportFromEnv();

  static uint64_t NowNs();

  /// Internal (used by the thread-buffer machinery in trace.cc).
  std::atomic<uint64_t>& MutableDropped() { return dropped_; }

 private:
  Tracer() = default;
  void DrainAllLocked();  // requires ring_mu_ not held by caller's buffer

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
};

/// RAII span: captures the start time at construction if tracing is
/// enabled, records on destruction. Name must be a string literal.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (Tracer::Default().enabled()) {
      name_ = name;
      start_ns_ = Tracer::NowNs();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer::Default().Record(name_, start_ns_, Tracer::NowNs() - start_ns_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
};

#define LDAPBOUND_TRACE_CONCAT2(a, b) a##b
#define LDAPBOUND_TRACE_CONCAT(a, b) LDAPBOUND_TRACE_CONCAT2(a, b)
/// `LDAPBOUND_TRACE_SPAN("checker.content");` — one span per scope.
#define LDAPBOUND_TRACE_SPAN(name)                 \
  ::ldapbound::TraceSpan LDAPBOUND_TRACE_CONCAT(   \
      ldapbound_trace_span_, __COUNTER__)(name)

}  // namespace ldapbound

#endif  // LDAPBOUND_UTIL_TRACE_H_
