#ifndef LDAPBOUND_UTIL_METRICS_H_
#define LDAPBOUND_UTIL_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace ldapbound {

/// Process-wide observability primitives for the legality pipeline.
///
/// The north-star workload ("heavy traffic, as fast as the hardware
/// allows") needs to show *where* time and failures go before further
/// scaling work; ShEx/SHACL validators report per-constraint validation
/// cost as a first-class output and this layer does the same for the
/// Theorem 3.1 checks. Design constraints:
///
///  - update paths are lock-free: counters, gauges and histogram buckets
///    are relaxed atomics, safe from any thread, never blocking;
///  - registration is rare and amortized: call sites hold a reference
///    obtained once (function-local static) from the registry, so the
///    steady state pays one atomic add per event;
///  - hot loops do not pay per-item: per-entry work is accumulated in
///    plain locals and flushed once per shard/query (see
///    core/legality_checker.cc), keeping instrumentation overhead on
///    bench_structure_legality under 2%;
///  - metrics are process-wide and monotonic (Prometheus semantics), and
///    are never destroyed: references stay valid for the process
///    lifetime.
///
/// Exposition is the Prometheus text format (RenderPrometheus), served by
/// `ldapbound stats --metrics`.

/// Monotonic event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (queue depths, active workers).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed log-linear histogram: each power of two is split into
/// kSubBuckets linear sub-buckets (values below kSubBuckets are exact),
/// so any uint64 value — nanoseconds, bytes, scan lengths — lands in one
/// of 496 bins with one relaxed fetch_add and no allocation. Bucket
/// width is at most 12.5% of the bucket's lower bound, so a quantile
/// read from the exposition is off by < 2^(1/8) instead of the 2x a
/// pure log2 grid allows. Concurrent Observe/snapshot is racy only
/// across bins (a scrape may see a count the sum does not yet include),
/// which Prometheus scrapes tolerate by design.
class Histogram {
 public:
  /// 8 linear sub-buckets per power of two (3 mantissa bits), the same
  /// grid tools/load_driver.cc uses client-side.
  static constexpr size_t kSubBucketBits = 3;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;
  /// Values 0..7 exact, then 61 powers of two (2^3 .. 2^63) x 8 subs.
  static constexpr size_t kNumBuckets =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

  void Observe(uint64_t value) {
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const;
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i (the Prometheus `le` value);
  /// the last bucket's bound is UINT64_MAX (rendered before +Inf).
  static uint64_t BucketUpperBound(size_t i);
  /// Inclusive lower bound of bucket i (for in-bucket interpolation).
  static uint64_t BucketLowerBound(size_t i) {
    return i == 0 ? 0 : BucketUpperBound(i - 1) + 1;
  }
  static size_t BucketFor(uint64_t value);

  /// Approximate value at quantile q in [0,1], linearly interpolated
  /// inside the winning bucket (error bounded by the 12.5% bucket
  /// width). Snapshot semantics match the scrape contract above.
  uint64_t ValueAtQuantile(double q) const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

/// Escapes a label VALUE per the Prometheus text exposition format:
/// backslash, double-quote and newline become \\ , \" and \n. Label names
/// and metric names need no escaping (they are identifier-restricted).
std::string EscapeLabelValue(std::string_view value);

/// Renders one `name="value"` label pair with the value escaped. Join
/// multiple pairs with "," to build the `labels` argument of the registry
/// getters when values are not compile-time literals.
std::string MakeLabel(std::string_view name, std::string_view value);

/// Observes the lifetime of a scope, in nanoseconds, into a histogram.
class LatencyTimer {
 public:
  explicit LatencyTimer(Histogram& histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~LatencyTimer() { histogram_.Observe(ElapsedNs()); }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

  uint64_t ElapsedNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Families of labeled metrics, keyed by name. A family is one exposition
/// unit (one # HELP / # TYPE block); its series are distinguished by a
/// pre-rendered label string (`op="add",outcome="ok"`). Lookups take a
/// mutex; call sites cache the returned reference, which stays valid
/// forever (series are never removed).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricRegistry& Default();

  /// Finds or creates the series `name{labels}`. `help` is recorded on
  /// first sight of the family. Asking for an existing name with a
  /// different metric kind is a programming error and aborts.
  Counter& GetCounter(std::string_view name, std::string_view help,
                      std::string_view labels = "");
  Gauge& GetGauge(std::string_view name, std::string_view help,
                  std::string_view labels = "");
  Histogram& GetHistogram(std::string_view name, std::string_view help,
                          std::string_view labels = "");

  /// Reads one number without creating anything: the series
  /// `name{labels}` of a counter or gauge family, or of a histogram
  /// family as `<family>_count` / `<family>_sum`; with `labels` empty,
  /// the total across every label set of the family (every reactor,
  /// every reason). 0 for an unregistered name or series and for a
  /// negative gauge. /statusz reads every count through this, so it
  /// equals /metrics by construction.
  uint64_t Read(std::string_view name, std::string_view labels = "") const;

  /// Prometheus text exposition format, families and series in
  /// lexicographic order (deterministic for tests and diffing).
  std::string RenderPrometheus() const;

  /// Visits every series as flat numeric samples, in the same
  /// lexicographic order as RenderPrometheus: counters and gauges as
  /// `name{labels}` with their current value, histograms as two samples
  /// `name_count{labels}` and `name_sum{labels}` (bucket vectors are too
  /// wide to timeline; rates and interval means are derivable from
  /// count/sum deltas). Holds the registry mutex for the duration, so
  /// `fn` must not call back into the registry.
  void ForEachSample(
      const std::function<void(const std::string& series, double value)>& fn)
      const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::map<std::string, Series> series;  // key: rendered label string
  };

  Family& FamilyFor(std::string_view name, std::string_view help, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_UTIL_METRICS_H_
