#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace ldapbound {

namespace {

void Append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
}

/// `name{labels}` or bare `name`; `extra` (e.g. an `le` pair) is appended
/// after the caller's labels.
std::string SeriesName(const std::string& name, const std::string& labels,
                       const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return name;
  std::string out = name;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

}  // namespace

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) total += BucketCount(i);
  return total;
}

size_t Histogram::BucketFor(uint64_t value) {
  if (value < kSubBuckets) return static_cast<size_t>(value);
  // major = floor(log2(value)) >= kSubBucketBits; the next kSubBucketBits
  // bits below the leading one select the linear sub-bucket.
  size_t major = static_cast<size_t>(std::bit_width(value)) - 1;
  size_t sub = static_cast<size_t>(value >> (major - kSubBucketBits)) &
               (kSubBuckets - 1);
  return kSubBuckets + (major - kSubBucketBits) * kSubBuckets + sub;
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i < kSubBuckets) return i;
  size_t major = kSubBucketBits + (i - kSubBuckets) / kSubBuckets;
  size_t sub = (i - kSubBuckets) % kSubBuckets;
  uint64_t width = uint64_t{1} << (major - kSubBucketBits);
  // For the very last bucket (major 63, sub 7) the exact bound 2^64 - 1
  // falls out of the unsigned wraparound.
  return (uint64_t{1} << major) + (sub + 1) * width - 1;
}

uint64_t Histogram::ValueAtQuantile(double q) const {
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = BucketCount(i);
    total += counts[i];
  }
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double rank = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(seen + counts[i]) >= rank) {
      uint64_t lo = BucketLowerBound(i);
      uint64_t hi = BucketUpperBound(i);
      double frac = (rank - static_cast<double>(seen)) /
                    static_cast<double>(counts[i]);
      return lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
    }
    seen += counts[i];
  }
  return BucketUpperBound(kNumBuckets - 1);
}

MetricRegistry& MetricRegistry::Default() {
  // Leaked: metric references handed to call sites (and pool workers that
  // outlive static destructors) must stay valid forever.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

MetricRegistry::Family& MetricRegistry::FamilyFor(std::string_view name,
                                                  std::string_view help,
                                                  Kind kind) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    it = families_.emplace(std::string(name), Family{}).first;
    it->second.kind = kind;
    it->second.help = std::string(help);
  } else if (it->second.kind != kind) {
    std::fprintf(stderr,
                 "metric family '%.*s' registered with conflicting kinds\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return it->second;
}

Counter& MetricRegistry::GetCounter(std::string_view name,
                                    std::string_view help,
                                    std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = FamilyFor(name, help, Kind::kCounter)
                  .series[std::string(labels)];
  if (s.counter == nullptr) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& MetricRegistry::GetGauge(std::string_view name, std::string_view help,
                                std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = FamilyFor(name, help, Kind::kGauge).series[std::string(labels)];
  if (s.gauge == nullptr) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

Histogram& MetricRegistry::GetHistogram(std::string_view name,
                                        std::string_view help,
                                        std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = FamilyFor(name, help, Kind::kHistogram)
                  .series[std::string(labels)];
  if (s.histogram == nullptr) s.histogram = std::make_unique<Histogram>();
  return *s.histogram;
}

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string MakeLabel(std::string_view name, std::string_view value) {
  std::string out(name);
  out += "=\"";
  out += EscapeLabelValue(value);
  out += '"';
  return out;
}

uint64_t MetricRegistry::Read(std::string_view name,
                              std::string_view labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto family = families_.find(name);
  bool histogram_sum = false;
  if (family == families_.end()) {
    // Not a family name: perhaps a histogram's `_count` or `_sum`.
    for (std::string_view suffix : {"_count", "_sum"}) {
      if (name.ends_with(suffix)) {
        family = families_.find(name.substr(0, name.size() - suffix.size()));
        histogram_sum = suffix == "_sum";
        break;
      }
    }
    if (family == families_.end() ||
        family->second.kind != Kind::kHistogram) {
      return 0;
    }
  }
  auto value = [&](const Series& s) -> uint64_t {
    switch (family->second.kind) {
      case Kind::kCounter:
        return s.counter->Value();
      case Kind::kGauge:
        return static_cast<uint64_t>(std::max<int64_t>(s.gauge->Value(), 0));
      case Kind::kHistogram:
        return histogram_sum ? s.histogram->Sum() : s.histogram->Count();
    }
    return 0;
  };
  const auto& series = family->second.series;
  if (!labels.empty()) {
    auto it = series.find(std::string(labels));
    return it == series.end() ? 0 : value(it->second);
  }
  uint64_t total = 0;
  for (const auto& [unused, s] : series) total += value(s);
  return total;
}

void MetricRegistry::ForEachSample(
    const std::function<void(const std::string& series, double value)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, family] : families_) {
    for (const auto& [labels, series] : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          fn(SeriesName(name, labels),
             static_cast<double>(series.counter->Value()));
          break;
        case Kind::kGauge:
          fn(SeriesName(name, labels),
             static_cast<double>(series.gauge->Value()));
          break;
        case Kind::kHistogram:
          fn(SeriesName(name + "_count", labels),
             static_cast<double>(series.histogram->Count()));
          fn(SeriesName(name + "_sum", labels),
             static_cast<double>(series.histogram->Sum()));
          break;
      }
    }
  }
}

std::string MetricRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " ";
    switch (family.kind) {
      case Kind::kCounter:
        out += "counter\n";
        break;
      case Kind::kGauge:
        out += "gauge\n";
        break;
      case Kind::kHistogram:
        out += "histogram\n";
        break;
    }
    for (const auto& [labels, series] : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          Append(out, "%s %" PRIu64 "\n",
                 SeriesName(name, labels).c_str(), series.counter->Value());
          break;
        case Kind::kGauge:
          Append(out, "%s %" PRId64 "\n",
                 SeriesName(name, labels).c_str(), series.gauge->Value());
          break;
        case Kind::kHistogram: {
          const Histogram& h = *series.histogram;
          // Cumulative `le` buckets; empty high bins beyond the last
          // occupied one are folded into +Inf to keep the exposition
          // compact.
          size_t last = 0;
          for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
            if (h.BucketCount(i) > 0) last = i;
          }
          uint64_t cumulative = 0;
          for (size_t i = 0; i <= last; ++i) {
            cumulative += h.BucketCount(i);
            char le[32];
            std::snprintf(le, sizeof(le), "le=\"%" PRIu64 "\"",
                          Histogram::BucketUpperBound(i));
            Append(out, "%s %" PRIu64 "\n",
                   SeriesName(name + "_bucket", labels, le).c_str(),
                   cumulative);
          }
          Append(out, "%s %" PRIu64 "\n",
                 SeriesName(name + "_bucket", labels, "le=\"+Inf\"").c_str(),
                 h.Count());
          Append(out, "%s %" PRIu64 "\n",
                 SeriesName(name + "_sum", labels).c_str(), h.Sum());
          Append(out, "%s %" PRIu64 "\n",
                 SeriesName(name + "_count", labels).c_str(), h.Count());
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace ldapbound
