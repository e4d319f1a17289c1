#include "server/slow_ops.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/json.h"

namespace ldapbound {

namespace {

void AppendU64Field(std::string& out, const char* key, uint64_t value,
                    bool first = false) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",", key,
                value);
  out += buf;
}

void AppendStrField(std::string& out, const char* key,
                    const std::string& value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += JsonQuote(value);
}

}  // namespace

std::string SlowOp::RenderJson() const {
  std::string out = "{";
  AppendU64Field(out, "op_id", op_id, /*first=*/true);
  AppendStrField(out, "op", op);
  AppendStrField(out, "target", target);
  AppendStrField(out, "outcome", outcome);
  if (!detail.empty()) AppendStrField(out, "detail", detail);
  if (!explain.empty()) AppendStrField(out, "explain", explain);
  AppendU64Field(out, "start_unix_ms", start_unix_ms);
  AppendU64Field(out, "duration_ns", duration_ns);
  if (wire_request_id != 0) {
    AppendU64Field(out, "request_id", wire_request_id);
  }
  out += ",\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Event& e = spans[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    out += JsonQuote(e.name);
    AppendU64Field(out, "start_ns", e.start_ns);
    AppendU64Field(out, "dur_ns", e.dur_ns);
    out += '}';
  }
  out += "]}";
  return out;
}

SlowOpLog::SlowOpLog(size_t capacity, uint64_t min_duration_ns)
    : capacity_(capacity == 0 ? 1 : capacity),
      min_duration_ns_(min_duration_ns),
      floor_ns_(min_duration_ns) {}

void SlowOpLog::Retain(SlowOp op) {
  std::lock_guard<std::mutex> lock(mu_);
  // The floor only moves under this mutex, so here it is exact: a full
  // log's floor is one more than its fastest op, which the newcomer
  // therefore evicts. Capacity is small (tens), so linear scans beat
  // heap bookkeeping.
  if (op.duration_ns < floor_ns_.load(std::memory_order_relaxed)) return;
  auto fastest = [this] {
    return std::min_element(ops_.begin(), ops_.end(),
                            [](const SlowOp& a, const SlowOp& b) {
                              return a.duration_ns < b.duration_ns;
                            });
  };
  if (ops_.size() < capacity_) {
    ops_.push_back(std::move(op));
  } else {
    *fastest() = std::move(op);
  }
  if (ops_.size() == capacity_) {
    floor_ns_.store(std::max(min_duration_ns_, fastest()->duration_ns + 1),
                    std::memory_order_relaxed);
  }
}

std::vector<SlowOp> SlowOpLog::Snapshot() const {
  std::vector<SlowOp> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = ops_;
  }
  std::sort(out.begin(), out.end(), [](const SlowOp& a, const SlowOp& b) {
    if (a.duration_ns != b.duration_ns) return a.duration_ns > b.duration_ns;
    return a.op_id < b.op_id;
  });
  return out;
}

std::string SlowOpLog::RenderJson() const {
  std::vector<SlowOp> ops = Snapshot();
  std::string out = "{";
  AppendU64Field(out, "capacity", capacity_, /*first=*/true);
  AppendU64Field(out, "min_duration_ns", min_duration_ns_);
  AppendU64Field(out, "recorded", recorded());
  out += ",\"ops\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) out += ',';
    out += ops[i].RenderJson();
  }
  out += "]}";
  return out;
}

}  // namespace ldapbound
