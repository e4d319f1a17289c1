#include "util/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "util/metrics.h"

namespace ldapbound {

namespace {

/// Process-wide mirror of the ring's eviction count, so silent span loss
/// is visible on /metrics even when nobody reads Tracer::dropped().
Counter& DroppedSpansCounter() {
  static Counter* counter = &MetricRegistry::Default().GetCounter(
      "ldapbound_trace_dropped_spans_total",
      "Trace spans evicted from the ring before export (ring overflow)");
  return *counter;
}

/// Ring capacity (events) and the per-thread buffer size that triggers a
/// drain. Small buffers keep exports complete without making the owner
/// visit the ring mutex often.
constexpr size_t kRingCapacity = 1 << 16;
constexpr size_t kFlushThreshold = 128;

struct Ring {
  std::mutex mu;
  std::deque<Tracer::Event> events;
};

Ring& GlobalRing() {
  static Ring* ring = new Ring();
  return *ring;
}

/// One thread's pending events. Owned jointly by the thread (thread_local
/// shared_ptr) and the registry, so an exporter can drain buffers of live
/// threads and a dying thread can flush without racing an export.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<Tracer::Event> events;
  uint32_t tid = 0;
};

struct BufferRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  uint32_t next_tid = 1;
};

BufferRegistry& GlobalRegistry() {
  static BufferRegistry* registry = new BufferRegistry();
  return *registry;
}

void PushToRing(std::vector<Tracer::Event>&& events,
                std::atomic<uint64_t>& dropped) {
  if (events.empty()) return;
  Ring& ring = GlobalRing();
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(ring.mu);
    for (Tracer::Event& e : events) {
      if (ring.events.size() >= kRingCapacity) {
        ring.events.pop_front();
        ++evicted;
      }
      ring.events.push_back(e);
    }
  }
  if (evicted > 0) {
    dropped.fetch_add(evicted, std::memory_order_relaxed);
    DroppedSpansCounter().Increment(evicted);
  }
  events.clear();
}

/// Unregisters and flushes when the thread exits; the registry drops its
/// reference so long-lived processes do not accumulate dead buffers.
struct ThreadBufferHolder {
  std::shared_ptr<ThreadBuffer> buffer;

  ThreadBufferHolder() : buffer(std::make_shared<ThreadBuffer>()) {
    BufferRegistry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffer->tid = registry.next_tid++;
    registry.buffers.push_back(buffer);
  }
  ~ThreadBufferHolder() {
    std::vector<Tracer::Event> pending;
    {
      std::lock_guard<std::mutex> lock(buffer->mu);
      pending.swap(buffer->events);
    }
    PushToRing(std::move(pending), Tracer::Default().MutableDropped());
    BufferRegistry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto& buffers = registry.buffers;
    buffers.erase(std::remove(buffers.begin(), buffers.end(), buffer),
                  buffers.end());
  }
};

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBufferHolder holder;
  return *holder.buffer;
}

void AppendJsonEvent(std::string& out, const Tracer::Event& e, bool first) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f}",
                first ? "" : ",\n", e.name, e.tid,
                static_cast<double>(e.start_ns) / 1000.0,
                static_cast<double>(e.dur_ns) / 1000.0);
  out += buf;
}

}  // namespace

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  if (!enabled()) return;
  Event e{name, 0, start_ns, dur_ns};
  ThreadBuffer& buffer = LocalBuffer();
  std::vector<Event> overflow;
  {
    std::lock_guard<std::mutex> lock(buffer.mu);
    e.tid = buffer.tid;
    buffer.events.push_back(e);
    if (buffer.events.size() >= kFlushThreshold) {
      overflow.swap(buffer.events);
    }
  }
  PushToRing(std::move(overflow), dropped_);
}

void Tracer::DrainAllLocked() {
  BufferRegistry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const std::shared_ptr<ThreadBuffer>& buffer : registry.buffers) {
    std::vector<Event> pending;
    {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      pending.swap(buffer->events);
    }
    PushToRing(std::move(pending), dropped_);
  }
}

std::string Tracer::ExportChromeTraceJson() {
  DrainAllLocked();
  std::deque<Event> events;
  {
    Ring& ring = GlobalRing();
    std::lock_guard<std::mutex> lock(ring.mu);
    events.swap(ring.events);
  }
  dropped_.store(0, std::memory_order_relaxed);
  // Deterministic order for tests and stable diffs.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.tid < b.tid;
  });
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const Event& e : events) {
    AppendJsonEvent(out, e, first);
    first = false;
  }
  out += "\n]}\n";
  return out;
}

void Tracer::Discard() {
  DrainAllLocked();
  Ring& ring = GlobalRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.events.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

void Tracer::InstallExportFromEnv() {
  static bool installed = false;
  if (installed) return;
  const char* path = std::getenv("LDAPBOUND_TRACE_OUT");
  if (path == nullptr || path[0] == '\0') return;
  installed = true;
  static std::string out_path;
  out_path = path;
  Default().Enable();
  std::atexit([]() {
    std::string json = Default().ExportChromeTraceJson();
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) return;
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  });
}

}  // namespace ldapbound
