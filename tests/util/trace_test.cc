#include "util/trace.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"

namespace ldapbound {
namespace {

// The tracer is a process-wide singleton; every test starts by disabling
// and discarding so scenarios stay isolated.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Default().Disable();
    Tracer::Default().Discard();
  }
  void TearDown() override {
    Tracer::Default().Disable();
    Tracer::Default().Discard();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  { LDAPBOUND_TRACE_SPAN("should.not.appear"); }
  Tracer::Default().Record("also.not", 1, 2);
  std::string json = Tracer::Default().ExportChromeTraceJson();
  EXPECT_EQ(json.find("should.not.appear"), std::string::npos) << json;
  EXPECT_EQ(json.find("also.not"), std::string::npos) << json;
}

TEST_F(TraceTest, EnabledSpansAppearInExport) {
  Tracer::Default().Enable();
  {
    LDAPBOUND_TRACE_SPAN("outer.span");
    { LDAPBOUND_TRACE_SPAN("inner.span"); }
  }
  std::string json = Tracer::Default().ExportChromeTraceJson();
  EXPECT_NE(json.find("\"outer.span\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"inner.span\""), std::string::npos) << json;
  // Chrome trace_event shape: complete events with timestamps/durations.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;
}

TEST_F(TraceTest, ExportDrains) {
  Tracer::Default().Enable();
  { LDAPBOUND_TRACE_SPAN("once.only"); }
  std::string first = Tracer::Default().ExportChromeTraceJson();
  EXPECT_NE(first.find("once.only"), std::string::npos);
  std::string second = Tracer::Default().ExportChromeTraceJson();
  EXPECT_EQ(second.find("once.only"), std::string::npos) << second;
}

TEST_F(TraceTest, DiscardDropsBufferedSpans) {
  Tracer::Default().Enable();
  { LDAPBOUND_TRACE_SPAN("discarded"); }
  Tracer::Default().Discard();
  std::string json = Tracer::Default().ExportChromeTraceJson();
  EXPECT_EQ(json.find("discarded"), std::string::npos) << json;
}

TEST_F(TraceTest, ManyThreadsRecordConcurrently) {
  Tracer::Default().Enable();
  constexpr int kThreads = 8;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        LDAPBOUND_TRACE_SPAN("threaded.span");
      }
    });
  }
  for (auto& t : threads) t.join();
  // Dying threads flushed their buffers into the ring; anything evicted
  // bumped dropped(), which the export resets — read it first.
  uint64_t dropped = Tracer::Default().dropped();
  std::string json = Tracer::Default().ExportChromeTraceJson();
  size_t events = 0;
  for (size_t pos = json.find("threaded.span"); pos != std::string::npos;
       pos = json.find("threaded.span", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events + dropped, static_cast<size_t>(kThreads) * kSpans);
}

TEST_F(TraceTest, DroppedSpansFeedTheMetricCounter) {
  Counter& dropped_total = MetricRegistry::Default().GetCounter(
      "ldapbound_trace_dropped_spans_total",
      "Trace spans evicted from the ring before export (ring overflow)");
  uint64_t before = dropped_total.Value();
  Tracer::Default().Enable();
  // Overflow the 2^16-event ring from one thread; evictions must show up
  // both on dropped() and on the process-wide metric.
  constexpr int kSpans = (1 << 16) + 4096;
  for (int i = 0; i < kSpans; ++i) {
    Tracer::Default().Record("overflow.span", 1, 1);
  }
  Tracer::Default().Discard();  // drains the thread buffer, evicting more
  uint64_t metric_delta = dropped_total.Value() - before;
  EXPECT_GE(metric_delta, static_cast<uint64_t>(4096));
}

}  // namespace
}  // namespace ldapbound
