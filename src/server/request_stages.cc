#include "server/request_stages.h"

#include <array>
#include <chrono>
#include <iterator>
#include <string>

#include "server/slow_ops.h"
#include "util/metrics.h"

namespace ldapbound {

namespace {

/// A stage pair a record renders as one span, in stamp order. Each is
/// also an ldapbound_wire_stage_ns histogram, `stage` being the label.
struct StagePair {
  const char* span;   // literal: Tracer::Event keeps the pointer
  const char* stage;  // histogram label
  RequestStage from;
  RequestStage to;
};

using S = RequestStage;
constexpr StagePair kPairs[] = {
    {"wire.dispatch", "dispatch", S::kDecoded, S::kEnqueued},
    {"wire.queue_wait", "queue_wait", S::kEnqueued, S::kExecuteStart},
    {"wire.execute", "execute", S::kExecuteStart, S::kExecuteDone},
    {"commit.lock_wait", "lock_wait", S::kAdmitted, S::kLocked},
    {"commit.validate", "validate", S::kLocked, S::kBodyDone},
    {"commit.publish", "publish", S::kBodyDone, S::kPublished},
    {"wire.commit_wait", "commit_wait", S::kCommitEnqueued, S::kCommitDurable},
    {"wire.completion", "completion", S::kExecuteDone, S::kResponseQueued},
    {"wire.write_back", "write_back", S::kResponseQueued, S::kBytesFlushed},
    {"wire.total", "total", S::kDecoded, S::kBytesFlushed},
};
constexpr size_t kNumPairs = std::size(kPairs);

/// The pairs' histograms, indexed like kPairs (registered once, leaked
/// with the registry — see util/metrics.h).
const std::array<Histogram*, kNumPairs>& StageHistograms() {
  static const auto* histograms = [] {
    auto* out = new std::array<Histogram*, kNumPairs>{};
    for (size_t i = 0; i < kNumPairs; ++i) {
      (*out)[i] = &MetricRegistry::Default().GetHistogram(
          "ldapbound_wire_stage_ns",
          "Per-stage wire request latency decomposition (DESIGN.md §13): "
          "dispatch = decode to enqueue, queue_wait = enqueue to worker "
          "(a read the reactor answers inline has neither), execute = "
          "execution on a worker or the reactor (commit_wait = its WAL "
          "durability "
          "share; lock_wait, validate and publish = a write's wait for "
          "the write mutex, its Figure-5 check and apply, and its "
          "snapshot publish), completion = execute done to response "
          "queued, "
          "write_back = response queued to bytes flushed, total = decode "
          "to flush",
          MakeLabel("stage", kPairs[i].stage));
    }
    return out;
  }();
  return *histograms;
}

}  // namespace

void FinishRequest(const RequestStamps& record, uint64_t end_ns,
                   SlowOpLog* log) {
  const bool wire = record.at(S::kDecoded) != 0;
  const bool traced = Tracer::Default().enabled();
  if (!wire && !traced && log == nullptr) return;

  // Every pair the request crossed in order, plus — for a library call,
  // which has no wire.total — one span for the whole op.
  const auto* histograms = wire ? &StageHistograms() : nullptr;
  Tracer::Event spans[kNumPairs + 1];
  size_t count = 0;
  for (size_t i = 0; i < kNumPairs; ++i) {
    const uint64_t from = record.at(kPairs[i].from);
    const uint64_t to = record.at(kPairs[i].to);
    if (from == 0 || to < from) continue;  // to == 0: never crossed
    spans[count++] = Tracer::Event{kPairs[i].span, 0, from, to - from};
    if (histograms != nullptr) (*histograms)[i]->Observe(to - from);
  }
  const uint64_t start_ns = wire ? record.at(S::kDecoded) : record.op_start_ns;
  const uint64_t duration_ns = end_ns - start_ns;
  if (!wire) {
    spans[count++] = Tracer::Event{record.op, 0, start_ns, duration_ns};
  }

  if (traced) {
    for (size_t i = 0; i < count; ++i) {
      Tracer::Default().Record(spans[i].name, spans[i].start_ns,
                               spans[i].dur_ns);
    }
  }
  if (log == nullptr) return;
  log->Offer(duration_ns, [&] {
    SlowOp op;
    op.op_id = record.op_id;
    op.op = record.op;
    op.target = record.op_start_ns == 0  // no op annotated it
                    ? "wire request " + std::to_string(record.request_id)
                    : record.target;
    op.outcome = record.outcome;
    op.detail = record.detail;
    op.explain = record.explain;
    const uint64_t now_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    const uint64_t duration_ms = duration_ns / 1000000;
    op.start_unix_ms = now_ms > duration_ms ? now_ms - duration_ms : 0;
    op.duration_ns = duration_ns;
    op.wire_request_id = record.request_id;
    op.spans.assign(spans, spans + count);
    return op;
  });
}

}  // namespace ldapbound
