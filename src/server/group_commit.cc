#include "server/group_commit.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "server/request_stages.h"
#include "server/wal.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

struct GroupCommitMetrics {
  Histogram& batch_size;
  Counter& groups;
  Gauge& queue_depth;

  static GroupCommitMetrics& Get() {
    static GroupCommitMetrics m{
        MetricRegistry::Default().GetHistogram(
            "ldapbound_wal_group_commit_batch_size",
            "Commits per flushed WAL group (1 = no batching win)"),
        MetricRegistry::Default().GetCounter(
            "ldapbound_wal_group_commits_total",
            "WAL frame groups flushed (one fsync each)"),
        MetricRegistry::Default().GetGauge(
            "ldapbound_wal_group_commit_queue_depth",
            "Commits waiting in the group-commit queue"),
    };
    return m;
  }
};

}  // namespace

struct GroupCommitQueue::Ticket {
  enum class State { kQueued, kLeader, kDone };

  std::string payload;
  Deadline deadline;
  Status status = Status::OK();
  State state = State::kQueued;
  // Per-ticket wakeup: waiters sleep on their own condvar so finishing a
  // group wakes exactly its members, not every committer in the queue (a
  // notify_all herd serializes badly on few cores). Notified only under
  // mu_, so a waiter can never destroy the ticket mid-notify.
  std::condition_variable cv{};
};

GroupCommitQueue::GroupCommitQueue(WriteAheadLog* wal)
    : wal_(wal),
      max_batch_(std::max<size_t>(wal->options().group_commit_max_batch, 1)),
      hold_us_(wal->options().group_commit_hold_us) {}

GroupCommitQueue::~GroupCommitQueue() = default;

GroupCommitQueue::Ticket* GroupCommitQueue::Enqueue(std::string payload,
                                                    Deadline deadline) {
  // Request stage model: the durability wait starts here (the caller's
  // Wait ends it via WalPersist's kCommitDurable stamp).
  RequestScope::MarkCurrent(RequestStage::kCommitEnqueued);
  auto* ticket = new Ticket{std::move(payload), deadline};
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(ticket);
  depth_.store(queue_.size(), std::memory_order_relaxed);
  if (!flush_active_) {
    // No group is being flushed and nobody is leading: this commit opens
    // the next group and will flush it from its own Wait.
    flush_active_ = true;
    ticket->state = Ticket::State::kLeader;
  }
  GroupCommitMetrics::Get().queue_depth.Set(queue_.size());
  // Wake a leader holding its batch open for followers (only leaders and
  // Drain ever sleep on the queue-level condvar).
  cv_.notify_all();
  return ticket;
}

Status GroupCommitQueue::Wait(Ticket* ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  ticket->cv.wait(lock,
                  [&] { return ticket->state != Ticket::State::kQueued; });
  if (ticket->state == Ticket::State::kLeader) {
    LeadFlush(lock);  // flushes a group containing `ticket`
  }
  Status status = ticket->status;
  lock.unlock();
  delete ticket;
  return status;
}

void GroupCommitQueue::LeadFlush(std::unique_lock<std::mutex>& lock) {
  // Hold the group open so concurrent committers can join. A full batch
  // closes the window early; so does a slice of the window passing with
  // no new arrivals — once committers stop showing up, waiting out the
  // rest of the hold would add latency without adding batching.
  if (hold_us_ > 0 && queue_.size() < max_batch_ && !poisoned()) {
    auto hold_until = std::chrono::steady_clock::now() +
                      std::chrono::microseconds(hold_us_);
    // The hold window spends the queued commits' latency budgets to buy
    // batching; never spend past the tightest budget in the group.
    // (Deadlines of followers arriving mid-hold don't re-clamp — they
    // joined knowing the window was open.)
    for (const Ticket* t : queue_) {
      if (!t->deadline.infinite() && t->deadline.time() < hold_until) {
        hold_until = t->deadline.time();
      }
    }
    const auto slice = std::chrono::microseconds(hold_us_ / 4 + 1);
    size_t seen = queue_.size();
    while (!cv_.wait_for(lock, slice,
                         [&] { return queue_.size() >= max_batch_; })) {
      if (queue_.size() == seen ||
          std::chrono::steady_clock::now() >= hold_until) {
        break;
      }
      seen = queue_.size();
    }
  }
  size_t n = queue_.size() < max_batch_ ? queue_.size() : max_batch_;
  std::vector<Ticket*> batch(queue_.begin(), queue_.begin() + n);
  queue_.erase(queue_.begin(), queue_.begin() + n);
  depth_.store(queue_.size(), std::memory_order_relaxed);
  GroupCommitMetrics::Get().queue_depth.Set(queue_.size());

  Status status;
  if (poisoned()) {
    // An earlier group's flush failed: the durable log may end mid-way
    // through that group. Appending this one would yield a log that skips
    // the failed commits yet keeps later ones that may depend on them, so
    // fail fast with the WAL untouched until a resync re-bases the log on
    // current in-memory state.
    status = poison_status_;
  } else {
    lock.unlock();
    std::vector<std::string_view> payloads;
    payloads.reserve(batch.size());
    for (const Ticket* t : batch) payloads.push_back(t->payload);
    status = wal_->AppendGroup(payloads);
    GroupCommitMetrics::Get().batch_size.Observe(n);
    GroupCommitMetrics::Get().groups.Increment();
    lock.lock();
    if (!status.ok() && !poisoned()) {
      poison_status_ = Status(
          status.code(),
          "group-commit queue poisoned by failed WAL flush: " +
              std::string(status.message()));
      poisoned_.store(true, std::memory_order_release);
    }
  }

  for (Ticket* t : batch) {
    t->status = status;
    t->state = Ticket::State::kDone;
    t->cv.notify_one();
  }
  if (!queue_.empty()) {
    queue_.front()->state = Ticket::State::kLeader;
    queue_.front()->cv.notify_one();
  } else {
    flush_active_ = false;
  }
  // Usually nobody is here: only Drain sleeps on the queue condvar.
  cv_.notify_all();
}

void GroupCommitQueue::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return queue_.empty() && !flush_active_; });
}

void GroupCommitQueue::ResetAfterResync() {
  std::lock_guard<std::mutex> lock(mu_);
  // Caller holds the write mutex and drained the queue, so nothing can be
  // queued or flushing here; the resynced WAL supersedes every frame the
  // poisoned log may or may not have kept.
  poison_status_ = Status::OK();
  poisoned_.store(false, std::memory_order_release);
}

}  // namespace ldapbound
