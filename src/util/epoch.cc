#include "util/epoch.h"

#include <algorithm>
#include <limits>

namespace ldapbound {

namespace {

std::atomic<uint64_t> g_next_manager_id{1};

}  // namespace

/// Per-thread slot cache. One thread can hold slots in several managers
/// (the process Default() plus test-local ones); entries co-own the
/// arena so releasing at thread exit is safe even if the manager died
/// first. Managers are identified by process-unique id, never by
/// pointer, so a recycled allocation cannot alias a stale cache entry.
struct EpochTls {
  struct Entry {
    uint64_t manager_id = 0;
    std::shared_ptr<EpochManager::SlotArena> arena;
    EpochManager::Slot* slot = nullptr;
    int depth = 0;  // nested-pin count; outermost pin owns slot->epoch
  };
  std::vector<Entry> entries;

  ~EpochTls() {
    for (Entry& e : entries) {
      if (e.slot != nullptr) {
        e.slot->epoch.store(0, std::memory_order_seq_cst);
        e.slot->in_use.store(false, std::memory_order_seq_cst);
      }
    }
  }

  Entry& EntryFor(const EpochManager& mgr) {
    for (Entry& e : entries) {
      if (e.manager_id == mgr.id_) return e;
    }
    entries.push_back(Entry{mgr.id_, mgr.arena_, nullptr, 0});
    return entries.back();
  }

  static EpochTls& Get() {
    thread_local EpochTls tls;
    return tls;
  }
};

EpochManager::EpochManager()
    : id_(g_next_manager_id.fetch_add(1, std::memory_order_relaxed)),
      arena_(std::make_shared<SlotArena>()) {}

EpochManager::~EpochManager() {
  // Any still-queued deleters have no readers left that this manager
  // knows about; run them. (Live pins outliving the manager are a
  // caller bug — Pins hold a raw manager pointer.)
  std::vector<Retired> pending;
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    pending.swap(retired_);
  }
  for (Retired& r : pending) r.deleter();
}

EpochManager& EpochManager::Default() {
  static EpochManager* mgr = new EpochManager();  // never destroyed
  return *mgr;
}

EpochManager::Slot* EpochManager::ThreadSlot() {
  EpochTls::Entry& entry = EpochTls::Get().EntryFor(*this);
  if (entry.slot == nullptr) {
    std::lock_guard<std::mutex> lock(arena_->mu);
    for (Slot& s : arena_->slots) {
      if (!s.in_use.load(std::memory_order_seq_cst)) {
        s.in_use.store(true, std::memory_order_seq_cst);
        entry.slot = &s;
        break;
      }
    }
    if (entry.slot == nullptr) {
      arena_->slots.emplace_back();  // deque: addresses stay stable
      arena_->slots.back().in_use.store(true, std::memory_order_seq_cst);
      entry.slot = &arena_->slots.back();
    }
  }
  return entry.slot;
}

EpochManager::Pin EpochManager::Enter() {
  EpochTls::Entry& entry = EpochTls::Get().EntryFor(*this);
  if (entry.depth++ > 0) return Pin(this);  // nested: slot already pinned

  Slot* slot = ThreadSlot();
  // Publish the epoch we are entering, then re-check: if the global
  // epoch advanced between our load and our store, a concurrent Retire
  // may have scanned past this slot before our pin became visible, so
  // re-pin at the newer epoch until stable. exchange (an RMW) rather
  // than a fence keeps the seq_cst ordering argument explicit and
  // TSan-visible.
  uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot->epoch.exchange(e, std::memory_order_seq_cst);
    uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
  }
  return Pin(this);
}

void EpochManager::Leave() {
  EpochTls::Entry& entry = EpochTls::Get().EntryFor(*this);
  if (--entry.depth > 0) return;
  entry.slot->epoch.store(0, std::memory_order_seq_cst);
}

void EpochManager::Retire(std::function<void()> deleter) {
  // Advance first, then record: everything pinned before the advance
  // is at an epoch <= the retire epoch and thus blocks reclamation.
  uint64_t retire_epoch =
      global_epoch_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    retired_.push_back(Retired{retire_epoch, std::move(deleter)});
  }
  ReclaimSome();
}

uint64_t EpochManager::MinActiveEpoch() const {
  uint64_t min_epoch = std::numeric_limits<uint64_t>::max();
  std::lock_guard<std::mutex> lock(arena_->mu);
  for (const Slot& s : arena_->slots) {
    uint64_t e = s.epoch.load(std::memory_order_seq_cst);
    if (e != 0 && e < min_epoch) min_epoch = e;
  }
  return min_epoch;
}

size_t EpochManager::ReclaimSome() {
  // A slot pinned at epoch e may hold pointers retired at epoch >= e
  // (the reader loaded the head before those retirements swapped it
  // out), so only items with retire_epoch < min active epoch are safe.
  uint64_t min_epoch = MinActiveEpoch();
  std::vector<Retired> ready;
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    auto keep = retired_.begin();
    for (auto it = retired_.begin(); it != retired_.end(); ++it) {
      if (it->epoch < min_epoch) {
        ready.push_back(std::move(*it));
      } else {
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    retired_.erase(keep, retired_.end());
  }
  // Deleters run outside both locks: they may be arbitrarily heavy
  // (freeing a whole snapshot) and must not block readers registering.
  for (Retired& r : ready) r.deleter();
  return ready.size();
}

size_t EpochManager::retired_pending() const {
  std::lock_guard<std::mutex> lock(retired_mu_);
  return retired_.size();
}

size_t EpochManager::live_readers() const {
  size_t n = 0;
  std::lock_guard<std::mutex> lock(arena_->mu);
  for (const Slot& s : arena_->slots) {
    if (s.epoch.load(std::memory_order_seq_cst) != 0) ++n;
  }
  return n;
}

}  // namespace ldapbound
