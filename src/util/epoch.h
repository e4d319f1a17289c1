#ifndef LDAPBOUND_UTIL_EPOCH_H_
#define LDAPBOUND_UTIL_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace ldapbound {

/// Epoch-based reclamation: the grace-period primitive under the MVCC read
/// path. A publisher that replaces a shared immutable object (a
/// DirectorySnapshot) cannot free the old version while a reader may
/// still hold a raw pointer to it; reference
/// counting the pointer itself would put an atomic RMW on a shared cache
/// line into every read. Instead readers *pin an epoch*:
///
///  - each reader thread owns a cache-line-padded slot; entering a read
///    region stores the current global epoch into the slot (one RMW on a
///    line nobody else writes), leaving stores 0;
///  - retiring an object advances the global epoch and queues the object
///    with the epoch it was retired at;
///  - a retired object is freed once every active slot has observed a
///    LATER epoch (min active epoch > retire epoch): any reader still
///    inside an earlier epoch may hold the old pointer, any reader that
///    pinned after the advance can only have loaded the replacement,
///    because publishers swap the pointer *before* advancing.
///
/// Readers therefore never block, never touch a shared line, and never
/// observe a torn or freed object; writers pay one fetch_add plus an
/// O(#reader-threads) scan per retirement (amortizable via ReclaimSome).
///
/// All operations use seq_cst atomics — the protocol's "swap, advance,
/// scan" vs "pin, re-check, load" interleaving argument needs the single
/// total order, and RMWs (rather than fences) keep the reasoning visible
/// to ThreadSanitizer.
///
/// Slots are owned by a SlotArena that is shared between the manager and
/// the registering threads, so a thread exiting after its manager was
/// destroyed (or vice versa) releases its slot without touching freed
/// memory. Deleters queued at process exit may leak; the process-wide
/// Default() manager is never destroyed (like MetricRegistry).
class EpochManager {
 public:
  EpochManager();
  ~EpochManager();
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// The process-wide manager (never destroyed).
  static EpochManager& Default();

  struct Slot {
    /// Epoch this reader is pinned at; 0 = not in a read region.
    std::atomic<uint64_t> epoch{0};
    /// Claimed by a live thread (slots are recycled on thread exit).
    std::atomic<bool> in_use{false};
    char padding[64 - sizeof(std::atomic<uint64_t>) -
                 sizeof(std::atomic<bool>)];
  };

  /// RAII read-region pin. Movable; the moved-from pin is empty. Nested
  /// pins on the same thread are cheap (a depth counter — the outermost
  /// pin owns the slot epoch).
  class Pin {
   public:
    Pin() = default;
    ~Pin() { Release(); }
    Pin(Pin&& other) noexcept : mgr_(other.mgr_) { other.mgr_ = nullptr; }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        mgr_ = other.mgr_;
        other.mgr_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    bool pinned() const { return mgr_ != nullptr; }
    /// Leave the read region early (idempotent).
    void Release() {
      if (mgr_ != nullptr) {
        mgr_->Leave();
        mgr_ = nullptr;
      }
    }

   private:
    friend class EpochManager;
    explicit Pin(EpochManager* mgr) : mgr_(mgr) {}
    EpochManager* mgr_ = nullptr;
  };

  /// Enters a read region: pins this thread at the current epoch. Any
  /// epoch-protected pointer loaded while the Pin lives stays valid until
  /// the Pin is released.
  Pin Enter();

  /// Queues `deleter` to run once every reader active *now* has drained.
  /// The object it frees must already be unreachable to new readers (the
  /// publisher swapped it out before calling Retire). Thread-safe; the
  /// caller is typically the single publisher.
  void Retire(std::function<void()> deleter);

  /// Frees every retired object whose grace period has elapsed; returns
  /// how many were freed. Called by Retire; callers with long publish
  /// gaps can call it directly so reclamation is not deferred forever.
  size_t ReclaimSome();

  /// The current global epoch (starts at 1; 0 is the idle sentinel).
  uint64_t current_epoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }
  /// Retired-but-not-yet-freed deleters.
  size_t retired_pending() const;
  /// Reader threads currently inside a read region, counted from the
  /// slots when asked (the scan MinActiveEpoch does): a pin keeps no
  /// shared count, so this is a sample, exact once the readers are still.
  size_t live_readers() const;

 private:
  struct SlotArena {
    std::mutex mu;
    std::deque<Slot> slots;  // deque: stable addresses under growth
  };
  struct Retired {
    uint64_t epoch;
    std::function<void()> deleter;
  };

  void Leave();
  Slot* ThreadSlot();
  /// Smallest epoch pinned by any active reader; UINT64_MAX if none.
  uint64_t MinActiveEpoch() const;

  const uint64_t id_;  // process-unique, guards thread-local caching
  std::shared_ptr<SlotArena> arena_;
  std::atomic<uint64_t> global_epoch_{1};
  mutable std::mutex retired_mu_;
  std::vector<Retired> retired_;

  friend struct EpochTls;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_UTIL_EPOCH_H_
