#ifndef LDAPBOUND_UTIL_COW_H_
#define LDAPBOUND_UTIL_COW_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ldapbound {

/// Copy-on-write containers backing O(Δ) snapshot publication.
///
/// The MVCC read path (DESIGN.md §10) publishes an immutable view of the
/// directory's hot arrays and maps after every commit. Copying them
/// outright would make publication O(directory); these containers make
/// it O(Δ·chunk): the writer mutates privately, and Freeze() produces an
/// immutable view that shares every untouched chunk/overlay with the
/// previous view.
///
/// Concurrency contract (both containers): exactly one writer thread
/// mutates; frozen View objects are immutable and safe to read from any
/// thread. The writer/reader handoff happens through the snapshot
/// publication pointer (seq_cst), not inside these classes — a View must
/// reach readers only via such a publication.

/// Chunked copy-on-write vector. Elements live in fixed-size chunks held
/// by shared_ptr; Set() clones a chunk only if a frozen View still
/// shares it (use_count > 1), so a commit touching Δ elements costs at
/// most Δ chunk copies and Freeze() costs one pointer-table copy.
template <typename T>
class CowVec {
 public:
  static constexpr size_t kChunkBits = 10;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;  // 8KB @ u64

  struct Chunk {
    T data[kChunkSize];
  };

  /// Immutable point-in-time view. Cheap to copy (shares chunks).
  class View {
   public:
    View() = default;

    size_t size() const { return size_; }
    const T& operator[](size_t i) const {
      return chunks_[i >> kChunkBits]->data[i & (kChunkSize - 1)];
    }
    /// operator[] with a default for out-of-range indexes, so views
    /// taken at different capacities compare painlessly.
    T Get(size_t i, T fallback) const {
      return i < size_ ? (*this)[i] : fallback;
    }

   private:
    friend class CowVec;
    std::vector<std::shared_ptr<const Chunk>> chunks_;
    size_t size_ = 0;
  };

  CowVec() = default;

  size_t size() const { return size_; }

  const T& operator[](size_t i) const {
    return chunks_[i >> kChunkBits]->data[i & (kChunkSize - 1)];
  }

  void Set(size_t i, const T& value) { Mutable(i) = value; }

  /// Writable element `i`, its chunk cloned first if a frozen View
  /// shares it — for updating one field of a struct element.
  T& Mutable(size_t i) {
    return MutableChunk(i >> kChunkBits)->data[i & (kChunkSize - 1)];
  }

  /// Grows to `n` elements, filling new space with `fill`. Never
  /// shrinks (EntryIds are append-only).
  void Resize(size_t n, const T& fill) {
    if (n <= size_) return;
    size_t need = (n + kChunkSize - 1) >> kChunkBits;
    while (chunks_.size() < need) {
      auto chunk = std::make_shared<Chunk>();
      std::fill(std::begin(chunk->data), std::end(chunk->data), fill);
      chunks_.push_back(std::move(chunk));
    }
    // Fill the tail of the previously-last chunk.
    for (size_t i = size_; i < n && (i >> kChunkBits) < chunks_.size(); ++i) {
      if ((*this)[i] == fill) continue;  // freshly-made chunks already filled
      Set(i, fill);
    }
    size_ = n;
  }

  /// Immutable view of the current contents: one pointer-table copy,
  /// after which every chunk is shared and the writer reverts to
  /// clone-before-write for each.
  View Freeze() const {
    View v;
    v.chunks_.assign(chunks_.begin(), chunks_.end());
    v.size_ = size_;
    return v;
  }

 private:
  Chunk* MutableChunk(size_t ci) {
    std::shared_ptr<const Chunk>& slot = chunks_[ci];
    if (slot.use_count() > 1) {
      slot = std::make_shared<Chunk>(*slot);  // a frozen View shares it
    }
    return const_cast<Chunk*>(slot.get());
  }

  std::vector<std::shared_ptr<const Chunk>> chunks_;
  size_t size_ = 0;
};

/// Copy-on-write hash map: a shared immutable base plus a chain of
/// overlay deltas. The writer mutates only the newest (mutable) overlay;
/// Freeze() seals it into the chain and starts a fresh one, so a commit
/// group of Δ keys publishes in O(Δ). The base and every overlay are one
/// map type whose entries are optional values; nullopt is a tombstone
/// shadowing older state. Lookup walks overlays newest→oldest, then the
/// base. Two mechanisms bound the chain without ever paying O(base) for
/// an O(Δ) commit: adjacent overlays of similar size are merged
/// binary-counter style (chain depth and per-entry recopying both
/// O(log)), and the whole chain is folded into a fresh base only once
/// the overlay volume is a constant fraction of the base — so the
/// O(base) fold is amortized over O(base) delta entries. A fold into an
/// empty base with one sealed overlay (the first Freeze after a bulk
/// load) adopts that overlay as the base and copies nothing.
template <typename K, typename V, typename Hash = std::hash<K>>
class CowMap {
 public:
  using Map = std::unordered_map<K, std::optional<V>, Hash>;

  /// Immutable point-in-time view (shares base + sealed overlays).
  class View {
   public:
    View() = default;

    const V* Find(const K& key) const {
      return FindInChain(overlays_, base_.get(), key);
    }

    /// Visits every live (non-tombstoned) entry, in no particular
    /// order. Intended for tests and audits, not hot paths.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      auto shadowed = [&](const K& key, size_t newer_than) {
        for (size_t i = overlays_.size(); i-- > newer_than;) {
          if (overlays_[i]->count(key) != 0) return true;
        }
        return false;
      };
      for (size_t i = overlays_.size(); i-- > 0;) {
        for (const auto& [key, value] : *overlays_[i]) {
          if (value.has_value() && !shadowed(key, i + 1)) fn(key, *value);
        }
      }
      if (base_ != nullptr) {
        for (const auto& [key, value] : *base_) {
          if (value.has_value() && !shadowed(key, 0)) fn(key, *value);
        }
      }
    }

   private:
    friend class CowMap;
    std::shared_ptr<const Map> base_;
    std::vector<std::shared_ptr<const Map>> overlays_;  // old→new
  };

  CowMap() : base_(std::make_shared<Map>()) {}

  void Set(K key, V value) {
    mutable_overlay_.insert_or_assign(std::move(key), std::move(value));
  }

  /// Removes `key`. A tombstone goes into the open delta only when frozen
  /// state holds the key; a key no Freeze has sealed has nothing to
  /// shadow and simply leaves the delta. So a writer that never freezes
  /// keeps its delta at the live keys, however many come and go. One
  /// chain probe per erase.
  void Erase(const K& key) {
    if (FindInChain(sealed_, base_.get(), key) == nullptr) {
      mutable_overlay_.erase(key);
    } else {
      mutable_overlay_.insert_or_assign(key, std::nullopt);
    }
  }

  /// Sizes the open delta for `n` more keys, so a bulk build rehashes
  /// once.
  void Reserve(size_t n) {
    mutable_overlay_.reserve(mutable_overlay_.size() + n);
  }

  /// Keys (tombstones included) the open delta holds: what the next
  /// Freeze seals.
  size_t OpenDeltaSize() const { return mutable_overlay_.size(); }

  /// The writer-private value for `key` in the open delta, in one probe
  /// of it. The first touch since the last Freeze stores `make(frozen)`
  /// there, where `frozen` points at the value frozen state holds for
  /// `key` (nullptr when absent), or is nullptr when this delta erased
  /// it; later touches return the same value in place. A value a Freeze
  /// has sealed is never handed out: for pointer-like V, `make` clones
  /// the pointee, and the writer may mutate the clone until the next
  /// Freeze, since no frozen View can reference it. This is the
  /// clone-once-per-delta discipline payload maps (class/value
  /// postings) rely on.
  template <typename Make>
  V& Mutable(const K& key, Make&& make) {
    auto [it, inserted] = mutable_overlay_.try_emplace(key);
    if (!it->second.has_value()) {
      it->second = make(inserted ? FindInChain(sealed_, base_.get(), key)
                                 : nullptr);
    }
    return *it->second;
  }

  const V* Find(const K& key) const {
    auto in_mutable = mutable_overlay_.find(key);
    if (in_mutable != mutable_overlay_.end()) {
      return in_mutable->second.has_value() ? &*in_mutable->second : nullptr;
    }
    return FindInChain(sealed_, base_.get(), key);
  }

  /// Seals the pending delta and returns an immutable view of the
  /// whole map. A per-commit Δ of k keys costs O(k) amortized: small
  /// overlays are merged pairwise while similar in size (each entry is
  /// recopied O(log) times), and the O(base) fold runs only after
  /// O(base) worth of delta entries accumulated.
  View Freeze() {
    if (!mutable_overlay_.empty()) {
      sealed_.push_back(
          std::make_shared<const Map>(std::move(mutable_overlay_)));
      mutable_overlay_.clear();  // moved-from: restore known-empty state
      sealed_entries_ += sealed_.back()->size();
    }
    if (sealed_entries_ > base_->size() / 4 + 64) {
      Fold();
    } else {
      // Binary-counter compaction: merge the newest overlay into its
      // predecessor while it has grown at least as large, keeping the
      // chain O(log sealed_entries_) deep. Frozen Views hold their own
      // copies of the chain, so replacing overlays here is safe.
      while (sealed_.size() >= 2 &&
             sealed_.back()->size() >= sealed_[sealed_.size() - 2]->size()) {
        auto merged =
            std::make_shared<Map>(*sealed_[sealed_.size() - 2]);
        for (const auto& [key, value] : *sealed_.back()) {
          (*merged)[key] = value;  // newer wins; tombstones shadow base
        }
        const size_t before =
            sealed_[sealed_.size() - 2]->size() + sealed_.back()->size();
        sealed_.pop_back();
        sealed_.pop_back();
        sealed_entries_ -= before - merged->size();
        sealed_.push_back(std::move(merged));
      }
    }
    View v;
    v.base_ = base_;
    v.overlays_.assign(sealed_.begin(), sealed_.end());
    return v;
  }

  /// Live entries as seen by the writer (base + deltas). O(chain).
  size_t SizeSlow() const {
    size_t n = 0;
    View v;
    v.base_ = base_;
    v.overlays_.assign(sealed_.begin(), sealed_.end());
    // Count the mutable overlay too.
    v.ForEach([&](const K&, const V&) { ++n; });
    for (const auto& [key, value] : mutable_overlay_) {
      const V* under = v.Find(key);
      if (value.has_value() && under == nullptr) ++n;
      if (!value.has_value() && under != nullptr) --n;
    }
    return n;
  }

 private:
  /// `key`'s value in `overlays` (old→new, searched newest first) over
  /// `base`; nullptr when absent or a tombstone.
  static const V* FindInChain(
      const std::vector<std::shared_ptr<const Map>>& overlays,
      const Map* base, const K& key) {
    for (auto it = overlays.rbegin(); it != overlays.rend(); ++it) {
      auto found = (*it)->find(key);
      if (found != (*it)->end()) {
        return found->second.has_value() ? &*found->second : nullptr;
      }
    }
    if (base == nullptr || base->empty()) return nullptr;  // no key hash
    auto found = base->find(key);
    return found != base->end() && found->second.has_value()
               ? &*found->second
               : nullptr;
  }

  void Fold() {
    if (base_->empty() && sealed_.size() == 1) {
      // Sealed overlays are immutable, so the one overlay can serve as
      // the base as it is; Views that hold it as an overlay keep reading
      // it. Its tombstones stay until the next fold, and lookups skip
      // them.
      base_ = std::move(sealed_.front());
    } else {
      auto folded = std::make_shared<Map>(*base_);
      for (const auto& overlay : sealed_) {
        for (const auto& [key, value] : *overlay) (*folded)[key] = value;
      }
      std::erase_if(*folded, [](const auto& kv) { return !kv.second; });
      base_ = std::move(folded);
    }
    sealed_.clear();
    sealed_entries_ = 0;
  }

  std::shared_ptr<const Map> base_;
  std::vector<std::shared_ptr<const Map>> sealed_;  // old→new
  size_t sealed_entries_ = 0;
  Map mutable_overlay_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_UTIL_COW_H_
