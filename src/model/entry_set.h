#ifndef LDAPBOUND_MODEL_ENTRY_SET_H_
#define LDAPBOUND_MODEL_ENTRY_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ldapbound {

/// Identifier of a directory entry: a dense index into its Directory's
/// arrays (links, labels, contents). Ids are stable across deletions
/// (tombstoned, never reused).
using EntryId = uint32_t;

inline constexpr EntryId kInvalidEntryId = ~EntryId{0};

/// A set of entry ids, stored as a bitmap sized to the Directory's id
/// capacity. Query evaluation represents intermediate and final results as
/// EntrySets so that set algebra (union, difference) is O(|D|/64).
class EntrySet {
 public:
  EntrySet() = default;
  /// Creates an empty set able to hold ids in [0, capacity).
  explicit EntrySet(size_t capacity)
      : capacity_(capacity), words_((capacity + 63) / 64, 0) {}

  size_t capacity() const { return capacity_; }

  /// Out-of-range ids are ignored: Contains could never report them, and
  /// without the guard an id past the capacity scribbles over the heap
  /// (Contains bounds-checks, Insert/Erase historically did not).
  void Insert(EntryId id) {
    if (id >= capacity_) return;
    words_[id >> 6] |= uint64_t{1} << (id & 63);
  }
  void Erase(EntryId id) {
    if (id >= capacity_) return;
    words_[id >> 6] &= ~(uint64_t{1} << (id & 63));
  }
  bool Contains(EntryId id) const {
    return id < capacity_ && (words_[id >> 6] >> (id & 63)) & 1;
  }

  /// Number of ids in the set.
  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  /// min(Count(), k): stops counting as soon as `k` members are seen, so
  /// threshold tests ("is this set bigger than |D|/8?") cost O(k/64 + 1)
  /// words on dense sets instead of a full popcount pass.
  size_t CountUpTo(size_t k) const {
    size_t n = 0;
    for (uint64_t w : words_) {
      n += static_cast<size_t>(__builtin_popcountll(w));
      if (n >= k) return k;
    }
    return n;
  }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  void Clear() {
    for (uint64_t& w : words_) w = 0;
  }

  /// Changes the capacity, keeping members below the new bound. Growth
  /// zero-fills; shrinking drops out-of-range members and clears any
  /// stray bits in the (now) last word so word-wise algebra against
  /// other sets of the new capacity stays exact. Needed when combining
  /// sets built at different id capacities (e.g. an MVCC snapshot's
  /// postings vs a freshly sized scratch set).
  void Resize(size_t capacity) {
    words_.resize((capacity + 63) / 64, 0);
    capacity_ = capacity;
    if (capacity & 63) {
      if (!words_.empty()) {
        words_.back() &= ~uint64_t{0} >> (64 - (capacity & 63));
      }
    }
  }

  /// In-place union with `other` (capacities must match).
  void UnionWith(const EntrySet& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// In-place intersection with `other`.
  void IntersectWith(const EntrySet& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  }

  /// In-place set difference: removes the ids present in `other`.
  void SubtractFrom(const EntrySet& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  }

  /// True iff the sets share at least one id; exits at the first
  /// overlapping word, so disproving emptiness of an intersection needs no
  /// materialized result bitmap.
  bool Intersects(const EntrySet& other) const {
    size_t n = std::min(words_.size(), other.words_.size());
    for (size_t i = 0; i < n; ++i) {
      if (words_[i] & other.words_[i]) return true;
    }
    return false;
  }

  /// True iff every id of this set is also in `other`; exits at the first
  /// word with a surviving id. `A.IsSubsetOf(B)` is the lazy emptiness test
  /// for the difference query `(? A B)`.
  bool IsSubsetOf(const EntrySet& other) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t w = words_[i];
      if (w == 0) continue;
      uint64_t o = i < other.words_.size() ? other.words_[i] : 0;
      if (w & ~o) return false;
    }
    return true;
  }

  /// True iff some member lies in [lo, hi). Masks the boundary words and
  /// exits at the first non-zero word; preorder-interval emptiness tests
  /// use this against subtree ranges.
  bool AnyInRange(size_t lo, size_t hi) const {
    if (hi > capacity_) hi = capacity_;
    if (lo >= hi) return false;
    const size_t first = lo >> 6;
    const size_t last = (hi - 1) >> 6;
    const uint64_t first_mask = ~uint64_t{0} << (lo & 63);
    const uint64_t last_mask =
        ~uint64_t{0} >> (63 - ((hi - 1) & 63));
    if (first == last) return (words_[first] & first_mask & last_mask) != 0;
    if (words_[first] & first_mask) return true;
    for (size_t i = first + 1; i < last; ++i) {
      if (words_[i] != 0) return true;
    }
    return (words_[last] & last_mask) != 0;
  }

  /// Calls `fn(id)` for every id in the set in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t w = words_[i];
      while (w != 0) {
        int bit = __builtin_ctzll(w);
        fn(static_cast<EntryId>(i * 64 + bit));
        w &= w - 1;
      }
    }
  }

  /// ForEach that stops early: `fn(id)` returns false to stop iterating.
  /// Returns true iff iteration ran to completion (fn never said stop).
  template <typename Fn>
  bool ForEachWhile(Fn&& fn) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t w = words_[i];
      while (w != 0) {
        int bit = __builtin_ctzll(w);
        if (!fn(static_cast<EntryId>(i * 64 + bit))) return false;
        w &= w - 1;
      }
    }
    return true;
  }

  /// All ids in the set, in increasing order.
  std::vector<EntryId> ToVector() const {
    std::vector<EntryId> out;
    out.reserve(Count());
    ForEach([&out](EntryId id) { out.push_back(id); });
    return out;
  }

  friend bool operator==(const EntrySet& a, const EntrySet& b) {
    return a.capacity_ == b.capacity_ && a.words_ == b.words_;
  }

 private:
  size_t capacity_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_MODEL_ENTRY_SET_H_
