#ifndef LDAPBOUND_MODEL_ENTRY_SET_H_
#define LDAPBOUND_MODEL_ENTRY_SET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ldapbound {

/// Identifier of a directory entry: a dense index into its Directory's
/// arrays (links, labels, contents). Ids are stable across deletions
/// (tombstoned, never reused).
using EntryId = uint32_t;

inline constexpr EntryId kInvalidEntryId = ~EntryId{0};

/// A set of entry ids: a table of fixed-width bitmap chunks, chunk c
/// holding ids [c·kChunkIds, (c+1)·kChunkIds), each held by shared_ptr.
/// This is the chunk partition of Roaring bitmaps (Chambi, Lemire, Kaser,
/// Godin, arXiv:1402.6407), with every chunk a bitmap. A chunk no member
/// has reached is absent, so a set has no capacity: it costs a table slot
/// per kChunkIds ids up to its largest member and a bitmap per chunk that
/// has held one.
///
/// Copying a set copies only the table: every chunk is then shared. A
/// write clones the one chunk it touches, and only when another set still
/// shares it (use_count() > 1, CowVec::Mutable's rule). So the directory
/// publishes its alive set and class postings as table copies, and a
/// commit clones the chunks it touches, whatever the id space.
///
/// Concurrency: a set object is read and written by one thread at a time,
/// but sets sharing chunks may live on different threads. A chunk only
/// this set holds was cloned by its writer or has been dropped by every
/// other set; a chunk another set can read is shared, so no write lands
/// in it.
class EntrySet {
 public:
  /// log2 of the ids per chunk: 4,096 ids, a 512-byte bitmap
  /// (DESIGN.md §10 has the rows that chose it).
  static constexpr unsigned kChunkBits = 12;
  static constexpr size_t kChunkIds = size_t{1} << kChunkBits;

  /// kInvalidEntryId is ignored: no table is ever sized to reach it.
  void Insert(EntryId id) {
    if (id == kInvalidEntryId) return;
    const size_t c = id >> kChunkBits;
    if (c < chunks_.size() && chunks_[c].use_count() == 1) {
      chunks_[c]->words[WordOf(id)] |= BitOf(id);  // this set alone holds it
    } else if (!Contains(id)) {
      if (c >= chunks_.size()) chunks_.resize(c + 1);
      std::shared_ptr<Chunk>& slot = chunks_[c];
      slot = slot ? std::make_shared<Chunk>(*slot) : std::make_shared<Chunk>();
      slot->words[WordOf(id)] |= BitOf(id);
    }
  }

  void Erase(EntryId id) {
    if (!Contains(id)) return;
    std::shared_ptr<Chunk>& slot = chunks_[id >> kChunkBits];
    if (slot.use_count() > 1) slot = std::make_shared<Chunk>(*slot);
    slot->words[WordOf(id)] &= ~BitOf(id);
  }

  bool Contains(EntryId id) const {
    const Chunk* chunk = At(id >> kChunkBits);
    return chunk != nullptr && (chunk->words[WordOf(id)] >> (id & 63)) & 1;
  }

  /// Number of ids in the set.
  size_t Count() const {
    size_t n = 0;
    for (const std::shared_ptr<Chunk>& chunk : chunks_) {
      if (chunk == nullptr) continue;
      for (uint64_t w : chunk->words) n += std::popcount(w);
    }
    return n;
  }

  bool Empty() const {
    return ForEachWhile([](EntryId) { return false; });
  }

  /// In-place union with `other`. A chunk only `other` holds is shared,
  /// not copied.
  void UnionWith(const EntrySet& other) {
    chunks_.resize(std::max(chunks_.size(), other.chunks_.size()));
    for (size_t c = 0; c < other.chunks_.size(); ++c) {
      const std::shared_ptr<Chunk>& theirs = other.chunks_[c];
      if (theirs == nullptr || chunks_[c] == theirs) continue;
      if (chunks_[c] == nullptr) {
        chunks_[c] = theirs;
      } else {
        Combine(chunks_[c], *theirs, [](uint64_t a, uint64_t b) {
          return a | b;
        });
      }
    }
  }

  /// In-place intersection with `other`: chunks `other` lacks are dropped.
  void IntersectWith(const EntrySet& other) {
    chunks_.resize(std::min(chunks_.size(), other.chunks_.size()));
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk* theirs = other.chunks_[c].get();
      if (theirs == nullptr) {
        chunks_[c].reset();
      } else if (chunks_[c] != nullptr && chunks_[c].get() != theirs) {
        Combine(chunks_[c], *theirs, [](uint64_t a, uint64_t b) {
          return a & b;
        });
      }
    }
  }

  /// In-place set difference: removes the ids present in `other`.
  void SubtractFrom(const EntrySet& other) {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk* theirs = other.At(c);
      if (chunks_[c] == nullptr || theirs == nullptr) continue;
      if (chunks_[c].get() == theirs) {
        chunks_[c].reset();
      } else {
        Combine(chunks_[c], *theirs, [](uint64_t a, uint64_t b) {
          return a & ~b;
        });
      }
    }
  }

  /// True iff the sets share at least one id; exits at the first
  /// overlapping word, so disproving emptiness of an intersection needs no
  /// materialized result.
  bool Intersects(const EntrySet& other) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk* a = chunks_[c].get();
      const Chunk* b = other.At(c);
      if (a == nullptr || b == nullptr) continue;
      for (size_t w = 0; w < kWords; ++w) {
        if (a->words[w] & b->words[w]) return true;
      }
    }
    return false;
  }

  /// True iff every id of this set is also in `other`; exits at the first
  /// word with a surviving id. `A.IsSubsetOf(B)` is the lazy emptiness test
  /// for the difference query `(? A B)`.
  bool IsSubsetOf(const EntrySet& other) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk* a = chunks_[c].get();
      const Chunk* b = other.At(c) != nullptr ? other.At(c) : &kNone;
      if (a == nullptr || a == b) continue;
      for (size_t w = 0; w < kWords; ++w) {
        if (a->words[w] & ~b->words[w]) return false;
      }
    }
    return true;
  }

  /// Calls `fn(id)` for every id in the set in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachWhile([&fn](EntryId id) {
      fn(id);
      return true;
    });
  }

  /// ForEach that stops early: `fn(id)` returns false to stop iterating.
  /// Returns true iff iteration ran to completion (fn never said stop).
  template <typename Fn>
  bool ForEachWhile(Fn&& fn) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk* chunk = chunks_[c].get();
      if (chunk == nullptr) continue;
      for (size_t w = 0; w < kWords; ++w) {
        for (uint64_t bits = chunk->words[w]; bits != 0; bits &= bits - 1) {
          const size_t id = (c << kChunkBits) + w * 64 + std::countr_zero(bits);
          if (!fn(static_cast<EntryId>(id))) return false;
        }
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

  /// Same members, however each set was built.
  friend bool operator==(const EntrySet& a, const EntrySet& b) {
    return a.IsSubsetOf(b) && b.IsSubsetOf(a);
  }

 private:
  static constexpr size_t kWords = kChunkIds / 64;

  /// May hold no id: an Erase leaves its chunk in place, so a churned
  /// range costs no allocation per id.
  struct Chunk {
    uint64_t words[kWords];
  };
  static constexpr Chunk kNone{};

  static size_t WordOf(EntryId id) { return (id >> 6) & (kWords - 1); }
  static uint64_t BitOf(EntryId id) { return uint64_t{1} << (id & 63); }

  /// Chunk `c`, or nullptr when it is absent or past the table.
  const Chunk* At(size_t c) const {
    return c < chunks_.size() ? chunks_[c].get() : nullptr;
  }

  /// Sets present chunk `slot` to op(slot, theirs), word by word: in place
  /// when this set alone holds it, else in a fresh chunk. An empty result
  /// leaves the slot absent.
  template <typename Op>
  static void Combine(std::shared_ptr<Chunk>& slot, const Chunk& theirs,
                      Op op) {
    std::shared_ptr<Chunk> out =
        slot.use_count() == 1 ? slot : std::make_shared_for_overwrite<Chunk>();
    uint64_t any = 0;
    for (size_t w = 0; w < kWords; ++w) {
      out->words[w] = op(slot->words[w], theirs.words[w]);
      any |= out->words[w];
    }
    slot = any != 0 ? std::move(out) : nullptr;
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_MODEL_ENTRY_SET_H_
