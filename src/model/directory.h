#ifndef LDAPBOUND_MODEL_DIRECTORY_H_
#define LDAPBOUND_MODEL_DIRECTORY_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/directory_snapshot.h"
#include "model/entry.h"
#include "model/entry_set.h"
#include "model/forest_index.h"
#include "model/value.h"
#include "model/vocabulary.h"
#include "util/cow.h"
#include "util/result.h"

namespace ldapbound {

/// Name-based description of an entry to create; the convenience layer over
/// the id-based Directory API. Attribute values are given as text and parsed
/// according to the attribute's declared type.
struct EntrySpec {
  std::string rdn;
  std::vector<std::string> classes;
  std::vector<std::pair<std::string, std::string>> values;
};

/// Shape summary of a directory instance (see Directory::ComputeStats).
struct DirectoryStats {
  size_t num_entries = 0;
  size_t num_roots = 0;
  size_t num_leaves = 0;
  size_t max_depth = 0;      ///< root depth 0
  double avg_depth = 0.0;
  size_t max_fanout = 0;
  size_t total_values = 0;   ///< (attribute, value) pairs, objectClass aside
  size_t total_classes = 0;  ///< class memberships
  std::vector<size_t> depth_histogram;  ///< index = depth, value = entries
};

/// A directory instance `D = (R, class, val, N)` (Definition 2.1): a finite
/// forest of entries, each belonging to a non-empty set of object classes
/// and holding typed (attribute, value) pairs.
///
/// Model-level invariants enforced here (independent of any schema):
///  - the graph is a forest: new entries are roots or children of existing
///    entries; only leaves can be deleted (the LDAP update rules of §4.1);
///  - `class(r)` is non-empty;
///  - values have the type declared for their attribute (Def. 2.1 3(a));
///  - the objectClass attribute mirrors `class(r)` exactly (Def. 2.1 3(b)):
///    objectClass values passed in are converted to class memberships;
///  - sibling RDNs are unique (distinguished names identify entries).
///
/// Entry ids are stable: deletion tombstones the slot and never reuses it,
/// so EntrySets and incremental-update bookkeeping stay valid across a
/// transaction. `version()` increments on every mutation; the preorder
/// index is kept *live* across mutations (gap-label maintenance in
/// ForestIndex, O(|Δ|) amortized per structural change), so GetIndex()
/// is O(1) and never rebuilds the whole directory.
///
/// The mutators also keep the snapshot mirrors (DESIGN.md §10) from
/// construction on: the alive set, the class and (attribute, value)
/// postings, the RDN index and the entry payloads. The head reads its
/// own mirrors (IsAlive, CountWithClass, ClassSet, ValuePosting), and
/// PublishSnapshot freezes them into the next immutable version.
class Directory {
 public:
  explicit Directory(std::shared_ptr<Vocabulary> vocab);

  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;
  Directory(Directory&&) = default;
  Directory& operator=(Directory&&) = default;

  const Vocabulary& vocab() const { return *vocab_; }
  Vocabulary& mutable_vocab() { return *vocab_; }
  const std::shared_ptr<Vocabulary>& vocab_ptr() const { return vocab_; }

  /// Creates an entry. `parent` must be alive, or kInvalidEntryId for a
  /// root. `classes` must be non-empty after folding in any objectClass
  /// values found in `values`.
  Result<EntryId> AddEntry(EntryId parent, std::string rdn,
                           std::vector<ClassId> classes,
                           std::vector<AttributeValue> values);

  /// Name-based convenience over AddEntry; parses values by attribute type
  /// (interning unknown attributes as string-typed).
  Result<EntryId> AddEntryFromSpec(EntryId parent, const EntrySpec& spec);

  /// Adds one value; no-op OK if the identical pair is already present.
  /// Adding an objectClass value is redirected to AddClass.
  Status AddValue(EntryId id, AttributeId attr, Value value);

  /// Removes one (attribute, value) pair; NotFound if absent.
  Status RemoveValue(EntryId id, AttributeId attr, const Value& value);

  /// Adds a class membership (and its implicit objectClass value).
  Status AddClass(EntryId id, ClassId cls);

  /// Removes a class membership; the entry must retain >= 1 class.
  Status RemoveClass(EntryId id, ClassId cls);

  /// Moves the subtree rooted at `id` under `new_parent` (kInvalidEntryId
  /// re-roots it). The LDAP ModDN operation. Fails if `new_parent` lies
  /// inside the moved subtree (would create a cycle) or a sibling RDN
  /// collides. Entry ids are preserved.
  Status MoveSubtree(EntryId id, EntryId new_parent);

  /// Renames an entry (changes its RDN); sibling RDNs must stay unique.
  Status Rename(EntryId id, std::string new_rdn);

  /// Deletes a leaf entry (LDAP permits deleting only leaves).
  Status DeleteLeaf(EntryId id);

  /// Deletes an entire subtree, leaves first.
  Status DeleteSubtree(EntryId id);

  bool IsAlive(EntryId id) const { return alive_->Contains(id); }

  /// Read access; `id` must be alive or tombstoned (but allocated).
  const Entry& entry(EntryId id) const { return entries_[id]; }

  /// Alive roots in insertion order.
  const std::vector<EntryId>& roots() const { return roots_; }

  /// Number of alive entries.
  size_t NumEntries() const { return num_alive_; }

  /// One past the largest allocated id; EntrySets over this directory use
  /// this as their capacity.
  size_t IdCapacity() const { return entries_.size(); }

  /// Number of alive entries that belong to class `c`: the class
  /// posting's count, the index that, per §4, makes required classes
  /// incrementally testable under deletion. Like every read of the live
  /// directory it is single-writer: call it on the writer's thread or
  /// with writers excluded (the server's write mutex). Readers
  /// concurrent with writers use DirectorySnapshot::CountWithClass.
  size_t CountWithClass(ClassId c) const {
    const std::shared_ptr<ClassPosting>* p = by_class_.Find(c);
    return p == nullptr ? 0 : (*p)->count;
  }

  /// Members of class `c`, or nullptr when no alive entry has it. As on
  /// DirectorySnapshot, the set's capacity may exceed IdCapacity().
  const EntrySet* ClassSet(ClassId c) const {
    const std::shared_ptr<ClassPosting>* p = by_class_.Find(c);
    return p == nullptr ? nullptr : &(*p)->members;
  }

  /// Alive entries carrying (attr, value), ascending; nullptr when none.
  const std::vector<EntryId>* ValuePosting(AttributeId attr,
                                           const Value& value) const {
    const std::shared_ptr<std::vector<EntryId>>* p =
        by_value_.Find(SnapshotValueKey{attr, value});
    return p == nullptr ? nullptr : p->get();
  }

  /// Monotonically increasing mutation counter.
  uint64_t version() const { return version_; }

  /// The preorder/interval index, maintained incrementally by the
  /// mutators. Always fresh; O(1).
  const ForestIndex& GetIndex() const { return index_; }

  /// Calls `fn(const Entry&)` for each alive entry in id order.
  template <typename Fn>
  void ForEachAlive(Fn&& fn) const {
    alive_->ForEach([&](EntryId id) { fn(entries_[id]); });
  }

  /// The set of all alive entries.
  EntrySet AliveSet() const;

  /// Finds the child of `parent` whose RDN equals `rdn` (case-insensitive);
  /// with parent == kInvalidEntryId, searches the roots. Returns
  /// kInvalidEntryId if absent.
  EntryId FindChildByRdn(EntryId parent, std::string_view rdn) const;

  /// All alive entries of the subtree rooted at `id`, preorder.
  std::vector<EntryId> SubtreeEntries(EntryId id) const;

  /// Shape summary of the instance; O(|D|).
  DirectoryStats ComputeStats() const;

  /// Sizes the mirrors' open deltas for a bulk load of `entries` entries
  /// holding `values` (attribute, value) pairs, objectClass aside, so the
  /// load rehashes each once.
  void Reserve(size_t entries, size_t values);

  /// Keys the mirrors' open deltas hold: what the next PublishSnapshot
  /// seals. Bounded by the keys changed since the last publish, however
  /// often each changed.
  size_t UnpublishedKeys() const;

  // -- MVCC snapshots (DESIGN.md §10) --

  /// Does nothing: the mirrors are kept from construction on. Its only
  /// caller is perfbench/src/replay.cc, which the next benchmark change
  /// updates; this shim goes with that call.
  void EnableSnapshots() {}

  /// Publishes an immutable snapshot of the current version (O(Δ) since
  /// the previous publish). Single-writer: call under the same exclusion
  /// as the mutators.
  void PublishSnapshot();

  /// Pins the latest published snapshot: version 0 (empty) until the
  /// first PublishSnapshot. Lock-free, callable from any thread
  /// concurrently with the writer.
  PinnedSnapshot PinSnapshot() const { return store_->Pin(); }

  /// The publication point, for metrics.
  const SnapshotStore& snapshot_store() const { return *store_; }

 private:
  Status CheckAlive(EntryId id) const;
  /// The child list of `parent`, or the roots for kInvalidEntryId.
  std::vector<EntryId>& SiblingList(EntryId parent);
  /// Appends `id` as the youngest child of `parent` (youngest root for
  /// kInvalidEntryId) / removes it from its parent's list, relinking the
  /// index's tree links to match.
  void Attach(EntryId id, EntryId parent);
  void Detach(EntryId id);
  // Key of the sibling-RDN uniqueness index: "<parent>/<lowercased rdn>".
  static std::string RdnKey(EntryId parent, std::string_view rdn);

  // Mirror upkeep:
  using ClassPosting = DirectorySnapshot::ClassPosting;
  /// Capacity snapshot EntrySets are built at: IdCapacity rounded up to
  /// a power of two, so growth reallocates postings O(log n) times.
  size_t PostingCapacity() const;
  EntrySet* MutableAlive();
  void TrackAlive(EntryId id, bool on);
  void TrackClass(EntryId id, ClassId cls, bool add);
  void TrackValue(EntryId id, AttributeId attr, const Value& value, bool add);
  /// Re-serializes entry `id`'s payload blob (DirectorySnapshot::
  /// PayloadMap format) into the pending delta; with alive == false the
  /// payload is dropped instead. Names resolve through the Vocabulary
  /// here, on the writer thread, so snapshot readers never touch it.
  void TrackEntryPayload(EntryId id, bool alive = true);

  std::shared_ptr<Vocabulary> vocab_;
  std::vector<Entry> entries_;
  std::vector<EntryId> roots_;
  /// Sibling-RDN uniqueness index; COW so each snapshot publish shares
  /// the map with prior versions.
  CowMap<std::string, EntryId> rdn_index_;
  size_t num_alive_ = 0;
  uint64_t version_ = 0;

  ForestIndex index_;  // live: maintained by the mutators

  // The snapshot mirrors, read by the head as well.
  /// The alive entries.
  std::shared_ptr<EntrySet> alive_;
  /// True while alive_ has not been captured by a publish (the writer
  /// may mutate it in place; else it clones first).
  bool alive_private_ = false;
  DirectorySnapshot::ClassPostingMap by_class_;
  DirectorySnapshot::ValuePostingMap by_value_;
  DirectorySnapshot::PayloadMap by_entry_;
  std::unique_ptr<SnapshotStore> store_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_MODEL_DIRECTORY_H_
