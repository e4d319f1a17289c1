#ifndef LDAPBOUND_MODEL_DIRECTORY_SNAPSHOT_H_
#define LDAPBOUND_MODEL_DIRECTORY_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model/axis.h"
#include "model/entry_set.h"
#include "model/forest_index.h"
#include "model/value.h"
#include "model/vocabulary.h"
#include "util/cow.h"
#include "util/epoch.h"

namespace ldapbound {

/// (attribute, value) key of the snapshot value-posting map, which
/// answers `(attr=value)` selections for the query evaluator and the wire
/// search path.
struct SnapshotValueKey {
  AttributeId attribute = 0;
  Value value;

  friend bool operator==(const SnapshotValueKey& a, const SnapshotValueKey& b) {
    return a.attribute == b.attribute && a.value == b.value;
  }
};

struct SnapshotValueKeyHash {
  size_t operator()(const SnapshotValueKey& k) const {
    return k.value.Hash() * 1000003 + k.attribute;
  }
};

/// Key of the sibling-RDN uniqueness index: "<parent>/<lowercased rdn>".
/// Shared between Directory (writer side) and DirectorySnapshot lookups.
std::string SnapshotRdnKey(EntryId parent, std::string_view rdn);

/// An immutable, point-in-time view of one committed directory version —
/// the unit the MVCC read path publishes and readers pin.
///
/// Everything a structural legality check or a value lookup needs is
/// reachable from here without touching the live Directory: the
/// order-maintenance label views (hierarchy axes), the alive bitmap,
/// per-class and per-(attribute,value) postings, and the sibling-RDN
/// index. All members are either plain values or shared COW state;
/// copying costs a handful of refcounts, and holding a snapshot keeps
/// exactly the chunks/overlays of its version alive — untouched parts
/// are shared with neighboring versions.
///
/// The label views also carry the forest's tree links, so a scoped read
/// walks just its scope (WalkScope) instead of filtering a posting that
/// spans the whole directory.
///
/// NOTE: live Entry objects mutate in place, so snapshot readers must
/// never dereference into Directory::entry(). Entry *content* is instead
/// carried as immutable pre-serialized payload blobs (`by_entry`),
/// re-serialized by the writer whenever an entry's rdn/classes/values
/// change — readers get stable bytes, and the serving path concatenates
/// them onto the wire without touching the Vocabulary (which is not
/// read-safe against writer interning).
struct DirectorySnapshot {
  /// One class's members at a version, with their number kept in step
  /// by the writer, so a population read costs no pass over the bitmap.
  struct ClassPosting {
    EntrySet members;
    size_t count = 0;
  };

  // Payload pointers are non-const shared_ptrs so the single writer can
  // mutate a payload it cloned within the current (unfrozen) delta;
  // once a payload reaches a frozen View it is never written again
  // (clone-once-per-delta discipline, see CowMap::Mutable).
  using ClassPostingMap = CowMap<ClassId, std::shared_ptr<ClassPosting>>;
  using ValuePostingMap =
      CowMap<SnapshotValueKey, std::shared_ptr<std::vector<EntryId>>,
             SnapshotValueKeyHash>;
  using RdnMap = CowMap<std::string, EntryId>;
  /// Per-entry payload blobs in the wire's little-endian encoding
  /// (server/wire.h primitives — strings are u32 length + bytes):
  ///
  ///   str rdn | u16 nclasses | nclasses × str class-name |
  ///   u16 nvalues | nvalues × (str attr-name, str value-text)
  ///
  /// Payloads are write-once: every mutation stores a freshly serialized
  /// blob, so a shared_ptr handed out by a frozen View never changes.
  using PayloadMap = CowMap<EntryId, std::shared_ptr<const std::string>>;

  uint64_t version = 0;
  size_t id_capacity = 0;
  size_t num_alive = 0;

  /// Labels / end labels / tree links by entry id.
  ForestIndex::LabelViews index;

  /// Alive entries at this version.
  std::shared_ptr<const EntrySet> alive;

  ClassPostingMap::View by_class;
  ValuePostingMap::View by_value;
  RdnMap::View rdn;
  PayloadMap::View by_entry;

  /// Members of class `cls`, or nullptr when no alive entry has it. The
  /// returned set may have capacity != id_capacity (postings grow in
  /// doubling steps); ids past id_capacity are never set.
  const EntrySet* ClassSet(ClassId cls) const {
    const std::shared_ptr<ClassPosting>* p = by_class.Find(cls);
    return p == nullptr ? nullptr : &(*p)->members;
  }

  /// Alive entries carrying (attr, value), ascending; nullptr when none.
  const std::vector<EntryId>* ValuePosting(AttributeId attr,
                                           const Value& value) const {
    const std::shared_ptr<std::vector<EntryId>>* p =
        by_value.Find(SnapshotValueKey{attr, value});
    return p == nullptr ? nullptr : p->get();
  }

  /// Population of class `cls` at this version. O(1).
  size_t CountWithClass(ClassId cls) const {
    const std::shared_ptr<ClassPosting>* p = by_class.Find(cls);
    return p == nullptr ? 0 : (*p)->count;
  }

  /// The child of `parent` with (case-insensitive) RDN `rdn`, or
  /// kInvalidEntryId. Mirrors Directory::FindChildByRdn.
  EntryId FindChildByRdn(EntryId parent, std::string_view rdn) const;

  /// The serialized payload of entry `id` at this version, or nullptr for
  /// ids this snapshot does not know (dead, or never had a payload).
  const std::string* EntryPayload(EntryId id) const {
    const std::shared_ptr<const std::string>* p = by_entry.Find(id);
    return p == nullptr ? nullptr : p->get();
  }

  bool IsAlive(EntryId id) const { return alive->Contains(id); }
  EntryId parent(EntryId id) const { return index.links.Get(id, {}).parent; }

  /// Calls `visit(id)` for every alive entry of `scope` under `base`, in
  /// preorder (= ascending label order), skipping entries whose label is
  /// below `from_label`; `visit` returns false to stop. `base` must be
  /// alive, or kInvalidEntryId for the whole forest (whose kBase scope is
  /// empty and whose kOneLevel scope is the roots). Walks the tree links,
  /// so it touches only the scope: O(1) per visited entry after an
  /// O(depth × fanout) descent to the first label >= `from_label`.
  /// Returns false iff `visit` stopped the walk.
  template <typename Visit>
  bool WalkScope(EntryId base, SearchScope scope, uint64_t from_label,
                 Visit&& visit) const;
};

template <typename Visit>
bool DirectorySnapshot::WalkScope(EntryId base, SearchScope scope,
                                  uint64_t from_label, Visit&& visit) const {
  const ForestIndex::LabelViews& v = index;
  auto first_child = [&](EntryId id) {
    return id == kInvalidEntryId ? v.first_root : v.links[id].first_child;
  };
  switch (scope) {
    case SearchScope::kBase:
      return base == kInvalidEntryId || v.labels[base] < from_label ||
             visit(base);
    case SearchScope::kOneLevel:
      for (EntryId c = first_child(base); c != kInvalidEntryId;
           c = v.links[c].next_sibling) {
        if (v.labels[c] >= from_label && !visit(c)) return false;
      }
      return true;
    case SearchScope::kSubtree:
      break;
  }
  // The preorder successor of `id`'s whole subtree, within the scope.
  auto after = [&](EntryId id) {
    for (; id != base; id = v.links[id].parent) {
      if (v.links[id].next_sibling != kInvalidEntryId) {
        return v.links[id].next_sibling;
      }
    }
    return kInvalidEntryId;
  };
  auto next = [&](EntryId id) {
    EntryId child = first_child(id);
    return child != kInvalidEntryId ? child : after(id);
  };
  // Descend to the first entry labeled >= from_label: skip the subtrees
  // that end at or before it, enter the one whose interval holds it.
  EntryId cur = base == kInvalidEntryId ? v.first_root : base;
  while (cur != kInvalidEntryId && v.labels[cur] < from_label) {
    cur = v.end_labels[cur] <= from_label ? after(cur) : next(cur);
  }
  for (; cur != kInvalidEntryId; cur = next(cur)) {
    if (!visit(cur)) return false;
  }
  return true;
}

/// A snapshot pointer held open by an epoch pin: the snapshot (and every
/// older structure it shares) cannot be reclaimed while this object
/// lives. Short-lived by design — hold for one query/check, not across
/// blocking waits; only a default-constructed or released PinnedSnapshot
/// is empty (get() == nullptr). Must not outlive the SnapshotStore.
class PinnedSnapshot {
 public:
  PinnedSnapshot() = default;
  PinnedSnapshot(EpochManager::Pin pin, const DirectorySnapshot* snap)
      : pin_(std::move(pin)), snap_(snap) {}
  PinnedSnapshot(PinnedSnapshot&&) = default;
  PinnedSnapshot& operator=(PinnedSnapshot&&) = default;

  const DirectorySnapshot* get() const { return snap_; }
  const DirectorySnapshot& operator*() const { return *snap_; }
  const DirectorySnapshot* operator->() const { return snap_; }
  explicit operator bool() const { return snap_ != nullptr; }

  /// Drop the pin early (idempotent).
  void Release() {
    snap_ = nullptr;
    pin_.Release();
  }

 private:
  EpochManager::Pin pin_;
  const DirectorySnapshot* snap_ = nullptr;
};

/// Publication point of the MVCC read path: one atomic head pointer.
/// The single writer (under the server commit lock) calls Publish; any
/// thread calls Pin to get a consistent snapshot with no lock and no
/// copy. Old heads are retired through the EpochManager and freed once
/// the last reader pinned at or before their version drains.
class SnapshotStore {
 public:
  explicit SnapshotStore(EpochManager& epochs) : epochs_(&epochs) {}
  ~SnapshotStore() {
    // Retired heads were handed to the EpochManager; the current head
    // is ours. The owner guarantees no pins remain.
    delete head_.load(std::memory_order_seq_cst);
  }
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Takes ownership of `snap` and makes it the head. Single writer.
  void Publish(const DirectorySnapshot* snap);

  /// The current head, held open by an epoch pin. Lock-free.
  PinnedSnapshot Pin() const {
    EpochManager::Pin pin = epochs_->Enter();
    const DirectorySnapshot* snap = head_.load(std::memory_order_seq_cst);
    return PinnedSnapshot(std::move(pin), snap);
  }

  /// Snapshots retired but not yet reclaimed (grace period pending).
  size_t reclaim_lag() const { return epochs_->retired_pending(); }
  EpochManager& epochs() const { return *epochs_; }

 private:
  EpochManager* epochs_;
  std::atomic<const DirectorySnapshot*> head_{nullptr};
};

}  // namespace ldapbound

#endif  // LDAPBOUND_MODEL_DIRECTORY_SNAPSHOT_H_
