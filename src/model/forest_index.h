#ifndef LDAPBOUND_MODEL_FOREST_INDEX_H_
#define LDAPBOUND_MODEL_FOREST_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/entry_set.h"
#include "util/cow.h"

namespace ldapbound {

class Directory;

/// Positional index of a directory forest, maintained *incrementally*
/// across mutations.
///
/// The paper's Section 3.2 evaluates structural operators over the
/// interval encoding of Jagadish et al. (SIGMOD'99): every entry owns a
/// preorder interval that strictly contains the intervals of its
/// descendants. The seed implementation stored dense preorder positions
/// and rebuilt them in O(|D|) after every mutation — exactly the
/// full-directory cost that Section 4 makes avoidable for updates. This
/// index instead keeps *gap-based (order-maintenance) labels*:
///
///  - every alive entry owns a half-open label interval
///    [label(id), end_label(id)) nested strictly inside its parent's
///    interval, siblings in insertion order; the forest as a whole lives
///    in [0, kLabelSpace);
///  - inserting a leaf claims a slice of its parent's free tail in O(1),
///    with no allocation;
///    deleting a leaf clears its labels in O(1) (the tail slice is reused
///    when the freed entry was the youngest sibling); moving a subtree
///    relabels only the k moved entries;
///  - when a parent's interval is exhausted, the nearest ancestor whose
///    span still affords kMinSpread labels per entry is relabeled locally
///    (amortized: a redistributed region must absorb a number of inserts
///    proportional to its size before it can exhaust again);
///  - if no ancestor qualifies, or an invariant check on the local state
///    fails, the index falls back to a full rebuild (a redistribution over
///    the whole label space), counted separately.
///
/// Beside the labels the index keeps the forest's tree structure as
/// links (TreeLinks): each entry's parent, first child and next sibling,
/// plus the first root, threading every child list (and the roots) in
/// sibling order — which is label order. Directory relinks them where
/// its child lists change (add, move, leaf delete), O(1) writes per
/// commit whatever the fanout.
///
/// The label/link arrays are chunked copy-on-write vectors
/// (CowVec): FreezeViews() hands an immutable point-in-time view of all
/// of them (LabelViews) to the MVCC snapshot publisher in O(Δ·chunk).
/// The query evaluator answers all four hierarchy axes from the parent
/// links alone, live or frozen (query/evaluator.h), and
/// DirectorySnapshot::WalkScope walks a search scope in preorder over the
/// links, touching only the scope. Nothing keeps a dense preorder array.
///
/// Concurrency contract: mutation is single-writer, and const readers of
/// a live index must be excluded from the writer; the MVCC snapshot
/// views are the supported way to read concurrently with writers.
class ForestIndex {
 public:
  /// Label of a dead (or never-inserted) entry.
  static constexpr uint64_t kNoLabel = ~uint64_t{0};
  /// The forest owns labels in [0, kLabelSpace).
  static constexpr uint64_t kLabelSpace = uint64_t{1} << 62;
  /// Growth room a fresh leaf aims to reserve for its future subtree.
  static constexpr uint64_t kLeafStride = uint64_t{1} << 16;
  /// Minimum per-entry span an ancestor must afford to absorb a local
  /// relabel (>= 4x kLeafStride so a redistributed region absorbs O(size)
  /// further inserts before exhausting again).
  static constexpr uint64_t kMinSpread = uint64_t{1} << 18;

  /// An entry's place in the forest; kInvalidEntryId = none (a root's
  /// parent, a leaf's first child, a youngest sibling's next sibling).
  /// One struct rather than three arrays, so a snapshot publish freezes
  /// one array for all of them.
  struct TreeLinks {
    EntryId parent = kInvalidEntryId;
    EntryId first_child = kInvalidEntryId;
    EntryId next_sibling = kInvalidEntryId;
    friend bool operator==(const TreeLinks&, const TreeLinks&) = default;
  };

  /// Immutable point-in-time view of the label state and tree links,
  /// shared with published DirectorySnapshots. links[id] is only
  /// meaningful for ids whose label != kNoLabel (dead entries keep a
  /// stale parent and next sibling).
  struct LabelViews {
    CowVec<uint64_t>::View labels;
    CowVec<uint64_t>::View end_labels;
    CowVec<TreeLinks>::View links;
    EntryId first_root = kInvalidEntryId;
    size_t num_alive = 0;
  };

  ForestIndex() = default;
  ForestIndex(const ForestIndex&) = delete;
  ForestIndex& operator=(const ForestIndex&) = delete;
  ForestIndex(ForestIndex&&) noexcept = default;
  ForestIndex& operator=(ForestIndex&&) noexcept = default;

  /// Parent of `id`; kInvalidEntryId for roots and out-of-range ids
  /// (dead entries keep a stale parent). O(1), from the tree links.
  EntryId parent(EntryId id) const {
    return id < links_.size() ? links_[id].parent : kInvalidEntryId;
  }

  /// True if `anc` is a proper ancestor of `desc`. O(1) on the labels;
  /// out-of-range and dead ids are never ancestors (ids beyond the
  /// labeled range are ignored, like EntrySet does).
  bool IsAncestor(EntryId anc, EntryId desc) const {
    if (anc >= labels_.size() || desc >= labels_.size()) return false;
    uint64_t la = labels_[anc];
    uint64_t ld = labels_[desc];
    if (la == kNoLabel || ld == kNoLabel) return false;
    return la < ld && ld < end_labels_[anc];
  }

  /// The order-maintenance label interval of `id`; kNoLabel when dead or
  /// out of range. Exposed for tests and diagnostics.
  uint64_t label(EntryId id) const {
    return id < labels_.size() ? labels_[id] : kNoLabel;
  }
  uint64_t end_label(EntryId id) const {
    return id < end_labels_.size() ? end_labels_[id] : kNoLabel;
  }

  /// Number of alive entries.
  size_t num_entries() const { return num_alive_; }

  /// O(Δ·chunk) immutable view of the current labels for snapshot
  /// publication. Single-writer (called under the commit lock).
  LabelViews FreezeViews() const {
    return LabelViews{labels_.Freeze(), end_labels_.Freeze(),
                      links_.Freeze(), first_root_, num_alive_};
  }

  /// Equivalence check against a fresh build: the label order must induce
  /// exactly the DFS preorder of `d`, each label interval must hold
  /// exactly its subtree, and the links must name
  /// every parent and thread every child list and the roots in order.
  /// O(|D|). The property tests run
  /// this after every mutation; the maintenance code uses the same
  /// invariants to decide when to fall back to a full rebuild.
  bool EquivalentToFresh(const Directory& d) const;

 private:
  friend class Directory;

  // -- Incremental maintenance (called by Directory; single-writer) --

  /// `id` was just linked as the youngest child of its parent (or youngest
  /// root). Claims a label slice, relabeling locally when exhausted.
  void OnInsert(const Directory& d, EntryId id);
  /// `id` was just unlinked (leaf deletion). O(1).
  void OnErase(EntryId id);
  /// The subtree rooted at `id` was just re-linked under a new parent
  /// (youngest child). Relabels the k moved entries.
  void OnMove(const Directory& d, EntryId id);

  /// Link upkeep, called by Directory where a child list (or the root
  /// list) of `parent` changes; `prev` is the sibling just before `id`
  /// in that list, kInvalidEntryId when `id` is (was) first. Link
  /// appends `id` (with its subtree) as the youngest sibling; Unlink
  /// splices it out.
  void Link(EntryId parent, EntryId prev, EntryId id);
  void Unlink(EntryId parent, EntryId prev, EntryId id);
  /// Sets first_root_ when `parent` is kInvalidEntryId, else the
  /// parent's first_child link.
  void SetFirst(EntryId parent, EntryId id);

  /// Shared insert/move placement: claims a slice of the parent's free
  /// tail for the (already linked, youngest-sibling) subtree at `id`,
  /// relabeling locally on exhaustion.
  void PlaceSubtree(const Directory& d, EntryId id);

  /// Full fallback: redistribute every alive entry over [0, kLabelSpace).
  void RebuildFromScratch(const Directory& d);

  /// Finds the nearest ancestor of `parent` (inclusive; kInvalidEntryId =
  /// the whole forest) whose span affords kMinSpread per entry, and
  /// redistributes its region. Labels any linked-but-unlabeled entries in
  /// the region as a side effect.
  void Relabel(const Directory& d, EntryId parent);

  /// Redistributes the interval [lo, lo+width) over the subtree rooted at
  /// `id` (labels and end labels), children packed into the
  /// first half of the usable space so every entry keeps a growth tail.
  void AssignInterval(const Directory& d, EntryId id, uint64_t lo,
                      uint64_t width);

  void EnsureCapacity(size_t id_capacity);

  // Label state: always fresh, maintained incrementally. By entry id.
  // CowVec so FreezeViews() shares untouched chunks with prior
  // snapshots instead of copying O(directory) per publish.
  CowVec<uint64_t> labels_;
  CowVec<uint64_t> end_labels_;
  // Tree links, maintained by Link/Unlink independently of the labels.
  CowVec<TreeLinks> links_;
  EntryId first_root_ = kInvalidEntryId;
  size_t num_alive_ = 0;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_MODEL_FOREST_INDEX_H_
