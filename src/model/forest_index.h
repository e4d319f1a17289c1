#ifndef LDAPBOUND_MODEL_FOREST_INDEX_H_
#define LDAPBOUND_MODEL_FOREST_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

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
/// The index also holds the forest's only copy: the tree links
/// (TreeLinks) give each entry its parent, first and last child and
/// previous and next sibling, and first_root/last_root end the roots.
/// Every list is in sibling order, which is label order. OnInsert,
/// OnMove and OnErase append a youngest sibling or splice one out in
/// O(1) link writes, whatever the fanout. Children() and Preorder() read
/// the head's links; LabelViews has both for a snapshot's.
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
  /// parent, a leaf's children, an end of a sibling list). One struct
  /// rather than five arrays, so a snapshot publish freezes one array for
  /// all of them. Why a last-child link: DESIGN.md §9.
  struct TreeLinks {
    EntryId parent = kInvalidEntryId;
    EntryId first_child = kInvalidEntryId;
    EntryId last_child = kInvalidEntryId;
    EntryId prev_sibling = kInvalidEntryId;
    EntryId next_sibling = kInvalidEntryId;
    friend bool operator==(const TreeLinks&, const TreeLinks&) = default;
  };

  /// The children of `parent` (the roots for kInvalidEntryId) in sibling
  /// order: a forward range over `Links`, the head's CowVec<TreeLinks> or
  /// a snapshot's View.
  template <typename Links>
  class SiblingRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = EntryId;
      using difference_type = std::ptrdiff_t;
      using pointer = const EntryId*;
      using reference = EntryId;

      iterator(const Links* links, EntryId id) : links_(links), id_(id) {}
      EntryId operator*() const { return id_; }
      iterator& operator++() {
        id_ = (*links_)[id_].next_sibling;
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.id_ == b.id_;
      }

     private:
      const Links* links_;
      EntryId id_;
    };

    SiblingRange(const Links& links, EntryId first_root, EntryId parent)
        : links_(&links),
          first_(parent == kInvalidEntryId ? first_root
                                           : links[parent].first_child) {}
    iterator begin() const { return iterator(links_, first_); }
    iterator end() const { return iterator(links_, kInvalidEntryId); }
    bool empty() const { return first_ == kInvalidEntryId; }
    EntryId front() const { return first_; }

   private:
    const Links* links_;
    EntryId first_;
  };

  /// A preorder walk of the subtree at `top` (the whole forest for
  /// kInvalidEntryId) over `Links`, one step at a time and with no stack:
  /// Next() goes to the first child, else to the next sibling of the
  /// nearest ancestor-or-self inside the subtree; Skip() leaves the
  /// current entry's subtree. depth() counts from `top`'s level (0).
  template <typename Links>
  class PreorderWalk {
   public:
    PreorderWalk(const Links& links, EntryId first_root, EntryId top)
        : links_(&links),
          top_(top),
          id_(top == kInvalidEntryId ? first_root : top) {}

    bool done() const { return id_ == kInvalidEntryId; }
    EntryId id() const { return id_; }
    size_t depth() const { return depth_; }

    void Next() {
      const EntryId child = (*links_)[id_].first_child;
      if (child == kInvalidEntryId) return Skip();
      id_ = child;
      ++depth_;
    }
    void Skip() {
      for (; id_ != top_; id_ = (*links_)[id_].parent, --depth_) {
        const EntryId next = (*links_)[id_].next_sibling;
        if (next != kInvalidEntryId) {
          id_ = next;
          return;
        }
      }
      id_ = kInvalidEntryId;
    }

   private:
    const Links* links_;
    EntryId top_;
    EntryId id_;
    size_t depth_ = 0;
  };

  using ChildRange = SiblingRange<CowVec<TreeLinks>>;
  using Walk = PreorderWalk<CowVec<TreeLinks>>;

  /// Immutable point-in-time view of the label state and tree links,
  /// shared with published DirectorySnapshots. links[id] is only
  /// meaningful for ids whose label != kNoLabel (dead entries keep a
  /// stale parent and siblings).
  struct LabelViews {
    using Links = CowVec<TreeLinks>::View;

    CowVec<uint64_t>::View labels;
    CowVec<uint64_t>::View end_labels;
    Links links;
    EntryId first_root = kInvalidEntryId;

    SiblingRange<Links> Children(EntryId parent) const {
      return SiblingRange<Links>(links, first_root, parent);
    }
    PreorderWalk<Links> Preorder(EntryId top) const {
      return PreorderWalk<Links>(links, first_root, top);
    }
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

  /// The children of alive `parent`, or the roots; see SiblingRange.
  ChildRange Children(EntryId parent) const {
    return ChildRange(links_, first_root_, parent);
  }

  /// Preorder over alive `top`'s subtree, or the forest; see PreorderWalk.
  Walk Preorder(EntryId top) const { return Walk(links_, first_root_, top); }

  /// True if `anc` is a proper ancestor of `desc`. O(1) on the labels;
  /// out-of-range and dead ids are never ancestors.
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
  LabelViews FreezeViews() {
    return LabelViews{labels_.Freeze(), end_labels_.Freeze(),
                      links_.Freeze(), first_root_};
  }

  /// Audit of the incremental state, O(|D|). The links must be coherent:
  /// each child names its parent, previous and next siblings mirror each
  /// other, and the first/last links end every list and the roots. A
  /// preorder walk of the links must reach exactly `d`'s alive entries,
  /// in strictly increasing label order, each label interval nested in
  /// its parent's and ending at or before the next sibling's label — so
  /// each interval holds exactly its subtree. The property tests run
  /// this after every mutation; the maintenance code uses the same
  /// invariants to decide when to fall back to a full rebuild.
  bool EquivalentToFresh(const Directory& d) const;

 private:
  friend class Directory;

  // -- Incremental maintenance (called by Directory; single-writer) --

  /// Links fresh leaf `id` as the youngest child of `parent` (youngest
  /// root for kInvalidEntryId) and claims it a label slice, relabeling
  /// locally when exhausted.
  void OnInsert(EntryId parent, EntryId id);
  /// Unlinks leaf `id` and clears its labels. O(1).
  void OnErase(EntryId id);
  /// Relinks the subtree at `id` as the youngest child of `new_parent`
  /// and relabels its k entries.
  void OnMove(EntryId id, EntryId new_parent);

  /// Appends `id` (with its subtree) as the youngest sibling under
  /// `parent` / splices it out of its sibling list. O(1).
  void Link(EntryId parent, EntryId id);
  void Unlink(EntryId id);

  /// Shared insert/move placement: claims a slice of the parent's free
  /// tail for the (already linked, youngest-sibling) subtree at `id`,
  /// relabeling locally on exhaustion.
  void PlaceSubtree(EntryId id);

  /// Full fallback: redistribute every alive entry over [0, kLabelSpace).
  void RebuildFromScratch();

  /// Finds the nearest ancestor of `parent` (inclusive; kInvalidEntryId =
  /// the whole forest) whose span affords kMinSpread per entry, and
  /// redistributes its region. Labels any linked-but-unlabeled entries in
  /// the region as a side effect.
  void Relabel(EntryId parent);

  /// Redistributes the interval [lo, lo+width) over the subtree rooted at
  /// `id` (labels and end labels), children packed into the
  /// first half of the usable space so every entry keeps a growth tail.
  void AssignInterval(EntryId id, uint64_t lo, uint64_t width);

  // Label state: always fresh, maintained incrementally. By entry id.
  // CowVec so FreezeViews() shares untouched chunks with prior
  // snapshots instead of copying O(directory) per publish.
  CowVec<uint64_t> labels_;
  CowVec<uint64_t> end_labels_;
  // The forest: maintained by Link/Unlink independently of the labels.
  CowVec<TreeLinks> links_;
  EntryId first_root_ = kInvalidEntryId;
  EntryId last_root_ = kInvalidEntryId;
  size_t num_alive_ = 0;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_MODEL_FOREST_INDEX_H_
