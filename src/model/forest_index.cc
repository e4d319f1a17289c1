#include "model/forest_index.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "model/directory.h"
#include "util/metrics.h"

namespace ldapbound {

namespace {

struct IndexMetrics {
  Counter& relabels;
  Counter& full_rebuilds;
  static IndexMetrics& Get() {
    static IndexMetrics m{
        MetricRegistry::Default().GetCounter(
            "ldapbound_index_relabels_total",
            "Local label redistributions performed by incremental "
            "ForestIndex maintenance"),
        MetricRegistry::Default().GetCounter(
            "ldapbound_index_full_rebuilds_total",
            "Whole-label-space ForestIndex rebuilds (the fallback when no "
            "ancestor can absorb a local relabel)")};
    return m;
  }
};

using SizeMap = std::unordered_map<EntryId, uint64_t>;

/// Fills `sizes` with the subtree size (alive entries, root included) of
/// every entry in the subtree at `root`; returns sizes[root].
uint64_t ComputeSizes(const CowVec<ForestIndex::TreeLinks>& links,
                      EntryId root, SizeMap& sizes) {
  // Reverse preorder reaches every child before its parent.
  std::vector<EntryId> order;
  for (ForestIndex::Walk w(links, kInvalidEntryId, root); !w.done();
       w.Next()) {
    order.push_back(w.id());
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const uint64_t size = ++sizes[*it];  // 1 + its children's sizes
    if (*it != root) sizes[links[*it].parent] += size;
  }
  return sizes[root];
}

/// share * num / den without overflow (share can be near 2^62).
uint64_t ProportionalShare(uint64_t share, uint64_t num, uint64_t den) {
  return static_cast<uint64_t>(static_cast<unsigned __int128>(share) * num /
                               den);
}

/// Slice of a parent's free tail that a fresh subtree of `bare` entries
/// claims: aim for kLeafStride of growth room per entry, at least 1/64 of
/// the tail (wide fanouts keep proportional room, so a region absorbs a
/// number of inserts proportional to its span before exhausting), at most
/// 1/4 of it (later siblings do not starve), and always at least the
/// `bare` labels the entries themselves need. Caller guarantees
/// bare <= avail.
uint64_t AllocWidth(uint64_t avail, uint64_t bare) {
  uint64_t want = bare < (uint64_t{1} << 40)
                      ? bare * ForestIndex::kLeafStride
                      : avail;
  uint64_t w = std::max(want, avail / 64);
  w = std::min(w, avail / 4);
  w = std::max(w, bare);
  return std::min(w, avail);
}

}  // namespace

void ForestIndex::Link(EntryId parent, EntryId id) {
  EntryId& last = parent == kInvalidEntryId
                      ? last_root_
                      : links_.Mutable(parent).last_child;
  const EntryId prev = last;
  last = id;
  if (prev == kInvalidEntryId) {
    (parent == kInvalidEntryId ? first_root_
                               : links_.Mutable(parent).first_child) = id;
  } else {
    links_.Mutable(prev).next_sibling = id;
  }
  TreeLinks& self = links_.Mutable(id);  // keeps a moved subtree's children
  self.parent = parent;
  self.prev_sibling = prev;
  self.next_sibling = kInvalidEntryId;
}

void ForestIndex::Unlink(EntryId id) {
  const TreeLinks self = links_[id];
  const bool root = self.parent == kInvalidEntryId;
  if (self.prev_sibling == kInvalidEntryId) {
    (root ? first_root_ : links_.Mutable(self.parent).first_child) =
        self.next_sibling;
  } else {
    links_.Mutable(self.prev_sibling).next_sibling = self.next_sibling;
  }
  if (self.next_sibling == kInvalidEntryId) {
    (root ? last_root_ : links_.Mutable(self.parent).last_child) =
        self.prev_sibling;
  } else {
    links_.Mutable(self.next_sibling).prev_sibling = self.prev_sibling;
  }
}

void ForestIndex::OnInsert(EntryId parent, EntryId id) {
  labels_.Resize(size_t{id} + 1, kNoLabel);  // a fresh id is the largest
  end_labels_.Resize(size_t{id} + 1, kNoLabel);
  links_.Resize(size_t{id} + 1, TreeLinks{});
  Link(parent, id);
  ++num_alive_;
  PlaceSubtree(id);
}

void ForestIndex::OnErase(EntryId id) {
  Unlink(id);
  labels_.Set(id, kNoLabel);
  end_labels_.Set(id, kNoLabel);
  --num_alive_;
}

void ForestIndex::OnMove(EntryId id, EntryId new_parent) {
  Unlink(id);
  Link(new_parent, id);
  PlaceSubtree(id);
}

void ForestIndex::PlaceSubtree(EntryId id) {
  const TreeLinks self = links_[id];
  const EntryId parent = self.parent;

  // Work out the free window [next, hi) at the parent's tail, verifying
  // the local invariants as we go; any violation means the incremental
  // state cannot be trusted, and the guarded fallback is a full rebuild.
  uint64_t next = 0;
  uint64_t hi = kLabelSpace;
  bool sane = (parent == kInvalidEntryId ? last_root_
                                         : links_[parent].last_child) == id;
  if (sane && parent != kInvalidEntryId) {
    sane = labels_[parent] != kNoLabel;
    if (sane) {
      next = labels_[parent] + 1;
      hi = end_labels_[parent];
    }
  }
  const EntryId prev = self.prev_sibling;
  if (sane && prev != kInvalidEntryId) {
    sane = labels_[prev] != kNoLabel && end_labels_[prev] >= next &&
           end_labels_[prev] <= hi;
    if (sane) next = end_labels_[prev];
  }
  if (!sane) {
    RebuildFromScratch();
    return;
  }

  // A childless entry (every AddEntry places one) is a subtree of size
  // 1: it is labeled here, with no size map and no stack.
  const bool leaf = self.first_child == kInvalidEntryId;
  SizeMap sizes;
  const uint64_t bare = leaf ? 1 : ComputeSizes(links_, id, sizes);
  const uint64_t avail = hi - next;
  if (avail < bare) {
    Relabel(parent);
    return;
  }
  const uint64_t width = AllocWidth(avail, bare);
  if (leaf) {
    labels_.Set(id, next);
    end_labels_.Set(id, next + width);
  } else {
    AssignInterval(id, next, width);
  }
}

void ForestIndex::Relabel(EntryId parent) {
  // One SizeMap shared across the ancestor walk: stepping up a level
  // reuses the child subtree's size and only counts the newly-exposed
  // sibling subtrees, so the whole walk costs O(size of the region
  // finally relabeled), not O(depth * size).
  SizeMap sizes;
  EntryId prev = kInvalidEntryId;
  for (EntryId a = parent; a != kInvalidEntryId; a = links_[a].parent) {
    if (labels_[a] == kNoLabel) break;  // not sane
    uint64_t size = 1;
    for (EntryId c : Children(a)) {
      size += (c == prev) ? sizes.at(c) : ComputeSizes(links_, c, sizes);
    }
    sizes[a] = size;
    prev = a;
    uint64_t span = end_labels_[a] - labels_[a];
    if (span / kMinSpread >= size) {
      IndexMetrics::Get().relabels.Increment();
      AssignInterval(a, labels_[a], span);
      return;
    }
  }
  RebuildFromScratch();
}

void ForestIndex::RebuildFromScratch() {
  IndexMetrics::Get().full_rebuilds.Increment();
  for (size_t i = 0; i < labels_.size(); ++i) {
    labels_.Set(i, kNoLabel);
    end_labels_.Set(i, kNoLabel);
  }

  SizeMap sizes;
  uint64_t total = 0;
  for (EntryId r : Children(kInvalidEntryId)) {
    total += ComputeSizes(links_, r, sizes);
  }
  if (total == 0) return;

  // Redistribute the whole space over the roots: proportional shares of
  // the first half, the second half left as the forest's growth tail.
  uint64_t cur = 0;
  uint64_t remaining_bare = total;
  for (EntryId r : Children(kInvalidEntryId)) {
    uint64_t s = sizes[r];
    remaining_bare -= s;
    uint64_t w = std::max(ProportionalShare(kLabelSpace / 2, s, total), s);
    uint64_t cap = (kLabelSpace - cur) - remaining_bare;
    w = std::min(w, cap);
    AssignInterval(r, cur, w);
    cur += w;
  }
}

void ForestIndex::AssignInterval(EntryId root, uint64_t lo, uint64_t width) {
  SizeMap sizes;
  ComputeSizes(links_, root, sizes);
  labels_.Set(root, lo);
  end_labels_.Set(root, lo + width);
  // In preorder, each entry's interval is set before the walk reaches it.
  for (Walk w = Preorder(root); !w.done(); w.Next()) {
    const EntryId id = w.id();
    if (links_[id].first_child == kInvalidEntryId) continue;

    // Children get proportional shares of the usable interior minus this
    // entry's growth tail, clamped so every later sibling still fits its
    // bare size. The tail is kLeafStride of room per existing descendant,
    // never more than half the interior — a *bounded* reservation, so a
    // deep chain consumes label space additively per level; a flat half
    // would shrink spans exponentially with depth and exhaust the 62-bit
    // space after ~60 levels.
    uint64_t usable = end_labels_[id] - labels_[id] - 1;
    uint64_t st = sizes.at(id) - 1;
    uint64_t want_tail =
        st < (uint64_t{1} << 40) ? st * kLeafStride : usable;
    uint64_t budget = usable - std::min(usable / 2, want_tail);
    uint64_t cur = labels_[id] + 1;
    uint64_t end = end_labels_[id];
    uint64_t remaining_bare = st;
    for (EntryId c : Children(id)) {
      uint64_t s = sizes.at(c);
      remaining_bare -= s;
      uint64_t w = std::max(ProportionalShare(budget, s, st), s);
      uint64_t cap = (end - cur) - remaining_bare;
      w = std::min(w, cap);
      labels_.Set(c, cur);
      end_labels_.Set(c, cur + w);
      cur += w;
    }
  }
}

bool ForestIndex::EquivalentToFresh(const Directory& d) const {
  // The ends of the list `id` belongs to (the roots for a root).
  auto first_of = [this](EntryId parent) {
    return parent == kInvalidEntryId ? first_root_ : links_[parent].first_child;
  };
  auto last_of = [this](EntryId parent) {
    return parent == kInvalidEntryId ? last_root_ : links_[parent].last_child;
  };
  if ((first_root_ == kInvalidEntryId) != (last_root_ == kInvalidEntryId)) {
    return false;
  }
  size_t walked = 0;
  uint64_t prev_label = 0;
  for (Walk w = Preorder(kInvalidEntryId); !w.done(); w.Next()) {
    const EntryId id = w.id();
    if (id >= labels_.size() || !d.IsAlive(id) || ++walked > num_alive_) {
      return false;
    }
    const TreeLinks& l = links_[id];
    // The links are coherent: the siblings mirror each other, the first
    // and last links end the list, and a child names its parent...
    if (l.prev_sibling == kInvalidEntryId
            ? first_of(l.parent) != id
            : links_[l.prev_sibling].next_sibling != id) {
      return false;
    }
    if (l.next_sibling == kInvalidEntryId
            ? last_of(l.parent) != id
            : links_[l.next_sibling].prev_sibling != id ||
                  links_[l.next_sibling].parent != l.parent) {
      return false;
    }
    if (l.first_child == kInvalidEntryId ? l.last_child != kInvalidEntryId
                                         : links_[l.first_child].parent != id) {
      return false;
    }
    // ...label order is the preorder, each interval nests in its parent's
    // and ends at or before the next sibling's label, so it holds exactly
    // its subtree.
    const uint64_t label = labels_[id];
    if (label == kNoLabel || label >= end_labels_[id]) return false;
    if (walked > 1 && prev_label >= label) return false;
    prev_label = label;
    if (l.parent != kInvalidEntryId &&
        !(labels_[l.parent] < label &&
          end_labels_[id] <= end_labels_[l.parent])) {
      return false;
    }
    if (l.next_sibling != kInvalidEntryId &&
        labels_[l.next_sibling] < end_labels_[id]) {
      return false;
    }
  }
  // Exactly the alive entries are walked (each once: the labels rise),
  // and labeled.
  size_t labeled = 0;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] != kNoLabel) ++labeled;
  }
  return walked == num_alive_ && walked == d.AliveSet().Count() &&
         labeled == walked;
}

}  // namespace ldapbound
