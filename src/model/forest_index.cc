#include "model/forest_index.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "model/directory.h"
#include "model/entry.h"
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
uint64_t ComputeSizes(const Directory& d, EntryId root, SizeMap& sizes) {
  struct Frame {
    EntryId id;
    bool exit;
  };
  std::vector<Frame> stack{{root, false}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Entry& e = d.entry(f.id);
    if (f.exit) {
      uint64_t s = 1;
      for (EntryId c : e.children()) s += sizes[c];
      sizes[f.id] = s;
      continue;
    }
    stack.push_back({f.id, true});
    for (EntryId c : e.children()) stack.push_back({c, false});
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

void ForestIndex::EnsureCapacity(size_t id_capacity) {
  if (labels_.size() < id_capacity) {
    labels_.Resize(id_capacity, kNoLabel);
    end_labels_.Resize(id_capacity, kNoLabel);
    links_.Resize(id_capacity, TreeLinks{});
  }
}

void ForestIndex::SetFirst(EntryId parent, EntryId id) {
  if (parent == kInvalidEntryId) {
    first_root_ = id;
  } else {
    links_.Mutable(parent).first_child = id;
  }
}

void ForestIndex::Link(EntryId parent, EntryId prev, EntryId id) {
  EnsureCapacity(size_t{id} + 1);  // a fresh id is the largest
  if (prev == kInvalidEntryId) {
    SetFirst(parent, id);
  } else {
    links_.Mutable(prev).next_sibling = id;
  }
  TreeLinks& self = links_.Mutable(id);  // keeps a moved subtree's children
  self.parent = parent;
  self.next_sibling = kInvalidEntryId;
}

void ForestIndex::Unlink(EntryId parent, EntryId prev, EntryId id) {
  EntryId next = links_[id].next_sibling;
  if (prev == kInvalidEntryId) {
    SetFirst(parent, next);
  } else {
    links_.Mutable(prev).next_sibling = next;
  }
}

void ForestIndex::OnInsert(const Directory& d, EntryId id) {
  EnsureCapacity(d.IdCapacity());
  ++num_alive_;
  PlaceSubtree(d, id);
}

void ForestIndex::OnErase(EntryId id) {
  if (id >= labels_.size() || labels_[id] == kNoLabel) return;
  labels_.Set(id, kNoLabel);
  end_labels_.Set(id, kNoLabel);
  --num_alive_;
}

void ForestIndex::OnMove(const Directory& d, EntryId id) {
  EnsureCapacity(d.IdCapacity());
  PlaceSubtree(d, id);
}

void ForestIndex::PlaceSubtree(const Directory& d, EntryId id) {
  const Entry& e = d.entry(id);
  EntryId parent = e.parent();
  const std::vector<EntryId>& siblings =
      (parent == kInvalidEntryId) ? d.roots() : d.entry(parent).children();

  // Work out the free window [next, hi) at the parent's tail, verifying
  // the local invariants as we go; any violation means the incremental
  // state cannot be trusted, and the guarded fallback is a full rebuild.
  uint64_t next = 0;
  uint64_t hi = kLabelSpace;
  bool sane = !siblings.empty() && siblings.back() == id;
  if (sane && parent != kInvalidEntryId) {
    sane = labels_[parent] != kNoLabel;
    if (sane) {
      next = labels_[parent] + 1;
      hi = end_labels_[parent];
    }
  }
  if (sane && siblings.size() >= 2) {
    EntryId prev = siblings[siblings.size() - 2];
    sane = prev < labels_.size() && labels_[prev] != kNoLabel &&
           end_labels_[prev] >= next && end_labels_[prev] <= hi;
    if (sane) next = end_labels_[prev];
  }
  if (!sane) {
    RebuildFromScratch(d);
    return;
  }

  // A childless entry (every AddEntry places one) is a subtree of size
  // 1: it is labeled here, with no size map and no stack.
  const bool leaf = e.children().empty();
  SizeMap sizes;
  const uint64_t bare = leaf ? 1 : ComputeSizes(d, id, sizes);
  const uint64_t avail = hi - next;
  if (avail < bare) {
    Relabel(d, parent);
    return;
  }
  const uint64_t width = AllocWidth(avail, bare);
  if (leaf) {
    labels_.Set(id, next);
    end_labels_.Set(id, next + width);
  } else {
    AssignInterval(d, id, next, width);
  }
}

void ForestIndex::Relabel(const Directory& d, EntryId parent) {
  // One SizeMap shared across the ancestor walk: stepping up a level
  // reuses the child subtree's size and only counts the newly-exposed
  // sibling subtrees, so the whole walk costs O(size of the region
  // finally relabeled), not O(depth * size).
  SizeMap sizes;
  EntryId prev = kInvalidEntryId;
  for (EntryId a = parent; a != kInvalidEntryId; a = d.entry(a).parent()) {
    if (a >= labels_.size() || labels_[a] == kNoLabel) break;  // not sane
    uint64_t size = 1;
    for (EntryId c : d.entry(a).children()) {
      size += (c == prev) ? sizes.at(c) : ComputeSizes(d, c, sizes);
    }
    sizes[a] = size;
    prev = a;
    uint64_t span = end_labels_[a] - labels_[a];
    if (span / kMinSpread >= size) {
      IndexMetrics::Get().relabels.Increment();
      AssignInterval(d, a, labels_[a], span);
      return;
    }
  }
  RebuildFromScratch(d);
}

void ForestIndex::RebuildFromScratch(const Directory& d) {
  IndexMetrics::Get().full_rebuilds.Increment();
  EnsureCapacity(d.IdCapacity());
  for (size_t i = 0; i < labels_.size(); ++i) {
    labels_.Set(i, kNoLabel);
    end_labels_.Set(i, kNoLabel);
  }
  num_alive_ = d.NumEntries();

  SizeMap sizes;
  uint64_t total = 0;
  for (EntryId r : d.roots()) total += ComputeSizes(d, r, sizes);
  if (total == 0) return;

  // Redistribute the whole space over the roots: proportional shares of
  // the first half, the second half left as the forest's growth tail.
  uint64_t cur = 0;
  uint64_t remaining_bare = total;
  for (EntryId r : d.roots()) {
    uint64_t s = sizes[r];
    remaining_bare -= s;
    uint64_t w = std::max(ProportionalShare(kLabelSpace / 2, s, total), s);
    uint64_t cap = (kLabelSpace - cur) - remaining_bare;
    w = std::min(w, cap);
    AssignInterval(d, r, cur, w);
    cur += w;
  }
}

void ForestIndex::AssignInterval(const Directory& d, EntryId root,
                                 uint64_t lo, uint64_t width) {
  SizeMap sizes;
  ComputeSizes(d, root, sizes);
  struct Frame {
    EntryId id;
    uint64_t lo;
    uint64_t width;
  };
  std::vector<Frame> stack{{root, lo, width}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Entry& e = d.entry(f.id);
    labels_.Set(f.id, f.lo);
    end_labels_.Set(f.id, f.lo + f.width);
    if (e.children().empty()) continue;

    // Children get proportional shares of the usable interior minus this
    // entry's growth tail, clamped so every later sibling still fits its
    // bare size. The tail is kLeafStride of room per existing descendant,
    // never more than half the interior — a *bounded* reservation, so a
    // deep chain consumes label space additively per level; a flat half
    // would shrink spans exponentially with depth and exhaust the 62-bit
    // space after ~60 levels.
    uint64_t usable = f.width - 1;
    uint64_t st = sizes.at(f.id) - 1;
    uint64_t want_tail =
        st < (uint64_t{1} << 40) ? st * kLeafStride : usable;
    uint64_t budget = usable - std::min(usable / 2, want_tail);
    uint64_t cur = f.lo + 1;
    uint64_t end = f.lo + f.width;
    uint64_t remaining_bare = st;
    for (EntryId c : e.children()) {
      uint64_t s = sizes.at(c);
      remaining_bare -= s;
      uint64_t w = std::max(ProportionalShare(budget, s, st), s);
      uint64_t cap = (end - cur) - remaining_bare;
      w = std::min(w, cap);
      stack.push_back({c, cur, w});
      cur += w;
    }
  }
}

bool ForestIndex::EquivalentToFresh(const Directory& d) const {
  // A fresh DFS straight off the tree structure: the reference preorder
  // and subtree ends the incremental state must reproduce.
  std::vector<EntryId> expected;
  expected.reserve(d.NumEntries());
  std::vector<size_t> expected_end(d.IdCapacity(), 0);
  struct Frame {
    EntryId id;
    bool exit;
  };
  std::vector<Frame> stack;
  const std::vector<EntryId>& roots = d.roots();
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back({*it, false});
  }
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.exit) {
      expected_end[f.id] = expected.size();
      continue;
    }
    const Entry& e = d.entry(f.id);
    expected.push_back(f.id);
    stack.push_back({f.id, true});
    const std::vector<EntryId>& children = e.children();
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back({*it, false});
    }
  }

  // The links must thread each child list, and the roots, in order.
  auto threads = [this](EntryId first, const std::vector<EntryId>& list) {
    if (first != (list.empty() ? kInvalidEntryId : list.front())) return false;
    for (size_t i = 0; i < list.size(); ++i) {
      EntryId next = i + 1 < list.size() ? list[i + 1] : kInvalidEntryId;
      if (links_[list[i]].next_sibling != next) return false;
    }
    return true;
  };

  if (num_alive_ != expected.size()) return false;
  // Exactly the alive entries are labeled...
  size_t labeled = 0;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] != kNoLabel) ++labeled;
  }
  if (labeled != expected.size()) return false;
  if (!threads(first_root_, roots)) return false;
  for (size_t pos = 0; pos < expected.size(); ++pos) {
    EntryId id = expected[pos];
    if (id >= labels_.size() || labels_[id] == kNoLabel) return false;
    // ...label order is the preorder...
    if (pos > 0 && labels_[expected[pos - 1]] >= labels_[id]) return false;
    // ...and [label, end_label) holds the subtree and nothing after it.
    const size_t end = expected_end[id];
    if (end_labels_[id] <= labels_[expected[end - 1]]) return false;
    if (end < expected.size() && labels_[expected[end]] < end_labels_[id]) {
      return false;
    }
    if (links_[id].parent != d.entry(id).parent()) return false;
    if (!threads(links_[id].first_child, d.entry(id).children())) {
      return false;
    }
    EntryId parent = d.entry(id).parent();
    if (parent != kInvalidEntryId &&
        !(labels_[parent] < labels_[id] &&
          end_labels_[id] <= end_labels_[parent])) {
      return false;
    }
  }
  return true;
}

}  // namespace ldapbound
