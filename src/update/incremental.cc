#include "update/incremental.h"

#include <unordered_map>
#include <unordered_set>

#include "core/translation.h"
#include "query/evaluator.h"

namespace ldapbound {

namespace {

bool ReportRelationship(std::vector<Violation>* out, bool* ok,
                        const StructuralRelationship& rel, EntryId entry) {
  *ok = false;
  if (out == nullptr) return false;
  Violation v;
  v.kind = rel.forbidden ? ViolationKind::kForbiddenRelationship
                         : ViolationKind::kRequiredRelationship;
  v.entry = entry;
  v.relationship = rel;
  out->push_back(v);
  return true;
}

}  // namespace

bool IncrementalValidator::IsIncrementallyTestable(
    const StructuralRelationship& rel, bool insertion) {
  if (insertion) return true;  // every Figure 5 insertion row is "yes"
  if (rel.forbidden) return true;           // deletions cannot create pairs
  return rel.axis == Axis::kParent || rel.axis == Axis::kAncestor;
}

bool IncrementalValidator::CheckAfterInsert(const Directory& directory,
                                            const EntrySet& delta,
                                            std::vector<Violation>* out) const {
  // Content schema: insertion of Δ preserves content legality iff Δ itself
  // is content-legal (§4.2) — old entries are untouched.
  bool ok = true;
  bool content_ok = true;
  delta.ForEach([&](EntryId id) {
    if (!directory.IsAlive(id)) return;
    if (!checker_.CheckEntryContent(directory, id, out)) content_ok = false;
  });
  if (!content_ok) {
    ok = false;
    if (out == nullptr) return false;
  }
  bool structure_ok =
      options_.delta_driven_insert
          ? CheckStructureAfterInsertDeltaDriven(directory, delta, out)
          : CheckStructureAfterInsert(directory, delta, out);
  if (!structure_ok) {
    ok = false;
    if (out == nullptr) return false;
  }
  if (!CheckKeysAfterInsert(directory, delta, out)) {
    ok = false;
    if (out == nullptr) return false;
  }
  return ok;
}

bool IncrementalValidator::CheckKeysAfterInsert(
    const Directory& directory, const EntrySet& delta,
    std::vector<Violation>* out) const {
  const std::vector<AttributeId>& keys = schema_.key_attributes();
  if (keys.empty()) return true;
  bool ok = true;

  // Since D satisfied the keys, every new duplicate involves a Δ value:
  // collect Δ's key values (flagging duplicates within Δ), then one scan
  // of the old entries — O(|Δ| + |D|) per key attribute.
  for (AttributeId attr : keys) {
    std::unordered_map<Value, EntryId, ValueHash> fresh;
    bool stop = false;
    delta.ForEach([&](EntryId id) {
      if (stop || !directory.IsAlive(id)) return;
      for (const Value& v : directory.entry(id).GetValues(attr)) {
        auto [it, inserted] = fresh.emplace(v, id);
        if (!inserted) {
          Violation violation;
          violation.kind = ViolationKind::kDuplicateKeyValue;
          violation.entry = id;
          violation.attr = attr;
          ok = false;
          if (out == nullptr) {
            stop = true;
            return;
          }
          out->push_back(violation);
        }
      }
    });
    if (stop) return false;
    if (fresh.empty()) continue;
    bool done = false;
    directory.ForEachAlive([&](const Entry& e) {
      if (done || delta.Contains(e.id())) return;
      for (const Value& v : e.GetValues(attr)) {
        auto it = fresh.find(v);
        if (it != fresh.end()) {
          Violation violation;
          violation.kind = ViolationKind::kDuplicateKeyValue;
          violation.entry = it->second;
          violation.attr = attr;
          ok = false;
          if (out == nullptr) {
            done = true;
            return;
          }
          out->push_back(violation);
        }
      }
    });
    if (done) return false;
  }
  return ok;
}

namespace {

// Does `e` have an entry of class `cls` along `axis`? Parent/ancestor
// climb the root path; child/descendant test each child as soon as it is
// reached, so a hit under a high-fanout entry returns before the rest of
// its siblings are scanned. On those downward walks, entries in `skip`
// (whole subtrees, e.g. a doomed Δ) do not count, nor does anything below
// them.
bool HasRelated(const Directory& directory, EntryId e, Axis axis, ClassId cls,
                const EntrySet* skip = nullptr) {
  if (axis == Axis::kParent || axis == Axis::kAncestor) {
    for (EntryId a = directory.entry(e).parent(); a != kInvalidEntryId;
         a = directory.entry(a).parent()) {
      if (directory.entry(a).HasClass(cls)) return true;
      if (axis == Axis::kParent) break;
    }
    return false;
  }
  std::vector<EntryId> stack;
  for (EntryId cur = e;;) {
    for (EntryId c : directory.entry(cur).children()) {
      if (skip != nullptr && skip->Contains(c)) continue;
      if (directory.entry(c).HasClass(cls)) return true;
      if (axis == Axis::kDescendant) stack.push_back(c);
    }
    if (stack.empty()) return false;
    cur = stack.back();
    stack.pop_back();
  }
}

// Calls `fn(u)`, nearest first, for every entry u of class rel.source that
// `rel` (child or descendant axis) pairs as the upper side with a child of
// `parent`: `parent` itself on the child axis, `parent` and each of its
// ancestors on the descendant axis. Returns false as soon as `fn` does.
template <typename Fn>
bool ForEachUpper(const Directory& directory, EntryId parent,
                  const StructuralRelationship& rel, Fn&& fn) {
  for (EntryId a = parent; a != kInvalidEntryId;
       a = directory.entry(a).parent()) {
    if (directory.entry(a).HasClass(rel.source) && !fn(a)) return false;
    if (rel.axis == Axis::kChild) break;
  }
  return true;
}

}  // namespace

bool IncrementalValidator::CheckAfterReclassify(
    const Directory& directory, EntryId id, const std::vector<ClassId>& added,
    const std::vector<ClassId>& removed, std::vector<Violation>* out) const {
  const StructureSchema& structure = schema_.structure();
  const Entry& entry = directory.entry(id);
  bool ok = true;

  auto in = [](const std::vector<ClassId>& set, ClassId c) {
    return std::find(set.begin(), set.end(), c) != set.end();
  };

  // Content: only this entry's class set changed.
  if (!checker_.CheckEntryContent(directory, id, out)) {
    ok = false;
    if (out == nullptr) return false;
  }

  // Required classes Cr: a removed class may have lost its last member.
  for (ClassId cls : structure.required_classes()) {
    if (!in(removed, cls)) continue;
    if (directory.CountWithClass(cls) == 0) {
      ok = false;
      if (out == nullptr) return false;
      Violation v;
      v.kind = ViolationKind::kMissingRequiredClass;
      v.cls = cls;
      out->push_back(v);
    }
  }

  for (const StructuralRelationship& rel : structure.required()) {
    // The entry itself, for requirements its new classes impose.
    if (in(added, rel.source) && entry.HasClass(rel.source) &&
        !HasRelated(directory, id, rel.axis, rel.target)) {
      if (!ReportRelationship(out, &ok, rel, id)) return false;
    }
    // Entries that may have relied on this entry as their target.
    if (!in(removed, rel.target)) continue;
    auto recheck = [&](EntryId candidate) -> bool {
      if (!directory.entry(candidate).HasClass(rel.source)) return true;
      if (HasRelated(directory, candidate, rel.axis, rel.target)) return true;
      return ReportRelationship(out, &ok, rel, candidate);
    };
    switch (rel.axis) {
      case Axis::kChild:
      case Axis::kDescendant:
        if (!ForEachUpper(directory, entry.parent(), rel, recheck)) {
          return false;
        }
        break;
      case Axis::kParent:
        for (EntryId c : entry.children()) {
          if (!recheck(c)) return false;
        }
        break;
      case Axis::kAncestor:
        for (EntryId d : directory.SubtreeEntries(id)) {
          if (d != id && !recheck(d)) return false;
        }
        break;
    }
  }

  for (const StructuralRelationship& rel : structure.forbidden()) {
    // Upper side: the entry's new classes forbid certain relatives below.
    if (in(added, rel.source) && entry.HasClass(rel.source) &&
        HasRelated(directory, id, rel.axis, rel.target) &&
        !ReportRelationship(out, &ok, rel, id)) {
      return false;
    }
    // Lower side: the entry's new classes are forbidden below certain
    // ancestors.
    if (in(added, rel.target) && entry.HasClass(rel.target) &&
        !ForEachUpper(directory, entry.parent(), rel, [&](EntryId upper) {
          return ReportRelationship(out, &ok, rel, upper);
        })) {
      return false;
    }
  }
  return ok;
}

bool IncrementalValidator::CheckAfterMove(const Directory& directory,
                                          EntryId root, EntryId old_parent,
                                          std::vector<Violation>* out) const {
  const StructureSchema& structure = schema_.structure();
  const Entry& moved = directory.entry(root);
  bool ok = true;

  for (const StructuralRelationship& rel : structure.required()) {
    auto recheck = [&](EntryId e) {
      return HasRelated(directory, e, rel.axis, rel.target) ||
             ReportRelationship(out, &ok, rel, e);
    };
    switch (rel.axis) {
      case Axis::kChild:
      case Axis::kDescendant:
        // The old parent lost a child, the old ancestor chain the
        // subtree's entries.
        if (!ForEachUpper(directory, old_parent, rel, recheck)) return false;
        break;
      case Axis::kParent:
        // Only the subtree root's parent changed.
        if (moved.HasClass(rel.source) && !recheck(root)) return false;
        break;
      case Axis::kAncestor:
        // Every subtree entry's ancestor set above `root` changed.
        for (EntryId id : directory.SubtreeEntries(root)) {
          if (directory.entry(id).HasClass(rel.source) && !recheck(id)) {
            return false;
          }
        }
        break;
    }
  }

  // Forbidden: new (upper, lower) pairs pair the new ancestors with the
  // subtree's entries — the root alone on the child axis, any of them on
  // the descendant axis.
  for (const StructuralRelationship& rel : structure.forbidden()) {
    const bool has_lower =
        moved.HasClass(rel.target) ||
        (rel.axis == Axis::kDescendant &&
         HasRelated(directory, root, Axis::kDescendant, rel.target));
    if (has_lower &&
        !ForEachUpper(directory, moved.parent(), rel, [&](EntryId upper) {
          return ReportRelationship(out, &ok, rel, upper);
        })) {
      return false;
    }
  }
  return ok;
}

bool IncrementalValidator::CheckStructureAfterInsertDeltaDriven(
    const Directory& directory, const EntrySet& delta,
    std::vector<Violation>* out) const {
  const StructureSchema& structure = schema_.structure();
  bool ok = true;
  bool stop = false;
  delta.ForEach([&](EntryId id) {
    if (stop || !directory.IsAlive(id)) return;
    const Entry& entry = directory.entry(id);

    // Required relationships: only new sources can violate. A new entry's
    // child/descendant relatives are new too, so those walks stay in Δ.
    for (const StructuralRelationship& rel : structure.required()) {
      if (entry.HasClass(rel.source) &&
          !HasRelated(directory, id, rel.axis, rel.target) &&
          !ReportRelationship(out, &ok, rel, id)) {
        stop = true;
        return;
      }
    }

    // Forbidden relationships: every new pair has its lower entry in Δ;
    // its upper entries may be old or new.
    for (const StructuralRelationship& rel : structure.forbidden()) {
      if (entry.HasClass(rel.target) &&
          !ForEachUpper(directory, entry.parent(), rel, [&](EntryId upper) {
            return ReportRelationship(out, &ok, rel, upper);
          })) {
        stop = true;
        return;
      }
    }
  });
  return ok;
}

bool IncrementalValidator::CheckStructureAfterInsert(
    const Directory& directory, const EntrySet& delta,
    std::vector<Violation>* out) const {
  const StructureSchema& structure = schema_.structure();
  QueryEvaluator evaluator(directory, &delta);
  bool ok = true;

  // Required classes Cr cannot be violated by insertion (Figure 5 text).

  for (const StructuralRelationship& rel : structure.required()) {
    // Only new sources can violate; their child/descendant relatives are
    // necessarily new, while parent/ancestor relatives may be old.
    Scope target_scope =
        (rel.axis == Axis::kChild || rel.axis == Axis::kDescendant)
            ? Scope::kDeltaOnly
            : Scope::kAll;
    EntrySet offenders =
        evaluator.Evaluate(ViolationQuery(rel, Scope::kDeltaOnly,
                                          target_scope));
    bool stop = false;
    offenders.ForEach([&](EntryId id) {
      if (stop) return;
      if (!ReportRelationship(out, &ok, rel, id)) stop = true;
    });
    if (stop) return false;
  }

  for (const StructuralRelationship& rel : structure.forbidden()) {
    // Every new (upper, lower) pair has a new lower entry; the upper side
    // may be old or new.
    EntrySet offenders = evaluator.Evaluate(
        ViolationQuery(rel, Scope::kAll, Scope::kDeltaOnly));
    bool stop = false;
    offenders.ForEach([&](EntryId id) {
      if (stop) return;
      if (!ReportRelationship(out, &ok, rel, id)) stop = true;
    });
    if (stop) return false;
  }
  return ok;
}

bool IncrementalValidator::CheckBeforeDelete(const Directory& directory,
                                             EntryId delta_root,
                                             const EntrySet& delta,
                                             std::vector<Violation>* out) const {
  return CheckBeforeDeleteBatch(directory, {delta_root}, delta, out);
}

bool IncrementalValidator::CheckBeforeDeleteBatch(
    const Directory& directory, const std::vector<EntryId>& delta_roots,
    const EntrySet& delta, std::vector<Violation>* out) const {
  bool ok = true;

  // Required classes Cr: testable via the maintained class counts — the
  // counting extension the paper sketches. A required class is violated iff
  // all its member entries are inside Δ.
  std::unordered_map<ClassId, size_t> delta_counts;
  delta.ForEach([&](EntryId id) {
    for (ClassId c : directory.entry(id).classes()) ++delta_counts[c];
  });
  for (ClassId cls : schema_.structure().required_classes()) {
    size_t total = directory.CountWithClass(cls);
    auto it = delta_counts.find(cls);
    size_t doomed = it == delta_counts.end() ? 0 : it->second;
    if (total > 0 && doomed >= total) {
      ok = false;
      if (out == nullptr) return false;
      Violation v;
      v.kind = ViolationKind::kMissingRequiredClass;
      v.cls = cls;
      out->push_back(v);
    }
  }

  if (!CheckStructureBeforeDelete(directory, delta_roots, delta, out)) {
    ok = false;
    if (out == nullptr) return false;
  }
  return ok;
}

bool IncrementalValidator::CheckStructureBeforeDelete(
    const Directory& directory, const std::vector<EntryId>& delta_roots,
    const EntrySet& delta, std::vector<Violation>* out) const {
  const StructureSchema& structure = schema_.structure();
  bool ok = true;

  // Forbidden and required-parent/ancestor relationships cannot be violated
  // by deletion (Figure 5's ∅ rows): survivors keep their ancestors, and no
  // new pairs appear. Only required child/descendant remain.

  if (!options_.ancestor_path_optimization) {
    // Paper-faithful: evaluate the Figure 4 query over D−Δ.
    QueryEvaluator evaluator(directory, &delta);
    for (const StructuralRelationship& rel : structure.required()) {
      if (rel.axis != Axis::kChild && rel.axis != Axis::kDescendant) continue;
      EntrySet offenders = evaluator.Evaluate(
          ViolationQuery(rel, Scope::kExcludeDelta, Scope::kExcludeDelta));
      bool stop = false;
      offenders.ForEach([&](EntryId id) {
        if (stop) return;
        if (!ReportRelationship(out, &ok, rel, id)) stop = true;
      });
      if (stop) return false;
    }
    return ok;
  }

  // Extension: since D is legal, the only entries that lose a child are
  // the doomed roots' parents, and the only entries that lose descendants
  // are the roots' surviving proper ancestors. Test just those — collected
  // once across the whole batch, so subtrees sharing ancestors (common
  // under a hot parent) are not re-tested per subtree.
  std::vector<EntryId> parents;
  std::vector<EntryId> ancestors;
  {
    std::unordered_set<EntryId> parent_seen;
    std::unordered_set<EntryId> anc_seen;
    for (EntryId root : delta_roots) {
      EntryId p = directory.entry(root).parent();
      if (p == kInvalidEntryId) continue;
      if (parent_seen.insert(p).second) parents.push_back(p);
      for (EntryId a = p; a != kInvalidEntryId;
           a = directory.entry(a).parent()) {
        // A chain already walked from here up stops the climb.
        if (!anc_seen.insert(a).second) break;
        ancestors.push_back(a);
      }
    }
  }

  // Each checked entry's surviving relatives: the walk skips Δ.
  for (const StructuralRelationship& rel : structure.required()) {
    if (rel.axis != Axis::kChild && rel.axis != Axis::kDescendant) continue;
    for (EntryId e : rel.axis == Axis::kChild ? parents : ancestors) {
      if (directory.entry(e).HasClass(rel.source) &&
          !HasRelated(directory, e, rel.axis, rel.target, &delta) &&
          !ReportRelationship(out, &ok, rel, e)) {
        return false;
      }
    }
  }
  return ok;
}

}  // namespace ldapbound
