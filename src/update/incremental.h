#ifndef LDAPBOUND_UPDATE_INCREMENTAL_H_
#define LDAPBOUND_UPDATE_INCREMENTAL_H_

#include <vector>

#include "core/legality_checker.h"
#include "core/violation.h"
#include "model/directory.h"
#include "schema/directory_schema.h"

namespace ldapbound {

/// Incremental legality testing for single-subtree updates (Section 4.2,
/// Figure 5, Theorem 4.2). Preconditions throughout: the pre-update
/// instance D was legal, and Δ is one whole subtree.
///
/// For insertion (directory holds D+Δ, `delta` marks the new entries):
///   - content schema: only Δ entries are checked (old entries unchanged);
///   - required relationships: only Δ sources can violate. Child/descendant
///     targets of new entries are themselves new (Δ scope); parent/ancestor
///     targets may be old (full scope) — exactly Figure 5's scoping;
///   - forbidden relationships: every new (upper, lower) pair has its lower
///     entry in Δ, so the target side is Δ-scoped;
///   - required classes Cr: insertion cannot violate (no check).
///
/// For deletion (directory still holds D, `delta` marks the doomed subtree;
/// the check runs BEFORE applying the deletion):
///   - content, forbidden, required-parent/ancestor: deletion cannot
///     violate (no check) — Figure 5's "∅" rows;
///   - required child/descendant: not incrementally testable; the check
///     evaluates the full Figure 4 query over D−Δ (via kExcludeDelta
///     scoping). With `ancestor_path_optimization`, the implementation
///     instead tests only the surviving ancestors of the deleted subtree's
///     root — the only entries that lose children/descendants. This is an
///     extension beyond the paper's query-scoping formalism (which cannot
///     express "ancestors of Δ"); its equivalence is property-tested and
///     its effect measured by the ablation benchmark;
///   - required classes Cr: testable thanks to the directory's maintained
///     class counts (the counting extension §4.2 suggests).
///
/// The Δ-driven insert, ancestor-path delete, reclassify and move checks
/// share one walk per question (DESIGN.md §9): one asks whether an entry
/// has an axis-related entry of a class, optionally skipping Δ; the other
/// lists the entries above an entry that a child/descendant relationship
/// pairs with it.
class IncrementalValidator {
 public:
  struct Options {
    /// Use the O(|S|·depth) ancestor-path check for deletions instead of
    /// the paper's full D−Δ re-evaluation.
    bool ancestor_path_optimization = false;
    /// For insertions, walk Δ directly (children/ancestors of the new
    /// entries) instead of evaluating the Figure 5 Δ-queries, whose
    /// unscoped sides still scan D. Cost becomes O(|S|·|Δ|·depth)
    /// independent of |D|. An engineering extension beyond the paper's
    /// query-scoping formalism; equivalence is property-tested and the
    /// effect measured by bench_incremental.
    bool delta_driven_insert = false;
    /// Worker configuration forwarded to the embedded LegalityChecker for
    /// the full-directory passes (entry content sweeps, key rechecks).
    /// The Δ-scoped incremental queries themselves stay single-threaded —
    /// they are O(|Δ|) and below any useful parallel grain.
    CheckOptions check;
  };

  explicit IncrementalValidator(const DirectorySchema& schema)
      : IncrementalValidator(schema, Options()) {}
  IncrementalValidator(const DirectorySchema& schema, Options options)
      : schema_(schema), checker_(schema, options.check), options_(options) {}

  /// Whether D+Δ stays legal; `directory` must already hold D+Δ.
  bool CheckAfterInsert(const Directory& directory, const EntrySet& delta,
                        std::vector<Violation>* out = nullptr) const;

  /// Whether D−Δ would be legal; `directory` must still hold D (with Δ
  /// alive). `delta_root` is the root of the doomed subtree; `delta` its
  /// entry set.
  bool CheckBeforeDelete(const Directory& directory, EntryId delta_root,
                         const EntrySet& delta,
                         std::vector<Violation>* out = nullptr) const;

  /// Batch form of CheckBeforeDelete: Δ is the union of several maximal
  /// doomed subtrees (rooted at `delta_roots`; no root's ancestor may be
  /// in Δ). Merges the Figure 5 Δ-scoped work across the batch — one Cr
  /// class-count pass, one D−Δ query evaluation (or, with the
  /// ancestor-path optimization, one deduplicated sweep over the roots'
  /// surviving parents and ancestors) — instead of one pass per subtree.
  /// Equivalent to checking the subtrees one at a time, interleaved with
  /// their deletions: the checked survivors (the roots' ancestors) outlive
  /// the whole batch, and deletion only shrinks their child/descendant
  /// sets, so a violation of any intermediate state is still a violation
  /// of D−Δ and vice versa.
  bool CheckBeforeDeleteBatch(const Directory& directory,
                              const std::vector<EntryId>& delta_roots,
                              const EntrySet& delta,
                              std::vector<Violation>* out = nullptr) const;

  /// Incremental check for a *reclassification*: entry `id` gained classes
  /// `added` and lost classes `removed` (e.g. an LDAP Modify touching
  /// objectClass). `directory` already holds the post-change state, which
  /// must differ from a legal pre-change state only at `id`.
  ///
  /// Figure-5-style case analysis (an extension — the paper only treats
  /// entry insertion/deletion):
  ///  - content: re-check `id` alone;
  ///  - required relationships: `id` may newly violate ones whose source is
  ///    in `added`; entries that relied on `id` as their target may newly
  ///    violate ones whose target is in `removed` — those entries are
  ///    exactly id's parent (child axis), ancestors (descendant), children
  ///    (parent) and descendants (ancestor);
  ///  - forbidden relationships: new pairs involve `id` with a class from
  ///    `added`, as upper side (check id's children/descendants) or lower
  ///    side (check id's parent/ancestors);
  ///  - required classes Cr: only `removed` classes can empty out — tested
  ///    via the directory's class counts.
  bool CheckAfterReclassify(const Directory& directory, EntryId id,
                            const std::vector<ClassId>& added,
                            const std::vector<ClassId>& removed,
                            std::vector<Violation>* out = nullptr) const;

  /// Incremental check for a subtree *move* (the LDAP ModDN operation):
  /// the subtree rooted at `root` was re-parented from `old_parent` to its
  /// current position. `directory` holds the post-move state, which must
  /// differ from a legal pre-move state only by that one edge.
  ///
  /// Case analysis (an extension; the paper treats only insert/delete):
  ///  - content, keys, Cr: unchanged — no check;
  ///  - required: the moved entries' child/descendant relatives moved with
  ///    them — only `root`'s parent requirement and the subtree's ancestor
  ///    requirements need re-checking; the old ancestors lost descendants
  ///    (re-check like a deletion: old_parent for child, the old chain for
  ///    descendant); new ancestors only gained relatives;
  ///  - forbidden: new pairs are (new ancestors × subtree entries).
  bool CheckAfterMove(const Directory& directory, EntryId root,
                      EntryId old_parent,
                      std::vector<Violation>* out = nullptr) const;

  /// Figure 5's Y/N column: can `rel` be tested by a Δ-query (at least one
  /// sub-expression on ∅ or Δ) for the given update kind?
  static bool IsIncrementallyTestable(const StructuralRelationship& rel,
                                      bool insertion);

  const DirectorySchema& schema() const { return schema_; }

 private:
  bool CheckStructureAfterInsert(const Directory& directory,
                                 const EntrySet& delta,
                                 std::vector<Violation>* out) const;
  bool CheckStructureAfterInsertDeltaDriven(const Directory& directory,
                                            const EntrySet& delta,
                                            std::vector<Violation>* out) const;
  bool CheckKeysAfterInsert(const Directory& directory, const EntrySet& delta,
                            std::vector<Violation>* out) const;
  bool CheckStructureBeforeDelete(const Directory& directory,
                                  const std::vector<EntryId>& delta_roots,
                                  const EntrySet& delta,
                                  std::vector<Violation>* out) const;

  const DirectorySchema& schema_;
  LegalityChecker checker_;
  Options options_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_UPDATE_INCREMENTAL_H_
