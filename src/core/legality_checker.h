#ifndef LDAPBOUND_CORE_LEGALITY_CHECKER_H_
#define LDAPBOUND_CORE_LEGALITY_CHECKER_H_

#include <cstddef>
#include <vector>

#include "core/violation.h"
#include "model/directory.h"
#include "model/directory_snapshot.h"
#include "query/evaluator.h"
#include "schema/directory_schema.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace ldapbound {

/// EXPLAIN record for one structure-schema constraint: the constraint, the
/// Figure 4 query it translates to, the verdict, and the profiled plan tree
/// (per-node cardinalities, strategies, latency). Produced by
/// LegalityChecker::ExplainStructure; rendered by `ldapbound explain` and
/// retained (summarized) by the server's slow-op diagnostics.
struct ConstraintExplain {
  std::string constraint;  ///< e.g. "require-class orgUnit",
                           ///< "orgGroup ->> person (required)"
  std::string query;       ///< the translated query, paper rendering
  bool require_nonempty = false;  ///< required class: the witness query must
                                  ///< be NON-empty (all others must be empty)
  bool satisfied = false;
  uint64_t cardinality = 0;  ///< |Q[D]|: witnesses for a required class,
                             ///< offending entries for a relationship
  QueryProfile profile;

  /// Header line (constraint, verdict, cardinality, total latency), the
  /// query, then the indented plan tree.
  std::string RenderText() const;

  /// The record as a JSON object (plan included).
  std::string RenderJson() const;
};

/// Worker configuration for the parallel legality engine. Per-constraint
/// and per-entry checks are independent (§3), so the checker shards content
/// and key passes over entry-id ranges and fans the structure-schema
/// constraint queries out across a thread pool. Results are merged
/// deterministically: every configuration produces byte-identical violation
/// lists, in the same order as a serial run.
struct CheckOptions {
  /// Total worker lanes (including the calling thread). 0 resolves to the
  /// hardware concurrency; 1 runs everything inline with no pool use.
  unsigned num_threads = 0;
  /// Entries per shard of the content and key passes. Small grains improve
  /// load balance, large grains reduce scheduling overhead.
  size_t grain = 1024;
  /// Pool to borrow workers from; nullptr uses ThreadPool::Default().
  ThreadPool* pool = nullptr;
};

/// Tests legality of directory instances against a bounding-schema
/// (Definition 2.7, Section 3).
///
/// Content legality (§3.1) is a per-entry check costing
/// O(|class(e)| + maxAux·depth(H) + |val(e)| + Σ|alpha(c)|) per entry.
/// Structure legality (§3.2) translates every element of the structure
/// schema into a hierarchical selection query (Figure 4) and tests
/// emptiness / non-emptiness, for O(|S|·|D|) total — the Theorem 3.1 bound.
///
/// Engine structure (beyond the paper's algorithmics):
///  - full-directory content/key passes shard the id space (CheckOptions::
///    grain) with per-shard violation buffers concatenated in shard order,
///    so the output equals the serial ascending-id order;
///  - per-shard content checks run through a memo keyed by the entry's
///    class set: the class-schema verdict and the required/allowed
///    attribute sets depend only on class(e), and directories hold few
///    distinct class combinations, so the common clean entry costs one
///    lookup plus two sorted-vector sweeps (no per-entry allocation). Any
///    entry that fails the memoized screen re-runs the exact serial check
///    to report violations in the identical order;
///  - the structure pass evaluates each constraint query on its own
///    QueryEvaluator (the evaluator holds mutable stats, so instances are
///    not shared) over the per-class atomic selections — a shared
///    read-only cache filled in one pass on a live directory, the class
///    postings on a snapshot — and uses the evaluator's lazy IsEmpty when
///    only a verdict is needed (out == nullptr).
///
/// The checker borrows the schema; the schema must outlive it and must
/// share the directory's Vocabulary.
class LegalityChecker {
 public:
  explicit LegalityChecker(const DirectorySchema& schema,
                           CheckOptions options = CheckOptions())
      : schema_(schema), options_(options) {}

  /// Content check for a single entry. Appends violations to `out` if
  /// non-null; with a null `out`, stops at the first violation.
  /// Returns true iff the entry satisfies the attribute and class schemas.
  bool CheckEntryContent(const Directory& directory, EntryId id,
                         std::vector<Violation>* out = nullptr) const;

  /// Content check for every alive entry.
  bool CheckContent(const Directory& directory,
                    std::vector<Violation>* out = nullptr) const;

  /// Structure check via the Figure 4 query reduction. When `stats` is
  /// non-null it receives the aggregated per-worker EvaluatorStats of the
  /// constraint queries.
  bool CheckStructure(const Directory& directory,
                      std::vector<Violation>* out = nullptr,
                      EvaluatorStats* stats = nullptr) const;

  /// The same check against a pinned MVCC snapshot (DESIGN.md §10): the
  /// same loop, order and pool fan-out, with the class selections answered
  /// from the snapshot's postings, so it runs lock-free alongside the
  /// writer and reports exactly what CheckStructure reports on the live
  /// directory at that version.
  bool CheckStructure(const DirectorySnapshot& snapshot,
                      std::vector<Violation>* out = nullptr,
                      EvaluatorStats* stats = nullptr) const;

  /// Profiled structure check: evaluates every structure-schema
  /// constraint's Figure 4 query with an attached QueryProfile and returns
  /// one ConstraintExplain per constraint, in schema order (Cr, then Er,
  /// then Ef — the order CheckStructure reports in). Runs serially on the
  /// calling thread so plan attribution is deterministic; required classes
  /// are profiled through their witness query rather than the class-count
  /// shortcut, because showing the query's plan is the point.
  std::vector<ConstraintExplain> ExplainStructure(
      const Directory& directory) const;

  /// Key uniqueness (§6.1 extension): every value of a key attribute is
  /// unique across all entries. O(|D|) with hashing.
  bool CheckKeys(const Directory& directory,
                 std::vector<Violation>* out = nullptr) const;

  /// Full legality: content and structure.
  bool CheckLegal(const Directory& directory,
                  std::vector<Violation>* out = nullptr) const;

  /// Status-typed convenience: OK if legal, kIllegal carrying a rendered
  /// violation list otherwise.
  Status EnsureLegal(const Directory& directory) const;

  const DirectorySchema& schema() const { return schema_; }
  const CheckOptions& options() const { return options_; }

 private:
  struct ContentCache;
  /// Per-shard tallies (entries seen, memo screens vs exact fallbacks),
  /// accumulated in plain locals and flushed to the process-wide metrics
  /// once per shard — never per entry.
  struct ContentCounters;

  /// The class-schema check of one entry's sorted class list: violations
  /// are reported against `entry` into `out`, or, with a null `out`, the
  /// check stops at the first failure (the memo screen's verdict).
  bool CheckClassList(const std::vector<ClassId>& classes, EntryId entry,
                      std::vector<Violation>* out) const;
  bool CheckEntryAttributeSchema(const Directory& directory,
                                 const Entry& entry,
                                 std::vector<Violation>* out) const;
  /// Memoized per-entry content check: certifies clean entries via the
  /// class-set cache, falls back to the exact serial check otherwise.
  bool CheckEntryContentCached(const Directory& directory, EntryId id,
                               ContentCache& cache,
                               ContentCounters& counters,
                               std::vector<Violation>* out) const;

  /// The one Figure-4 checker behind both CheckStructure overloads:
  /// Cr, then Er, then Ef, offenders ascending, constraint queries fanned
  /// out across the pool.
  template <typename Source>
  bool CheckStructureOn(const Source& source, std::vector<Violation>* out,
                        EvaluatorStats* stats) const;

  ThreadPool& Pool() const;
  /// Lanes to use for `work_items` independent pieces of work.
  unsigned EffectiveThreads(size_t work_items) const;

  const DirectorySchema& schema_;
  CheckOptions options_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_CORE_LEGALITY_CHECKER_H_
