#ifndef LDAPBOUND_QUERY_EVALUATOR_H_
#define LDAPBOUND_QUERY_EVALUATOR_H_

#include <cstdint>

#include "model/directory.h"
#include "model/directory_snapshot.h"
#include "model/entry_set.h"
#include "query/explain.h"
#include "query/query.h"
#include "util/metrics.h"
#include "util/status.h"

namespace ldapbound {

/// Counters exposed for testing the O(|Q|·|D|) evaluation bound.
struct EvaluatorStats {
  uint64_t nodes_evaluated = 0;   ///< query AST nodes processed
  uint64_t entries_scanned = 0;   ///< per-entry work units performed
  uint64_t short_circuits = 0;    ///< lazy-emptiness early exits: an
                                  ///< IsEmpty node that concluded at a
                                  ///< witness (or an empty operand)
                                  ///< without materializing its result

  EvaluatorStats& operator+=(const EvaluatorStats& other) {
    nodes_evaluated += other.nodes_evaluated;
    entries_scanned += other.entries_scanned;
    short_circuits += other.short_circuits;
    return *this;
  }
};

/// Process-wide mirrors of the evaluator counters (ldapbound_query_*
/// families, util/metrics.h). The evaluator itself stays metrics-free —
/// its counters are plain locals on purpose (one instance per worker, no
/// atomics in the scan loops); owners that finish a query batch call
/// AddEvaluatorStatsToMetrics once to publish the aggregate.
struct QueryMetrics {
  Counter& nodes_evaluated;
  Counter& entries_scanned;
  Counter& short_circuits;
  Histogram& nodes_per_query;  ///< |Q| of each published batch
  Histogram& scan_length;      ///< entries scanned by each published batch
};
QueryMetrics& GetQueryMetrics();

/// Publishes `stats` (adds to the counters, observes the histograms).
void AddEvaluatorStatsToMetrics(const EvaluatorStats& stats);

/// Evaluates hierarchical selection queries over one of two sources: the
/// live Directory, or a pinned DirectorySnapshot (the lock-free read path,
/// DESIGN.md §10). Set algebra, lazy IsEmpty, stats and EXPLAIN profiles
/// are the same code for both; only the atomic selections differ.
///
/// Every AST node costs O(|D|) work at most (one pass; no pairwise joins),
/// realizing the evaluation bound of Jagadish et al. that Section 3.2
/// builds on. The hierarchy axes need nothing but parent links (the
/// ForestIndex tree links live, their frozen copy on a snapshot):
///   - child:      mark the parents of B-members, intersect with A;
///   - parent:     test each A-member's parent against B;
///   - descendant: mark the proper ancestors of B, each upward walk
///                 stopping at an entry already marked, so the pass costs
///                 O(|B| + marked); intersect with A;
///   - ancestor:   memoized parent-chain walk from each A-member;
///   - diff / union / intersect: bitmap algebra.
///
/// Both sources answer unscoped class, `attr=value` and match-all
/// selections from the same postings: the live head reads the mirrors the
/// Directory keeps, a snapshot reads their frozen copy. The live source
/// scans entries for every other selection; an optional Δ-set enables the
/// scoped predicates of Figure 5 (selections restricted to Δ, to its
/// complement, or suppressed). The snapshot source never touches the live
/// Directory, so any number of snapshot evaluators run concurrently with
/// the writer. A Δ scope or a matcher that reads entry contents has no
/// answer on a snapshot: evaluating one sets status() to an error instead
/// of returning a wrong set.
///
/// The evaluator holds mutable counters (stats_), so one instance must not
/// be shared across threads; the parallel legality engine creates one
/// evaluator per worker and merges the stats afterwards.
class QueryEvaluator {
 public:
  /// Live source. `delta`, if given, must remain valid while the evaluator
  /// is used.
  explicit QueryEvaluator(const Directory& directory,
                          const EntrySet* delta = nullptr)
      : directory_(&directory), delta_(delta) {}

  /// Pinned source. The snapshot must stay pinned while the evaluator is
  /// used.
  explicit QueryEvaluator(const DirectorySnapshot& snapshot)
      : snapshot_(&snapshot) {}

  /// Attaches an EXPLAIN profile: each subsequent top-level Evaluate or
  /// IsEmpty call rebuilds `*profile` with the per-node plan tree (input /
  /// output cardinalities, strategy chosen, short-circuit points, per-node
  /// latency). Pass nullptr to detach. The profile object must outlive the
  /// attached evaluations. Profiling changes no results and, when detached
  /// (the default), costs a handful of never-taken branches per AST node —
  /// never per-entry work. A snapshot carries ids, not names, so
  /// snapshot plans leave selection details blank.
  void set_profile(QueryProfile* profile) { profile_ = profile; }

  /// Evaluates `query`; the result holds alive entry ids. Meaningless
  /// unless status() is OK afterwards.
  EntrySet Evaluate(const Query& query);

  /// True iff the query result is empty. Lazy: the top-level node stops at
  /// the first surviving id instead of materializing its result set —
  /// a union short-circuits at the first non-empty operand, a difference
  /// becomes a word-wise subset test, a hierarchical selection stops at
  /// the first member with a qualifying related entry. Operand subtrees
  /// below the top-level node still evaluate fully. Meaningless unless
  /// status() is OK afterwards.
  bool IsEmpty(const Query& query);

  /// OK unless some evaluation needed what this source cannot answer (a
  /// Δ scope or an entry-content matcher on a snapshot). Sticky: the
  /// first error stays.
  const Status& status() const { return status_; }

  const EvaluatorStats& stats() const { return stats_; }

 private:
  EntrySet EvaluateImpl(const Query& query);
  bool IsEmptyImpl(const Query& query);
  /// Runs `body` (an Impl call) as one EXPLAIN plan node.
  template <typename Body>
  auto Profiled(const Query& query, Body&& body);
  EntrySet EvaluateSelect(const Query& query);
  bool SelectIsEmpty(const Query& query);
  /// An unscoped class, `attr=value` or match-all selection answered
  /// from `source`'s postings (the live Directory or a snapshot).
  template <typename Source>
  EntrySet PostingSelect(const Source& source, const Query& query);
  EntrySet EvaluateHier(const Query& query);
  bool HierIsEmpty(const Query& query);
  /// Finds the members of `node_set` with an `axis`-neighbor in `related`:
  /// inserts them into `*out`, or with `out` null stops at the first one.
  /// Returns false iff it stopped at such a witness.
  bool WalkAxis(Axis axis, const EntrySet& node_set, const EntrySet& related,
                EntrySet* out);

  /// Every alive entry of the source.
  const EntrySet& AliveSet() const;

  ExplainNode MakeNodeHeader(const Query& query, bool lazy) const;

  /// Records the strategy the CURRENT plan node chose. Bodies call this at
  /// decision points that run after their operand subtrees finished (each
  /// child frame consumes-and-clears the slot), so the value the frame
  /// reads on finish is its own. No-op when no profile is attached.
  void RecordStrategy(const char* strategy) {
    if (profile_ != nullptr) node_strategy_ = strategy;
  }

  const Directory* directory_ = nullptr;         // live source, or
  const DirectorySnapshot* snapshot_ = nullptr;  // pinned source
  const EntrySet* delta_ = nullptr;
  EvaluatorStats stats_;
  Status status_;

  // EXPLAIN state (untouched unless a profile is attached).
  QueryProfile* profile_ = nullptr;
  ExplainNode* profile_parent_ = nullptr;
  const char* node_strategy_ = nullptr;
  uint64_t profile_children_scanned_ = 0;
  uint64_t profile_children_short_circuits_ = 0;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_QUERY_EVALUATOR_H_
