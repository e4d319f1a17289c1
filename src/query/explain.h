#ifndef LDAPBOUND_QUERY_EXPLAIN_H_
#define LDAPBOUND_QUERY_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/vocabulary.h"
#include "query/query.h"

namespace ldapbound {

/// Per-plan-node profile of one hierarchical selection query evaluation.
///
/// The paper reduces structure-schema legality to emptiness tests over
/// hierarchical selection queries (Figure 4, Theorem 3.1), so when a
/// commit is slow or rejected the operator's question is "which
/// constraint's query did it, and what did its evaluation look like?" —
/// the explainable-validation-report problem ShEx/SHACL systems solve for
/// RDF shapes. An ExplainNode answers it for one AST node: what the node
/// computed, how (posting vs class-cache hit vs scan, which axis walk,
/// lazy short-circuit), how much it read and produced, and how long it
/// took.
///
/// Profiles are built by QueryEvaluator when a QueryProfile is attached
/// (QueryEvaluator::set_profile); evaluation without a profile attached
/// pays a handful of predictable never-taken branches per AST node —
/// nothing per entry — and bench_explain shows the difference is noise.
struct ExplainNode {
  std::string op;        ///< "select", "child", "parent", "descendant",
                         ///< "ancestor", "diff", "union", "intersect"
  std::string detail;    ///< matcher rendering for selects ("objectClass=x")
  std::string strategy;  ///< how the node was answered ("scan",
                         ///< "posting", "class-cache", "delta-scan",
                         ///< "mark-ancestors", "bitmap", "subset-test",
                         ///< ...; see query/evaluator.cc)
  std::string scope;     ///< instance scope of a select ("all", "delta", ...)
  bool lazy = false;           ///< evaluated via IsEmpty (verdict only)
  bool short_circuit = false;  ///< concluded at a witness / empty operand
                               ///< without materializing its result
  uint64_t out_cardinality = 0;   ///< |result| (0 for short-circuited lazy
                                  ///< nodes, which never materialize)
  uint64_t entries_scanned = 0;   ///< per-entry work of THIS node only
  uint64_t latency_ns = 0;        ///< inclusive wall time (children included)
  std::vector<uint64_t> input_cardinalities;  ///< children's out cardinalities
  std::vector<ExplainNode> children;

  /// Output rows per input row over the children's combined output;
  /// 1.0 for leaves (no inputs to be selective over).
  double Selectivity() const;

  /// Indented plan tree, one node per line:
  ///   descendant  out=0 scanned=12 18.3us [mark-ancestors, short-circuit]
  ///     select (objectClass=orgGroup)  out=9 scanned=9 4.1us [class-cache]
  std::string RenderText(int indent = 0) const;

  /// The node (recursively) as a JSON object.
  std::string RenderJson() const;
};

/// Aggregate of one profiled evaluation: the plan tree plus totals.
struct QueryProfile {
  ExplainNode root;
  uint64_t total_ns = 0;
  uint64_t total_nodes = 0;
  uint64_t total_scanned = 0;

  /// The plan tree followed by a one-line total summary.
  std::string RenderText() const;

  /// {"total_ns":...,"total_nodes":...,"total_scanned":...,"plan":{...}}
  std::string RenderJson() const;
};

/// Human-friendly duration: "843ns", "12.3us", "4.56ms", "1.20s".
std::string FormatDurationNs(uint64_t ns);

}  // namespace ldapbound

#endif  // LDAPBOUND_QUERY_EXPLAIN_H_
