#include "query/evaluator.h"

#include <chrono>
#include <type_traits>
#include <vector>

namespace ldapbound {

namespace {

uint64_t CountPlanNodes(const ExplainNode& node) {
  uint64_t n = 1;
  for (const ExplainNode& child : node.children) n += CountPlanNodes(child);
  return n;
}

/// Strategy reported when a node's body never picked one explicitly
/// (the set-operation nodes, whose work is bitmap algebra).
const char* DefaultStrategy(const Query& query) {
  switch (query.kind()) {
    case Query::Kind::kSelect:
      return "scan";
    case Query::Kind::kHier:
      return "?";
    case Query::Kind::kDiff:
    case Query::Kind::kUnion:
    case Query::Kind::kIntersect:
      return "bitmap";
  }
  return "?";
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

const char* AxisStrategy(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "parent-map";
    case Axis::kParent:
      return "parent-probe";
    case Axis::kDescendant:
      return "mark-ancestors";
    case Axis::kAncestor:
      return "memo-chain-walk";
  }
  return "?";
}

/// Calls `emit(a)` for every member `a` of `nodes` with an `axis`-neighbor
/// in `related` (some more than once); `emit` returns false to stop.
/// `parent_of(id)` is the only tree access, so the live and the snapshot
/// source share this code. Returns false iff `emit` stopped the walk.
template <typename ParentOf, typename Emit>
bool ForEachRelated(Axis axis, const EntrySet& nodes, const EntrySet& related,
                    ParentOf parent_of, uint64_t& scanned, Emit emit) {
  switch (axis) {
    case Axis::kChild: {
      // The parents of related members that are nodes. Siblings often
      // have adjacent ids, so a parent just tested is skipped outright.
      EntryId last_parent = kInvalidEntryId;
      return related.ForEachWhile([&](EntryId id) {
        ++scanned;
        const EntryId p = parent_of(id);
        if (p == last_parent) return true;
        last_parent = p;
        return p == kInvalidEntryId || !nodes.Contains(p) || emit(p);
      });
    }
    case Axis::kParent:
      return nodes.ForEachWhile([&](EntryId id) {
        ++scanned;
        EntryId p = parent_of(id);
        return p == kInvalidEntryId || !related.Contains(p) || emit(id);
      });
    case Axis::kDescendant: {
      // Mark the proper ancestors of the related members. The marks are
      // closed upward, so a walk stops at the first marked entry and the
      // pass costs O(|related| + marked). Siblings often have adjacent
      // ids, so a walk from the previous walk's start is skipped outright.
      EntrySet marked;
      EntryId last_start = kInvalidEntryId;
      return related.ForEachWhile([&](EntryId id) {
        const EntryId start = parent_of(id);
        if (start == last_start) return true;
        last_start = start;
        for (EntryId p = start; p != kInvalidEntryId && !marked.Contains(p);
             p = parent_of(p)) {
          ++scanned;
          marked.Insert(p);
          if (nodes.Contains(p) && !emit(p)) return false;
        }
        return true;
      });
    }
    case Axis::kAncestor: {
      // Memoized chain walk: hit(x) = x in related, or hit(parent(x)).
      // Every entry's verdict is settled once, so the pass costs
      // O(|nodes| + distinct entries on their parent chains).
      EntrySet known;
      EntrySet hit;
      std::vector<EntryId> path;
      auto chain_hits = [&](EntryId start) {
        path.clear();
        bool verdict = false;
        for (EntryId x = start; x != kInvalidEntryId; x = parent_of(x)) {
          ++scanned;
          if (known.Contains(x)) {
            verdict = hit.Contains(x);
            break;
          }
          if (related.Contains(x)) {
            verdict = true;
            break;
          }
          path.push_back(x);
        }
        for (EntryId x : path) {
          known.Insert(x);
          if (verdict) hit.Insert(x);
        }
        return verdict;
      };
      // Siblings often have adjacent ids: reuse the previous verdict.
      EntryId last_parent = kInvalidEntryId;
      bool last_hit = false;
      return nodes.ForEachWhile([&](EntryId id) {
        const EntryId p = parent_of(id);
        if (p != last_parent) {
          last_parent = p;
          last_hit = p != kInvalidEntryId && chain_hits(p);
        }
        return !last_hit || emit(id);
      });
    }
  }
  return true;
}

/// True iff `query` is an unscoped class, `attr=value` or match-all
/// selection: one that the postings of either source answer.
bool IsPostingSelect(const Query& query) {
  if (query.scope() != Scope::kAll) return false;
  const Matcher* m = query.matcher().get();
  return dynamic_cast<const ClassMatcher*>(m) != nullptr ||
         dynamic_cast<const AttrEqualsMatcher*>(m) != nullptr ||
         dynamic_cast<const TrueMatcher*>(m) != nullptr;
}

size_t NumAlive(const Directory& directory) { return directory.NumEntries(); }
size_t NumAlive(const DirectorySnapshot& snapshot) {
  return snapshot.num_alive;
}

}  // namespace

QueryMetrics& GetQueryMetrics() {
  static QueryMetrics* metrics = new QueryMetrics{
      MetricRegistry::Default().GetCounter(
          "ldapbound_query_nodes_evaluated_total",
          "Query AST nodes processed by evaluators"),
      MetricRegistry::Default().GetCounter(
          "ldapbound_query_entries_scanned_total",
          "Per-entry work units performed by evaluators"),
      MetricRegistry::Default().GetCounter(
          "ldapbound_query_short_circuits_total",
          "Lazy-emptiness early exits (IsEmpty concluded at a witness)"),
      MetricRegistry::Default().GetHistogram(
          "ldapbound_query_nodes_per_query",
          "AST nodes evaluated per published query batch"),
      MetricRegistry::Default().GetHistogram(
          "ldapbound_query_scan_length",
          "Entries scanned per published query batch"),
  };
  return *metrics;
}

void AddEvaluatorStatsToMetrics(const EvaluatorStats& stats) {
  QueryMetrics& metrics = GetQueryMetrics();
  metrics.nodes_evaluated.Increment(stats.nodes_evaluated);
  metrics.entries_scanned.Increment(stats.entries_scanned);
  metrics.short_circuits.Increment(stats.short_circuits);
  metrics.nodes_per_query.Observe(stats.nodes_evaluated);
  metrics.scan_length.Observe(stats.entries_scanned);
}

ExplainNode QueryEvaluator::MakeNodeHeader(const Query& query,
                                           bool lazy) const {
  ExplainNode node;
  node.lazy = lazy;
  switch (query.kind()) {
    case Query::Kind::kSelect:
      node.op = "select";
      if (directory_ != nullptr) {
        node.detail = query.ToString(directory_->vocab());
      }
      switch (query.scope()) {
        case Scope::kAll:
          node.scope = "all";
          break;
        case Scope::kDeltaOnly:
          node.scope = "delta";
          break;
        case Scope::kExcludeDelta:
          node.scope = "exclude-delta";
          break;
        case Scope::kEmpty:
          node.scope = "empty";
          break;
      }
      break;
    case Query::Kind::kHier:
      node.op = std::string(AxisToWord(query.axis()));
      break;
    case Query::Kind::kDiff:
      node.op = "diff";
      break;
    case Query::Kind::kUnion:
      node.op = "union";
      break;
    case Query::Kind::kIntersect:
      node.op = "intersect";
      break;
  }
  return node;
}

// The frame discipline of one plan node: push this node as the current
// parent, zero the child accumulators, run the plain body (whose recursive
// Evaluate/IsEmpty calls re-enter the dispatcher and so build the child
// subtrees), then compute this node's OWN per-entry work as the inclusive
// counter delta minus what the children accumulated. An IsEmpty body
// (returning bool) is a lazy node and never materializes its result.
template <typename Body>
auto QueryEvaluator::Profiled(const Query& query, Body&& body) {
  using Out = decltype(body());
  constexpr bool kLazy = std::is_same_v<Out, bool>;
  ExplainNode node = MakeNodeHeader(query, kLazy);
  ExplainNode* saved_parent = profile_parent_;
  const uint64_t saved_children_scanned = profile_children_scanned_;
  const uint64_t saved_children_sc = profile_children_short_circuits_;
  profile_parent_ = &node;
  profile_children_scanned_ = 0;
  profile_children_short_circuits_ = 0;
  node_strategy_ = nullptr;
  const uint64_t scanned_before = stats_.entries_scanned;
  const uint64_t sc_before = stats_.short_circuits;
  const auto start = std::chrono::steady_clock::now();

  Out result = body();

  node.latency_ns = ElapsedNs(start);
  const uint64_t inclusive_scanned = stats_.entries_scanned - scanned_before;
  const uint64_t inclusive_sc = stats_.short_circuits - sc_before;
  node.entries_scanned = inclusive_scanned - profile_children_scanned_;
  node.short_circuit = inclusive_sc > profile_children_short_circuits_;
  if constexpr (!kLazy) node.out_cardinality = result.Count();
  node.strategy = node_strategy_ != nullptr ? node_strategy_
                                            : DefaultStrategy(query);
  node_strategy_ = nullptr;  // consumed; the parent sets its own later
  node.input_cardinalities.reserve(node.children.size());
  for (const ExplainNode& child : node.children) {
    node.input_cardinalities.push_back(child.out_cardinality);
  }
  profile_parent_ = saved_parent;
  profile_children_scanned_ = saved_children_scanned + inclusive_scanned;
  profile_children_short_circuits_ = saved_children_sc + inclusive_sc;
  if (saved_parent != nullptr) {
    saved_parent->children.push_back(std::move(node));
  } else {
    profile_->total_ns = node.latency_ns;
    profile_->total_scanned = inclusive_scanned;
    profile_->total_nodes = CountPlanNodes(node);
    profile_->root = std::move(node);
  }
  return result;
}

EntrySet QueryEvaluator::Evaluate(const Query& query) {
  if (profile_ != nullptr) {
    return Profiled(query, [&] { return EvaluateImpl(query); });
  }
  return EvaluateImpl(query);
}

bool QueryEvaluator::IsEmpty(const Query& query) {
  if (profile_ != nullptr) {
    return Profiled(query, [&] { return IsEmptyImpl(query); });
  }
  return IsEmptyImpl(query);
}

const EntrySet& QueryEvaluator::AliveSet() const {
  return directory_ != nullptr ? directory_->AliveSet() : *snapshot_->alive;
}

EntrySet QueryEvaluator::EvaluateImpl(const Query& query) {
  ++stats_.nodes_evaluated;
  switch (query.kind()) {
    case Query::Kind::kSelect:
      return EvaluateSelect(query);
    case Query::Kind::kHier:
      return EvaluateHier(query);
    case Query::Kind::kDiff: {
      EntrySet lhs = Evaluate(query.operands()[0]);
      EntrySet rhs = Evaluate(query.operands()[1]);
      lhs.SubtractFrom(rhs);
      return lhs;
    }
    case Query::Kind::kUnion: {
      EntrySet out;
      for (const Query& op : query.operands()) {
        EntrySet part = Evaluate(op);
        out.UnionWith(part);
      }
      return out;
    }
    case Query::Kind::kIntersect: {
      // Empty intersection over subsets of D: all alive entries.
      if (query.operands().empty()) return AliveSet();
      EntrySet out = Evaluate(query.operands()[0]);
      for (size_t i = 1; i < query.operands().size(); ++i) {
        EntrySet part = Evaluate(query.operands()[i]);
        out.IntersectWith(part);
      }
      return out;
    }
  }
  return EntrySet();
}

bool QueryEvaluator::IsEmptyImpl(const Query& query) {
  ++stats_.nodes_evaluated;
  switch (query.kind()) {
    case Query::Kind::kSelect:
      return SelectIsEmpty(query);
    case Query::Kind::kHier:
      return HierIsEmpty(query);
    case Query::Kind::kDiff: {
      // (? A B) is empty iff A ⊆ B; the subset test exits at the first
      // word holding a surviving id, and B is never evaluated when A is
      // already empty.
      EntrySet lhs = Evaluate(query.operands()[0]);
      if (lhs.Empty()) {
        ++stats_.short_circuits;  // B skipped entirely
        RecordStrategy("subset-test");
        return true;
      }
      EntrySet rhs = Evaluate(query.operands()[1]);
      bool empty = lhs.IsSubsetOf(rhs);
      if (!empty) ++stats_.short_circuits;  // exited at a surviving word
      RecordStrategy("subset-test");
      return empty;
    }
    case Query::Kind::kUnion: {
      for (const Query& op : query.operands()) {
        if (!IsEmpty(op)) {
          ++stats_.short_circuits;  // remaining operands skipped
          RecordStrategy("operand-sweep");
          return false;
        }
      }
      RecordStrategy("operand-sweep");
      return true;
    }
    case Query::Kind::kIntersect: {
      const std::vector<Query>& ops = query.operands();
      if (ops.empty()) return AliveSet().Empty();
      if (ops.size() == 1) {
        bool empty = IsEmpty(ops[0]);
        RecordStrategy("single-operand");
        return empty;
      }
      EntrySet acc = Evaluate(ops[0]);
      if (acc.Empty()) {
        ++stats_.short_circuits;  // remaining operands skipped
        RecordStrategy("incremental-intersect");
        return true;
      }
      for (size_t i = 1; i + 1 < ops.size(); ++i) {
        EntrySet part = Evaluate(ops[i]);
        acc.IntersectWith(part);
        if (acc.Empty()) {
          ++stats_.short_circuits;
          RecordStrategy("incremental-intersect");
          return true;
        }
      }
      EntrySet last = Evaluate(ops.back());
      bool empty = !acc.Intersects(last);
      if (!empty) ++stats_.short_circuits;  // exited at a common word
      RecordStrategy("incremental-intersect");
      return empty;
    }
  }
  return true;
}

EntrySet QueryEvaluator::EvaluateSelect(const Query& query) {
  const Scope scope = query.scope();
  if (scope == Scope::kEmpty) {
    RecordStrategy("empty-scope");
    return EntrySet();
  }
  if (IsPostingSelect(query)) {
    RecordStrategy("posting");
    return snapshot_ != nullptr ? PostingSelect(*snapshot_, query)
                                : PostingSelect(*directory_, query);
  }
  EntrySet out;
  if (snapshot_ != nullptr) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument(
          scope != Scope::kAll
              ? "snapshot query: delta-relative scopes need the live "
                "directory"
              : "snapshot query: only class, attribute-equality and "
                "match-all selections are answered from postings");
    }
    return out;
  }
  const Matcher& matcher = *query.matcher();
  if (scope == Scope::kDeltaOnly) {
    // Δ-scoped selections touch only Δ — the ingredient that makes the
    // Figure 5 insertion checks cost O(|Δ|) rather than O(|D|).
    RecordStrategy("delta-scan");
    if (delta_ == nullptr) return out;
    delta_->ForEach([&](EntryId id) {
      if (!directory_->IsAlive(id)) return;
      ++stats_.entries_scanned;
      if (matcher.Matches(directory_->entry(id))) out.Insert(id);
    });
    return out;
  }
  RecordStrategy("scan");
  directory_->ForEachAlive([&](const Entry& e) {
    ++stats_.entries_scanned;
    if (scope == Scope::kExcludeDelta && delta_ != nullptr &&
        delta_->Contains(e.id())) {
      return;
    }
    if (matcher.Matches(e)) out.Insert(e.id());
  });
  return out;
}

template <typename Source>
EntrySet QueryEvaluator::PostingSelect(const Source& source,
                                       const Query& query) {
  EntrySet out;
  const Matcher* matcher = query.matcher().get();
  if (const auto* cm = dynamic_cast<const ClassMatcher*>(matcher)) {
    if (const EntrySet* posting = source.ClassSet(cm->cls())) {
      stats_.entries_scanned += source.CountWithClass(cm->cls());
      out = *posting;  // shares the posting's chunks
    }
    return out;
  }
  if (const auto* eq = dynamic_cast<const AttrEqualsMatcher*>(matcher)) {
    if (const std::vector<EntryId>* posting =
            source.ValuePosting(eq->attr(), eq->value())) {
      stats_.entries_scanned += posting->size();
      for (EntryId id : *posting) out.Insert(id);
    }
    return out;
  }
  stats_.entries_scanned += NumAlive(source);  // match-all
  return AliveSet();
}

bool QueryEvaluator::SelectIsEmpty(const Query& query) {
  // Postings answer without a scan to cut short.
  if (snapshot_ != nullptr || IsPostingSelect(query)) {
    return EvaluateSelect(query).Empty();
  }
  const Scope scope = query.scope();
  if (scope == Scope::kEmpty) {
    RecordStrategy("empty-scope");
    return true;
  }
  const Matcher& matcher = *query.matcher();
  if (scope == Scope::kDeltaOnly) {
    RecordStrategy("delta-scan");
    if (delta_ == nullptr) return true;
    bool empty = delta_->ForEachWhile([&](EntryId id) {
      if (!directory_->IsAlive(id)) return true;
      ++stats_.entries_scanned;
      return !matcher.Matches(directory_->entry(id));
    });
    if (!empty) ++stats_.short_circuits;  // stopped at the witness
    return empty;
  }
  RecordStrategy("scan");
  // Early-exit scan: stop at the first matching alive entry.
  const bool empty = directory_->AliveSet().ForEachWhile([&](EntryId id) {
    ++stats_.entries_scanned;
    if (scope == Scope::kExcludeDelta && delta_ != nullptr &&
        delta_->Contains(id)) {
      return true;
    }
    return !matcher.Matches(directory_->entry(id));
  });
  if (!empty) ++stats_.short_circuits;  // stopped at the witness
  return empty;
}

bool QueryEvaluator::WalkAxis(Axis axis, const EntrySet& node_set,
                              const EntrySet& related, EntrySet* out) {
  RecordStrategy(AxisStrategy(axis));
  auto walk = [&](auto parent_of) {
    if (out == nullptr) {
      return ForEachRelated(axis, node_set, related, parent_of,
                            stats_.entries_scanned,
                            [](EntryId) { return false; });
    }
    return ForEachRelated(axis, node_set, related, parent_of,
                          stats_.entries_scanned, [out](EntryId id) {
                            out->Insert(id);
                            return true;
                          });
  };
  if (snapshot_ != nullptr) {
    const DirectorySnapshot& snap = *snapshot_;
    return walk([&snap](EntryId id) { return snap.parent(id); });
  }
  const ForestIndex& index = directory_->GetIndex();
  return walk([&index](EntryId id) { return index.parent(id); });
}

EntrySet QueryEvaluator::EvaluateHier(const Query& query) {
  EntrySet node_set = Evaluate(query.operands()[0]);
  EntrySet related = Evaluate(query.operands()[1]);
  EntrySet out;
  WalkAxis(query.axis(), node_set, related, &out);
  return out;
}

bool QueryEvaluator::HierIsEmpty(const Query& query) {
  EntrySet node_set = Evaluate(query.operands()[0]);
  if (node_set.Empty()) {
    RecordStrategy("empty-operand");
    return true;
  }
  EntrySet related = Evaluate(query.operands()[1]);
  if (related.Empty()) {
    RecordStrategy("empty-operand");
    return true;
  }
  // A false verdict stopped at a witness: by construction a short-circuit.
  const bool empty = WalkAxis(query.axis(), node_set, related, nullptr);
  if (!empty) ++stats_.short_circuits;
  return empty;
}

}  // namespace ldapbound
