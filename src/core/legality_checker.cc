#include "core/legality_checker.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/translation.h"
#include "query/evaluator.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ldapbound {

namespace {

// Process-wide checker observability (ldapbound_checker_* families).
// Per-entry work never touches these directly: shards accumulate in plain
// locals (ContentCounters) and flush once per shard, constraints observe
// once per query. See util/metrics.h for the cost model.
struct CheckerMetrics {
  Histogram& content_pass_ns;
  Histogram& structure_pass_ns;
  Histogram& keys_pass_ns;
  Histogram& constraint_ns;    ///< one violation query, phase 2
  Counter& content_legal;
  Counter& content_illegal;
  Counter& structure_legal;
  Counter& structure_illegal;
  Counter& keys_legal;
  Counter& keys_illegal;
  Counter& entries_checked;    ///< entries through a content pass
  Counter& memo_screened;      ///< entries certified by the class-set memo
  Counter& memo_fallback;      ///< entries re-run through the exact check
  Histogram& shard_imbalance_pct;  ///< 100*(max-min)/max chunks per lane
};

CheckerMetrics& GetCheckerMetrics() {
  // One registration, then lock-free updates; leaked with the registry.
  MetricRegistry& r = MetricRegistry::Default();
  static CheckerMetrics* metrics = new CheckerMetrics{
      r.GetHistogram("ldapbound_checker_pass_ns",
                     "Wall nanoseconds of one checker pass",
                     "pass=\"content\""),
      r.GetHistogram("ldapbound_checker_pass_ns",
                     "Wall nanoseconds of one checker pass",
                     "pass=\"structure\""),
      r.GetHistogram("ldapbound_checker_pass_ns",
                     "Wall nanoseconds of one checker pass",
                     "pass=\"keys\""),
      r.GetHistogram("ldapbound_checker_constraint_ns",
                     "Wall nanoseconds of one structural-constraint "
                     "violation query"),
      r.GetCounter("ldapbound_checker_checks_total",
                   "Checker pass runs by verdict",
                   "pass=\"content\",verdict=\"legal\""),
      r.GetCounter("ldapbound_checker_checks_total",
                   "Checker pass runs by verdict",
                   "pass=\"content\",verdict=\"illegal\""),
      r.GetCounter("ldapbound_checker_checks_total",
                   "Checker pass runs by verdict",
                   "pass=\"structure\",verdict=\"legal\""),
      r.GetCounter("ldapbound_checker_checks_total",
                   "Checker pass runs by verdict",
                   "pass=\"structure\",verdict=\"illegal\""),
      r.GetCounter("ldapbound_checker_checks_total",
                   "Checker pass runs by verdict",
                   "pass=\"keys\",verdict=\"legal\""),
      r.GetCounter("ldapbound_checker_checks_total",
                   "Checker pass runs by verdict",
                   "pass=\"keys\",verdict=\"illegal\""),
      r.GetCounter("ldapbound_checker_entries_checked_total",
                   "Alive entries examined by content passes"),
      r.GetCounter("ldapbound_checker_memo_screened_total",
                   "Entries certified clean by the class-set memo screen"),
      r.GetCounter("ldapbound_checker_memo_fallback_total",
                   "Entries that fell back to the exact per-entry check"),
      r.GetHistogram("ldapbound_checker_shard_imbalance_pct",
                     "Per-pass lane imbalance, 100*(max-min)/max chunks"),
  };
  return *metrics;
}

// Records `v` if collecting; returns false ("stop now") when not collecting.
bool Report(std::vector<Violation>* out, Violation v, bool* ok) {
  *ok = false;
  if (out == nullptr) return false;
  out->push_back(std::move(v));
  return true;
}

// Calls `fn(value)` for every value of `attr` in `entry`, in sorted order,
// without materializing a vector (Entry::GetValues allocates).
template <typename Fn>
void ForEachValueOf(const Entry& entry, AttributeId attr, Fn&& fn) {
  const std::vector<AttributeValue>& vals = entry.values();
  auto it = std::lower_bound(
      vals.begin(), vals.end(), attr,
      [](const AttributeValue& av, AttributeId x) { return av.attribute < x; });
  for (; it != vals.end() && it->attribute == attr; ++it) fn(it->value);
}

}  // namespace

/// Per-worker memo for full-directory content passes. Keyed by the entry's
/// (sorted, unique) class list; the cached verdict and attribute sets are
/// entry-independent, so each distinct class combination pays the
/// class-schema analysis once per worker instead of once per entry.
struct LegalityChecker::ContentCache {
  struct ClassSetInfo {
    bool clean = false;  ///< the class list passes the class schema
    /// Union of the member classes' required attributes (sans objectClass),
    /// sorted and unique.
    std::vector<AttributeId> required;
    /// Bitmap over attribute ids: allowed by at least one member class.
    std::vector<uint64_t> allowed;

    bool IsAllowed(AttributeId a) const {
      return (a >> 6) < allowed.size() && (allowed[a >> 6] >> (a & 63)) & 1;
    }
  };

  std::map<std::vector<ClassId>, ClassSetInfo> infos;
  AttributeId objectclass = kInvalidAttributeId;
};

struct LegalityChecker::ContentCounters {
  uint64_t entries = 0;   ///< alive entries examined
  uint64_t screened = 0;  ///< certified by the memo screen
  uint64_t fallback = 0;  ///< re-ran the exact serial check

  void Flush() const {
    CheckerMetrics& metrics = GetCheckerMetrics();
    metrics.entries_checked.Increment(entries);
    metrics.memo_screened.Increment(screened);
    metrics.memo_fallback.Increment(fallback);
  }
};

namespace {

// Observes lane imbalance for one sharded pass: 0% when every lane ran the
// same number of chunks, approaching 100% when one lane did (nearly) all
// the work while another sat idle.
void ObserveShardImbalance(const std::vector<uint64_t>& lane_chunks) {
  if (lane_chunks.size() < 2) return;
  uint64_t lo = lane_chunks[0], hi = lane_chunks[0];
  for (uint64_t c : lane_chunks) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  if (hi == 0) return;
  GetCheckerMetrics().shard_imbalance_pct.Observe((hi - lo) * 100 / hi);
}

}  // namespace

ThreadPool& LegalityChecker::Pool() const {
  return options_.pool != nullptr ? *options_.pool : ThreadPool::Default();
}

unsigned LegalityChecker::EffectiveThreads(size_t work_items) const {
  unsigned t = ResolveThreads(options_.num_threads);
  if (work_items < t) t = static_cast<unsigned>(work_items);
  return t == 0 ? 1 : t;
}

bool LegalityChecker::CheckClassList(const std::vector<ClassId>& classes,
                                    EntryId entry,
                                    std::vector<Violation>* out) const {
  const ClassSchema& cs = schema_.classes();
  bool ok = true;
  auto report = [&](ViolationKind kind, ClassId cls, ClassId cls2) {
    Violation v;
    v.kind = kind;
    v.entry = entry;
    v.cls = cls;
    v.cls2 = cls2;
    return Report(out, v, &ok);
  };

  // Only schema classes may be present; split into core and auxiliary.
  ClassId deepest = kInvalidClassId;
  uint32_t deepest_depth = 0;
  size_t num_core = 0;
  for (ClassId c : classes) {
    if (!cs.Contains(c)) {
      if (!report(ViolationKind::kUnknownClass, c, kInvalidClassId)) {
        return false;
      }
      continue;
    }
    if (cs.IsCore(c)) {
      ++num_core;
      uint32_t d = cs.DepthOf(c);
      if (deepest == kInvalidClassId || d > deepest_depth) {
        deepest = c;
        deepest_depth = d;
      }
    }
  }

  // At least one core class; the inheritance and auxiliary checks need a
  // core chain.
  if (num_core == 0) {
    report(ViolationKind::kNoCoreClass, kInvalidClassId, kInvalidClassId);
    return false;
  }

  // Single inheritance: the core classes must be exactly the ancestors of
  // the deepest one — any other configuration is either a missing
  // superclass or a pair of incomparable core classes.
  std::vector<ClassId> chain = cs.AncestorsOf(deepest);
  std::sort(chain.begin(), chain.end());
  for (ClassId c : classes) {
    if (cs.IsCore(c) && !std::binary_search(chain.begin(), chain.end(), c) &&
        !report(ViolationKind::kExclusiveClasses, deepest, c)) {
      return false;
    }
  }
  for (ClassId c : chain) {
    if (!std::binary_search(classes.begin(), classes.end(), c) &&
        !report(ViolationKind::kMissingSuperclass, deepest, c)) {
      return false;
    }
  }

  // Auxiliary classes must be allowed by some core class of the entry.
  for (ClassId c : classes) {
    if (!cs.IsAuxiliary(c)) continue;
    bool allowed = false;
    for (ClassId core : classes) {
      if (!cs.IsCore(core)) continue;
      const std::vector<ClassId>& aux = cs.AuxAllowed(core);
      if (std::binary_search(aux.begin(), aux.end(), c)) {
        allowed = true;
        break;
      }
    }
    if (!allowed &&
        !report(ViolationKind::kDisallowedAuxiliary, c, kInvalidClassId)) {
      return false;
    }
  }
  return ok;
}

bool LegalityChecker::CheckEntryAttributeSchema(
    const Directory& directory, const Entry& entry,
    std::vector<Violation>* out) const {
  const AttributeSchema& attrs = schema_.attributes();
  const AttributeId oc = directory.vocab().objectclass_attr();
  bool ok = true;

  // Required attributes of every member class must be present. The
  // objectClass attribute mirrors class(e), which is non-empty, so it is
  // always present.
  for (ClassId c : entry.classes()) {
    for (AttributeId a : attrs.Required(c)) {
      if (a == oc) continue;
      if (!entry.HasAttribute(a)) {
        Violation v;
        v.kind = ViolationKind::kMissingRequiredAttribute;
        v.entry = entry.id();
        v.cls = c;
        v.attr = a;
        if (!Report(out, v, &ok)) return false;
      }
    }
  }

  // Every present attribute must be allowed by some member class.
  AttributeId last = kInvalidAttributeId;
  for (const AttributeValue& av : entry.values()) {
    if (av.attribute == last) continue;  // values are sorted by attribute
    last = av.attribute;
    bool allowed = false;
    for (ClassId c : entry.classes()) {
      if (attrs.IsAllowed(c, av.attribute)) {
        allowed = true;
        break;
      }
    }
    if (!allowed) {
      Violation v;
      v.kind = ViolationKind::kDisallowedAttribute;
      v.entry = entry.id();
      v.attr = av.attribute;
      if (!Report(out, v, &ok)) return false;
    }
  }
  return ok;
}

bool LegalityChecker::CheckEntryContent(const Directory& directory,
                                        EntryId id,
                                        std::vector<Violation>* out) const {
  const Entry& entry = directory.entry(id);
  bool class_ok = CheckClassList(entry.classes(), id, out);
  if (!class_ok && out == nullptr) return false;
  bool attr_ok = CheckEntryAttributeSchema(directory, entry, out);
  return class_ok && attr_ok;
}

bool LegalityChecker::CheckEntryContentCached(
    const Directory& directory, EntryId id, ContentCache& cache,
    ContentCounters& counters, std::vector<Violation>* out) const {
  ++counters.entries;
  const Entry& entry = directory.entry(id);
  auto it = cache.infos.find(entry.classes());
  if (it == cache.infos.end()) {
    ContentCache::ClassSetInfo info;
    info.clean = CheckClassList(entry.classes(), id, nullptr);
    if (info.clean) {
      const AttributeSchema& attrs = schema_.attributes();
      AttributeId max_allowed = 0;
      for (ClassId c : entry.classes()) {
        for (AttributeId a : attrs.Required(c)) {
          if (a != cache.objectclass) info.required.push_back(a);
        }
        for (AttributeId a : attrs.Allowed(c)) {
          if (a > max_allowed) max_allowed = a;
        }
      }
      std::sort(info.required.begin(), info.required.end());
      info.required.erase(
          std::unique(info.required.begin(), info.required.end()),
          info.required.end());
      info.allowed.assign((static_cast<size_t>(max_allowed) >> 6) + 1, 0);
      for (ClassId c : entry.classes()) {
        for (AttributeId a : attrs.Allowed(c)) {
          info.allowed[a >> 6] |= uint64_t{1} << (a & 63);
        }
      }
    }
    it = cache.infos.emplace(entry.classes(), std::move(info)).first;
  }
  const ContentCache::ClassSetInfo& info = it->second;
  if (info.clean) {
    // Fast screen: required ⊆ present and present ⊆ allowed, via one merge
    // sweep over the entry's sorted values against the sorted required
    // list. Any miss drops to the exact serial check below.
    bool screened = true;
    size_t req = 0;
    AttributeId last = kInvalidAttributeId;
    for (const AttributeValue& av : entry.values()) {
      if (av.attribute == last) continue;
      last = av.attribute;
      if (req < info.required.size() && info.required[req] < av.attribute) {
        screened = false;  // a required attribute was skipped: missing
        break;
      }
      if (req < info.required.size() && info.required[req] == av.attribute) {
        ++req;
      }
      if (!info.IsAllowed(av.attribute)) {
        screened = false;
        break;
      }
    }
    if (screened && req == info.required.size()) {
      ++counters.screened;
      return true;
    }
  }
  // Slow path: the exact serial per-entry check, so violation content and
  // order are identical to the unmemoized checker.
  ++counters.fallback;
  return CheckEntryContent(directory, id, out);
}

bool LegalityChecker::CheckContent(const Directory& directory,
                                   std::vector<Violation>* out) const {
  CheckerMetrics& metrics = GetCheckerMetrics();
  LDAPBOUND_TRACE_SPAN("checker.content");
  LatencyTimer pass_timer(metrics.content_pass_ns);
  const size_t cap = directory.IdCapacity();
  const size_t grain = options_.grain != 0 ? options_.grain : 1;
  const size_t num_chunks = (cap + grain - 1) / grain;
  const unsigned threads = EffectiveThreads(num_chunks);

  // Sharded pass: chunk k covers ids [k*grain, (k+1)*grain); per-chunk
  // buffers concatenated in chunk order reproduce the ascending-id
  // violation order exactly. Each lane keeps its own class-set memo and
  // tallies (flushed to the global metrics once, after the join). At one
  // lane ParallelFor runs the chunks inline, in id order, with no pool.
  std::vector<std::vector<Violation>> buffers(out != nullptr ? num_chunks : 0);
  std::vector<ContentCache> caches(threads);
  for (ContentCache& c : caches) {
    c.objectclass = directory.vocab().objectclass_attr();
  }
  std::vector<ContentCounters> counters(threads);
  std::vector<uint64_t> lane_chunks(threads, 0);
  std::atomic<bool> bad{false};
  ParallelFor(Pool(), 0, cap, grain, threads,
              [&](unsigned lane, size_t chunk, size_t lo, size_t hi) {
                ContentCache& cache = caches[lane];
                ++lane_chunks[lane];
                std::vector<Violation>* buf =
                    out != nullptr ? &buffers[chunk] : nullptr;
                for (size_t id = lo; id < hi; ++id) {
                  if (out == nullptr &&
                      bad.load(std::memory_order_relaxed)) {
                    return;  // all-or-nothing mode: a violation was found
                  }
                  EntryId eid = static_cast<EntryId>(id);
                  if (!directory.IsAlive(eid)) continue;
                  if (!CheckEntryContentCached(directory, eid, cache,
                                               counters[lane], buf)) {
                    bad.store(true, std::memory_order_relaxed);
                    if (out == nullptr) return;
                  }
                }
              });
  for (const ContentCounters& c : counters) c.Flush();
  ObserveShardImbalance(lane_chunks);
  if (out != nullptr) {
    for (std::vector<Violation>& buf : buffers) {
      out->insert(out->end(), std::make_move_iterator(buf.begin()),
                  std::make_move_iterator(buf.end()));
    }
  }
  const bool ok = !bad.load(std::memory_order_relaxed);
  (ok ? metrics.content_legal : metrics.content_illegal).Increment();
  return ok;
}

bool LegalityChecker::CheckStructure(const Directory& directory,
                                     std::vector<Violation>* out,
                                     EvaluatorStats* stats) const {
  return CheckStructureOn(directory, out, stats);
}

bool LegalityChecker::CheckStructure(const DirectorySnapshot& snapshot,
                                     std::vector<Violation>* out,
                                     EvaluatorStats* stats) const {
  return CheckStructureOn(snapshot, out, stats);
}

template <typename Source>
bool LegalityChecker::CheckStructureOn(const Source& source,
                                       std::vector<Violation>* out,
                                       EvaluatorStats* stats_out) const {
  const StructureSchema& structure = schema_.structure();
  CheckerMetrics& metrics = GetCheckerMetrics();
  LDAPBOUND_TRACE_SPAN("checker.structure");
  LatencyTimer pass_timer(metrics.structure_pass_ns);
  bool ok = true;
  EvaluatorStats stats;
  // Called exactly once, on every return path: hands the aggregate to the
  // caller, publishes it to the process-wide query metrics, and records
  // the pass verdict.
  auto flush_stats = [&]() {
    if (stats_out != nullptr) *stats_out = stats;
    AddEvaluatorStatsToMetrics(stats);
    (ok ? metrics.structure_legal : metrics.structure_illegal).Increment();
  };

  // Required classes Cr: the atomic witness query must be non-empty.
  // Answered by the class counters, so kept serial.
  for (ClassId cls : structure.required_classes()) {
    if (source.CountWithClass(cls) > 0) continue;
    Violation v;
    v.kind = ViolationKind::kMissingRequiredClass;
    v.cls = cls;
    if (!Report(out, v, &ok)) {
      flush_stats();
      return false;
    }
  }

  // Er and Ef: the Figure 4 violation query of each relationship must be
  // empty; its members are the offending entries. The queries are
  // independent, so they fan out across the pool — one QueryEvaluator per
  // task (the evaluator holds mutable stats) over shared read-only
  // per-class atomic selections.
  std::vector<const StructuralRelationship*> rels;
  rels.reserve(structure.required().size() + structure.forbidden().size());
  for (const StructuralRelationship& rel : structure.required()) {
    rels.push_back(&rel);
  }
  for (const StructuralRelationship& rel : structure.forbidden()) {
    rels.push_back(&rel);
  }
  if (rels.empty()) {
    flush_stats();
    return ok;
  }

  const unsigned threads = EffectiveThreads(rels.size());
  std::mutex stats_mu;

  // Phase 1: the (objectClass=c) selection of every distinct class. A
  // snapshot's class postings already are these selections. A live
  // directory fills them all in ONE pass over the entries (each alive
  // entry marks itself in the sets of its wanted classes) instead of
  // |classes| full scans. Shards are aligned to whole bitmap words, so
  // concurrent lanes never touch the same word of a set.
  std::unordered_map<ClassId, EntrySet> class_cache;
  if constexpr (std::is_same_v<Source, Directory>) {
    LDAPBOUND_TRACE_SPAN("checker.class_cache");
    std::vector<ClassId> classes;
    classes.reserve(rels.size() * 2);
    for (const StructuralRelationship* rel : rels) {
      classes.push_back(rel->source);
      classes.push_back(rel->target);
    }
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()),
                  classes.end());
    class_cache.reserve(classes.size());
    const size_t cap = source.IdCapacity();
    std::vector<EntrySet*> sets(classes.size());
    for (size_t i = 0; i < classes.size(); ++i) {
      sets[i] = &class_cache.emplace(classes[i], EntrySet(cap)).first->second;
    }
    const size_t grain =
        (std::max<size_t>(options_.grain, 64) + 63) / 64 * 64;
    ParallelFor(Pool(), 0, cap, grain, EffectiveThreads(cap),
                [&](unsigned, size_t, size_t lo, size_t hi) {
                  for (size_t eid = lo; eid < hi; ++eid) {
                    const EntryId id = static_cast<EntryId>(eid);
                    if (!source.IsAlive(id)) continue;
                    for (ClassId c : source.entry(id).classes()) {
                      auto it = std::lower_bound(classes.begin(),
                                                 classes.end(), c);
                      if (it != classes.end() && *it == c) {
                        sets[it - classes.begin()]->Insert(id);
                      }
                    }
                  }
                });
    // Account the pass as one scan answering |classes| selection nodes.
    stats.nodes_evaluated += classes.size();
    stats.entries_scanned += source.NumEntries();
  }

  // Phase 2: the violation queries, one task per relationship. With a
  // null `out` only emptiness matters: the evaluator's lazy IsEmpty stops
  // at the first surviving id and remaining tasks are skipped once any
  // relationship has failed.
  std::vector<EntrySet> offenders(out != nullptr ? rels.size() : 0);
  std::vector<uint8_t> rel_bad(rels.size(), 0);
  std::atomic<bool> bad{false};
  ParallelFor(
      Pool(), 0, rels.size(), 1, threads,
      [&](unsigned, size_t, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          if (out == nullptr && bad.load(std::memory_order_relaxed)) return;
          QueryEvaluator evaluator(source);
          evaluator.set_class_cache(&class_cache);
          {
            LDAPBOUND_TRACE_SPAN("checker.constraint");
            LatencyTimer constraint_timer(metrics.constraint_ns);
            if (out == nullptr) {
              if (!evaluator.IsEmpty(ViolationQuery(*rels[i]))) {
                rel_bad[i] = 1;
                bad.store(true, std::memory_order_relaxed);
              }
            } else {
              EntrySet offs = evaluator.Evaluate(ViolationQuery(*rels[i]));
              if (!offs.Empty()) {
                rel_bad[i] = 1;
                bad.store(true, std::memory_order_relaxed);
                offenders[i] = std::move(offs);
              }
            }
          }
          std::lock_guard<std::mutex> lock(stats_mu);
          stats += evaluator.stats();
        }
      });

  // Deterministic emission: schema order (Er then Ef), offenders ascending.
  for (size_t i = 0; i < rels.size(); ++i) {
    if (!rel_bad[i]) continue;
    ok = false;
    if (out == nullptr) {
      flush_stats();
      return false;
    }
    const StructuralRelationship& rel = *rels[i];
    offenders[i].ForEach([&](EntryId id) {
      Violation v;
      v.kind = rel.forbidden ? ViolationKind::kForbiddenRelationship
                             : ViolationKind::kRequiredRelationship;
      v.entry = id;
      v.relationship = rel;
      out->push_back(v);
    });
  }
  flush_stats();
  return ok;
}

std::string ConstraintExplain::RenderText() const {
  std::string out = constraint;
  out += " — ";
  out += satisfied ? "SATISFIED" : "VIOLATED";
  out += " (";
  out += require_nonempty ? "witnesses=" : "offenders=";
  out += std::to_string(cardinality);
  out += ", ";
  out += FormatDurationNs(profile.total_ns);
  out += ")\n  query: ";
  out += query;
  out += '\n';
  out += profile.root.RenderText(1);
  return out;
}

std::string ConstraintExplain::RenderJson() const {
  std::string out = "{\"constraint\":" + JsonQuote(constraint);
  out += ",\"query\":" + JsonQuote(query);
  out += ",\"require_nonempty\":";
  out += require_nonempty ? "true" : "false";
  out += ",\"satisfied\":";
  out += satisfied ? "true" : "false";
  out += ",\"cardinality\":" + std::to_string(cardinality);
  out += ",\"profile\":" + profile.RenderJson();
  out += '}';
  return out;
}

std::vector<ConstraintExplain> LegalityChecker::ExplainStructure(
    const Directory& directory) const {
  const StructureSchema& structure = schema_.structure();
  const Vocabulary& vocab = directory.vocab();
  std::vector<ConstraintExplain> out;
  out.reserve(structure.Size());

  for (ClassId cls : structure.required_classes()) {
    ConstraintExplain ce;
    ce.constraint = "require-class " + vocab.ClassName(cls);
    Query query = RequiredClassWitnessQuery(cls);
    ce.query = query.ToString(vocab);
    ce.require_nonempty = true;
    QueryEvaluator evaluator(directory);
    evaluator.set_profile(&ce.profile);
    EntrySet witnesses = evaluator.Evaluate(query);
    ce.cardinality = witnesses.Count();
    ce.satisfied = ce.cardinality > 0;
    AddEvaluatorStatsToMetrics(evaluator.stats());
    out.push_back(std::move(ce));
  }

  auto explain_rel = [&](const StructuralRelationship& rel) {
    ConstraintExplain ce;
    ce.constraint = rel.ToString(vocab);
    Query query = ViolationQuery(rel);
    ce.query = query.ToString(vocab);
    QueryEvaluator evaluator(directory);
    evaluator.set_profile(&ce.profile);
    EntrySet offenders = evaluator.Evaluate(query);
    ce.cardinality = offenders.Count();
    ce.satisfied = ce.cardinality == 0;
    AddEvaluatorStatsToMetrics(evaluator.stats());
    out.push_back(std::move(ce));
  };
  for (const StructuralRelationship& rel : structure.required()) {
    explain_rel(rel);
  }
  for (const StructuralRelationship& rel : structure.forbidden()) {
    explain_rel(rel);
  }
  return out;
}

bool LegalityChecker::CheckKeys(const Directory& directory,
                                std::vector<Violation>* out) const {
  const std::vector<AttributeId>& keys = schema_.key_attributes();
  if (keys.empty()) return true;
  CheckerMetrics& metrics = GetCheckerMetrics();
  LDAPBOUND_TRACE_SPAN("checker.keys");
  LatencyTimer pass_timer(metrics.keys_pass_ns);
  // Every return goes through here so the verdict counter stays exact.
  auto record = [&metrics](bool verdict) {
    (verdict ? metrics.keys_legal : metrics.keys_illegal).Increment();
    return verdict;
  };
  const size_t cap = directory.IdCapacity();
  const size_t grain = options_.grain != 0 ? options_.grain : 1;
  const size_t num_chunks = (cap + grain - 1) / grain;
  const unsigned threads = EffectiveThreads(num_chunks);

  if (threads <= 1) {
    bool ok = true;
    std::unordered_set<Value, ValueHash> seen;
    for (AttributeId attr : keys) {
      seen.clear();
      bool stop = false;
      directory.ForEachAlive([&](const Entry& e) {
        if (stop) return;
        ForEachValueOf(e, attr, [&](const Value& v) {
          if (stop) return;
          if (!seen.insert(v).second) {
            Violation violation;
            violation.kind = ViolationKind::kDuplicateKeyValue;
            violation.entry = e.id();
            violation.attr = attr;
            if (!Report(out, violation, &ok)) stop = true;
          }
        });
      });
      if (stop) return record(false);
    }
    return record(ok);
  }

  // Sharded pass, per key attribute: each shard hashes its id range into a
  // local occurrence map (first occurrence + later ones, in scan order);
  // the serial merge walks shards in ascending order, so the globally
  // first occurrence of each value — the one a serial scan would not
  // report — is identified deterministically. A violation only records
  // (entry, attr), so sorting the offender ids reproduces the serial
  // ascending-id emission exactly.
  bool ok = true;
  struct ShardOcc {
    EntryId first = kInvalidEntryId;
    std::vector<EntryId> rest;  // later occurrences in this shard, in order
  };
  using ShardMap = std::unordered_map<Value, ShardOcc, ValueHash>;
  for (AttributeId attr : keys) {
    std::vector<ShardMap> shards(num_chunks);
    std::atomic<bool> bad{false};
    ParallelFor(Pool(), 0, cap, grain, threads,
                [&](unsigned, size_t chunk, size_t lo, size_t hi) {
                  if (out == nullptr && bad.load(std::memory_order_relaxed)) {
                    return;
                  }
                  ShardMap& local = shards[chunk];
                  for (size_t id = lo; id < hi; ++id) {
                    EntryId eid = static_cast<EntryId>(id);
                    if (!directory.IsAlive(eid)) continue;
                    const Entry& e = directory.entry(eid);
                    ForEachValueOf(e, attr, [&](const Value& v) {
                      auto [it, inserted] = local.try_emplace(v);
                      if (inserted) {
                        it->second.first = eid;
                      } else {
                        it->second.rest.push_back(eid);
                        bad.store(true, std::memory_order_relaxed);
                      }
                    });
                  }
                });
    if (out == nullptr && bad.load(std::memory_order_relaxed)) {
      return record(false);
    }

    std::unordered_set<Value, ValueHash> seen;
    std::vector<EntryId> offenders;
    for (ShardMap& shard : shards) {
      for (auto& [value, occ] : shard) {
        if (seen.insert(value).second) {
          // Globally first occurrence lives in this shard; only the later
          // ones are duplicates.
          offenders.insert(offenders.end(), occ.rest.begin(), occ.rest.end());
        } else {
          offenders.push_back(occ.first);
          offenders.insert(offenders.end(), occ.rest.begin(), occ.rest.end());
        }
      }
    }
    if (offenders.empty()) continue;
    ok = false;
    if (out == nullptr) return record(false);
    std::sort(offenders.begin(), offenders.end());
    for (EntryId id : offenders) {
      Violation violation;
      violation.kind = ViolationKind::kDuplicateKeyValue;
      violation.entry = id;
      violation.attr = attr;
      out->push_back(violation);
    }
  }
  return record(ok);
}

bool LegalityChecker::CheckLegal(const Directory& directory,
                                 std::vector<Violation>* out) const {
  bool content_ok = CheckContent(directory, out);
  if (!content_ok && out == nullptr) return false;
  bool structure_ok = CheckStructure(directory, out);
  if (!structure_ok && out == nullptr) return false;
  bool keys_ok = CheckKeys(directory, out);
  return content_ok && structure_ok && keys_ok;
}

Status LegalityChecker::EnsureLegal(const Directory& directory) const {
  std::vector<Violation> violations;
  if (CheckLegal(directory, &violations)) return Status::OK();
  return Status::Illegal(DescribeViolations(violations, schema_.vocab()));
}

}  // namespace ldapbound
