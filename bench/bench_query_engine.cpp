// EXP-Q9: the O(|Q|·|D|) evaluation claim of §3.2 (via Jagadish et al.).
// Expectation: per-entry cost (time / |D|) stays flat as |D| grows for
// every axis, and cost scales with query size |Q|.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "query/evaluator.h"
#include "server/net_server.h"

namespace ldapbound::bench {
namespace {

Query ClassQuery(const World& world, const char* name) {
  return Query::Select(MatchClass(*world.vocab->FindClass(name)));
}

void BM_AxisQuery(benchmark::State& state, Axis axis) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  Query q = Query::Hier(axis, ClassQuery(world, "orgGroup"),
                        ClassQuery(world, "person"));
  size_t result_count = 0;
  for (auto _ : state) {
    QueryEvaluator evaluator(*world.directory);
    EntrySet result = evaluator.Evaluate(q);
    result_count = result.Count();
    benchmark::DoNotOptimize(result_count);
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
  state.counters["results"] = static_cast<double>(result_count);
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(world.directory->NumEntries()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_Child(benchmark::State& state) { BM_AxisQuery(state, Axis::kChild); }
void BM_Parent(benchmark::State& state) {
  BM_AxisQuery(state, Axis::kParent);
}
void BM_Descendant(benchmark::State& state) {
  BM_AxisQuery(state, Axis::kDescendant);
}
void BM_Ancestor(benchmark::State& state) {
  BM_AxisQuery(state, Axis::kAncestor);
}

BENCHMARK(BM_Child)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000);
BENCHMARK(BM_Parent)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000);
BENCHMARK(BM_Descendant)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000);
BENCHMARK(BM_Ancestor)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000);

// |Q| scaling: nest k difference operators (the Figure 4 pattern) and
// check time grows ~linearly in k at fixed |D|.
void BM_QuerySize(benchmark::State& state) {
  const World& world = GetWorld(16000);
  int depth = static_cast<int>(state.range(0));
  Query q = ClassQuery(world, "orgGroup");
  for (int i = 0; i < depth; ++i) {
    q = Query::Diff(ClassQuery(world, "orgGroup"),
                    Query::Descendant(q, ClassQuery(world, "person")));
  }
  for (auto _ : state) {
    QueryEvaluator evaluator(*world.directory);
    EntrySet result = evaluator.Evaluate(q);
    benchmark::DoNotOptimize(result);
  }
  state.counters["query_size"] = static_cast<double>(q.Size());
}

BENCHMARK(BM_QuerySize)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Scoped snapshot reads cost O(scope), not O(|D|): a (objectClass=person)
// subtree search of one leaf unit (1,388 persons) on a pinned snapshot,
// while the white-pages directory around it grows with the unit fanout
// (depth 2, fanout 2 → 12: 8,335 → 216,685 entries). Expectation: flat
// ns_per_op across the sweep.
void BM_SnapshotScopedScan(benchmark::State& state) {
  constexpr size_t kPersonsPerUnit = 1388;
  // One directory at a time: the largest holds ~217k entries.
  static World* world = nullptr;
  static size_t world_fanout = 0;
  const size_t fanout = static_cast<size_t>(state.range(0));
  if (world == nullptr || world_fanout != fanout) {
    delete world;
    world = new World();
    world->vocab = std::make_shared<Vocabulary>();
    world->schema = std::make_unique<DirectorySchema>(
        MakeWhitePagesSchema(world->vocab).value());
    WhitePagesOptions options;
    options.org_unit_fanout = fanout;
    options.org_unit_depth = 2;
    options.persons_per_unit = kPersonsPerUnit;
    world->directory = std::make_unique<Directory>(
        MakeWhitePagesInstance(*world->schema, options).value());
    world->directory->PublishSnapshot();
    world_fanout = fanout;
  }
  const Directory& d = *world->directory;

  // The scanned unit: the first orgUnit under the first orgUnit under the
  // organization — a leaf unit whatever the fanout.
  const ClassId unit_class = *world->vocab->FindClass("orgUnit");
  auto first_unit_under = [&](EntryId parent) {
    for (EntryId c : d.entry(parent).children()) {
      if (d.entry(c).HasClass(unit_class)) return c;
    }
    return kInvalidEntryId;
  };
  EntryId unit = first_unit_under(first_unit_under(d.roots().front()));
  std::string dn;
  for (EntryId cur = unit; cur != kInvalidEntryId;
       cur = d.entry(cur).parent()) {
    dn += (dn.empty() ? "" : ",") + d.entry(cur).rdn();
  }

  PinnedSnapshot snap = d.PinSnapshot();
  size_t hits = 0;
  for (auto _ : state) {
    auto result = SnapshotSearch(*snap, d.vocab(), dn, /*scope=*/2,
                                 "(objectClass=person)");
    hits = result.value().size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["entries"] = static_cast<double>(d.NumEntries());
  state.counters["scope_persons"] = static_cast<double>(hits);
  state.counters["ns_per_op"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}

BENCHMARK(BM_SnapshotScopedScan)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

}  // namespace
}  // namespace ldapbound::bench
