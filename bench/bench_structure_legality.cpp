// EXP-T31: Theorem 3.1 — structure legality through the Figure 4 query
// reduction is O(|S|·|D|), against the naive pairwise O(|S|·|D|²) baseline
// of §3.2. Expectation: the query-based checker's per-entry cost stays
// flat; the naive baseline's grows linearly with |D| (so the total is
// quadratic), losing by a factor that widens with |D|.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/legality_checker.h"
#include "core/naive_checker.h"

namespace ldapbound::bench {
namespace {

void BM_StructureLegality_QueryReduction(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  LegalityChecker checker(*world.schema);
  for (auto _ : state) {
    bool legal = checker.CheckStructure(*world.directory);
    benchmark::DoNotOptimize(legal);
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(world.directory->NumEntries()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_StructureLegality_NaivePairwise(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  NaiveStructureChecker checker(*world.schema);
  for (auto _ : state) {
    bool legal = checker.CheckStructure(*world.directory);
    benchmark::DoNotOptimize(legal);
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(world.directory->NumEntries()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_StructureLegality_QueryReduction)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000);
// The naive baseline is quadratic: cap the sweep where it already loses by
// orders of magnitude.
BENCHMARK(BM_StructureLegality_NaivePairwise)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);

// The same Figure 4 check on a pinned MVCC snapshot of the same worlds:
// the snapshot's class postings answer the atomic selections, so the check
// needs no pass over the entries.
void BM_StructureLegality_Snapshot(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  world.directory->PublishSnapshot();  // the loaded state; nothing mutates
  PinnedSnapshot snap = world.directory->PinSnapshot();
  LegalityChecker checker(*world.schema);
  for (auto _ : state) {
    bool legal = checker.CheckStructure(*snap);
    benchmark::DoNotOptimize(legal);
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(world.directory->NumEntries()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_StructureLegality_Snapshot)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000);

// Full legality (content + structure) end to end, the complete Theorem 3.1
// bound.
void BM_FullLegality(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  LegalityChecker checker(*world.schema);
  for (auto _ : state) {
    bool legal = checker.CheckLegal(*world.directory);
    benchmark::DoNotOptimize(legal);
  }
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(world.directory->NumEntries()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_FullLegality)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000);

// Structure legality across worker counts (entries × threads): the
// per-constraint queries fan out over the pool, each on its own evaluator
// above the shared class-selection cache.
void BM_StructureLegality_Threads(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  CheckOptions options;
  options.num_threads = static_cast<unsigned>(state.range(1));
  LegalityChecker checker(*world.schema, options);
  for (auto _ : state) {
    bool legal = checker.CheckStructure(*world.directory);
    benchmark::DoNotOptimize(legal);
  }
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(world.directory->NumEntries()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_StructureLegality_Threads)
    ->ArgsProduct({{64000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// Full legality across worker counts: content sharding, structure
// fan-out, and key sharding combined.
void BM_FullLegality_Threads(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  CheckOptions options;
  options.num_threads = static_cast<unsigned>(state.range(1));
  LegalityChecker checker(*world.schema, options);
  for (auto _ : state) {
    bool legal = checker.CheckLegal(*world.directory);
    benchmark::DoNotOptimize(legal);
  }
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(world.directory->NumEntries()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_FullLegality_Threads)
    ->ArgsProduct({{64000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ldapbound::bench
