// EXP-C31: §3.1 — content legality is a per-entry check whose cost depends
// on |class(e)|, |val(e)|, depth(H) and the allowed-attribute sets, not on
// |D|. Expectation: per-entry cost flat across |D|; grows with per-entry
// payload (classes and values).
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/legality_checker.h"

namespace ldapbound::bench {
namespace {

void BM_ContentLegality(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  LegalityChecker checker(*world.schema);
  for (auto _ : state) {
    bool legal = checker.CheckContent(*world.directory);
    benchmark::DoNotOptimize(legal);
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(world.directory->NumEntries()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_ContentLegality)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000);

// The sharded content pass across worker counts (entries × threads).
// Per-shard violation buffers merge in shard order, so every thread count
// reports the serial violation list; here the directory is legal and the
// pass is pure checking throughput.
void BM_ContentLegality_Threads(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  CheckOptions options;
  options.num_threads = static_cast<unsigned>(state.range(1));
  LegalityChecker checker(*world.schema, options);
  for (auto _ : state) {
    bool legal = checker.CheckContent(*world.directory);
    benchmark::DoNotOptimize(legal);
  }
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["ns_per_entry"] = benchmark::Counter(
      static_cast<double>(world.directory->NumEntries()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_ContentLegality_Threads)
    ->ArgsProduct({{64000}, {1, 2, 4, 8}});

// Per-entry cost as the entry's values grow: one entry carrying `k`
// extra attribute values.
void BM_ContentLegalityPerEntryValues(benchmark::State& state) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = MakeWhitePagesSchema(vocab).value();
  Directory directory(vocab);
  EntrySpec spec;
  spec.rdn = "uid=heavy";
  spec.classes = {"researcher", "person", "top", "online"};
  spec.values = {{"uid", "heavy"}, {"name", "heavy entry"}};
  for (int i = 0; i < state.range(0); ++i) {
    spec.values.emplace_back("mail",
                             "alias" + std::to_string(i) + "@example.org");
  }
  EntryId id = directory.AddEntryFromSpec(kInvalidEntryId, spec).value();
  LegalityChecker checker(schema);
  for (auto _ : state) {
    bool legal = checker.CheckEntryContent(directory, id);
    benchmark::DoNotOptimize(legal);
  }
  state.counters["values"] =
      static_cast<double>(directory.entry(id).values().size());
}

BENCHMARK(BM_ContentLegalityPerEntryValues)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512);

}  // namespace
}  // namespace ldapbound::bench
