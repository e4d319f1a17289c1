// §2.4 federation costs: splitting the DIT into naming contexts, searching
// across referrals, reunifying, and federated legality (which materializes
// the unified view). Expectation: all operations are O(|D|)-ish; federated
// search adds only routing overhead over a direct search.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "federation/federation.h"
#include "ldap/filter.h"

namespace ldapbound::bench {
namespace {

// Context roots: the first-level org units.
std::vector<DistinguishedName> ContextRoots(const Directory& d) {
  std::vector<DistinguishedName> roots;
  EntryId org = d.roots().front();
  for (EntryId unit : d.entry(org).children()) {
    roots.push_back(*DnOf(d, unit));
  }
  return roots;
}

void BM_FederationSplit(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  auto roots = ContextRoots(*world.directory);
  for (auto _ : state) {
    auto federation = Federation::Split(world.vocab, *world.directory, roots);
    benchmark::DoNotOptimize(federation);
    if (!federation.ok()) state.SkipWithError("split failed");
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
  state.counters["contexts"] = static_cast<double>(roots.size());
}

void BM_FederationUnify(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  auto federation = Federation::Split(world.vocab, *world.directory,
                                      ContextRoots(*world.directory));
  for (auto _ : state) {
    auto unified = federation->Unify();
    benchmark::DoNotOptimize(unified);
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
}

void BM_FederatedSearch(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  auto federation = Federation::Split(world.vocab, *world.directory,
                                      ContextRoots(*world.directory));
  auto filter = ParseFilter("(objectClass=researcher)", *world.vocab);
  size_t hits = 0;
  for (auto _ : state) {
    auto result = federation->Search(DistinguishedName(), *filter);
    hits = result.ok() ? result->size() : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
}

void BM_FederatedLegality(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  auto federation = Federation::Split(world.vocab, *world.directory,
                                      ContextRoots(*world.directory));
  for (auto _ : state) {
    bool legal = federation->CheckLegality(*world.schema);
    benchmark::DoNotOptimize(legal);
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
}

BENCHMARK(BM_FederationSplit)->Arg(1000)->Arg(16000)->Arg(64000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FederationUnify)->Arg(1000)->Arg(16000)->Arg(64000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FederatedSearch)->Arg(1000)->Arg(16000)->Arg(64000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FederatedLegality)->Arg(1000)->Arg(16000)->Arg(64000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ldapbound::bench
