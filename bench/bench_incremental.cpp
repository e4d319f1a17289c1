// EXP-F5 / EXP-T42: Theorem 4.2 — incremental legality testing under
// subtree updates, against full re-checks.
//
// Expectations:
//  - insertion checks (all Figure 5 rows are incrementally testable) cost
//    ~O(|Δ|): time flat as |D| grows, while the full re-check grows
//    linearly with |D|;
//  - deletion checks for required child/descendant are NOT incrementally
//    testable (paper-faithful mode re-evaluates over D−Δ, growing with
//    |D|); the ancestor-path extension (ablation) restores ~O(depth) cost;
//  - required-class (Cr) deletion checks are O(|Δ|) thanks to the class
//    count index.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/legality_checker.h"
#include "update/incremental.h"

namespace ldapbound::bench {
namespace {

// The youngest child of `parent`.
EntryId LastChild(const Directory& d, EntryId parent) {
  EntryId last = kInvalidEntryId;
  for (EntryId c : d.entry(parent).children()) last = c;
  return last;
}

// Appends a small subtree (a unit with three persons) under the first org
// unit; returns (root id, delta).
std::pair<EntryId, EntrySet> InsertProbeSubtree(Directory& directory) {
  EntryId org = directory.roots().front();
  EntryId host = directory.entry(org).children().front();
  static int counter = 0;
  int tag = counter++;
  EntrySpec unit;
  unit.rdn = "ou=probe" + std::to_string(tag);
  unit.classes = {"orgUnit", "orgGroup", "top"};
  unit.values = {{"ou", "probe" + std::to_string(tag)}};
  EntryId root = directory.AddEntryFromSpec(host, unit).value();
  std::vector<EntryId> created{root};
  for (int i = 0; i < 3; ++i) {
    EntrySpec person;
    std::string uid = "probe" + std::to_string(tag) + "p" + std::to_string(i);
    person.rdn = "uid=" + uid;
    person.classes = {"person", "top"};
    person.values = {{"uid", uid}, {"name", "probe " + uid}};
    created.push_back(directory.AddEntryFromSpec(root, person).value());
  }
  EntrySet delta;
  for (EntryId id : created) delta.Insert(id);
  return {root, delta};
}

World MakeInsertWorld(size_t target) {
  World world;
  world.vocab = std::make_shared<Vocabulary>();
  world.schema = std::make_unique<DirectorySchema>(
      MakeWhitePagesSchema(world.vocab).value());
  WhitePagesOptions options;
  options.org_unit_fanout = 8;
  options.org_unit_depth = 2;
  options.persons_per_unit = std::max<size_t>(1, target / 72);
  world.directory = std::make_unique<Directory>(
      MakeWhitePagesInstance(*world.schema, options).value());
  return world;
}

void InsertCheckBenchmark(benchmark::State& state, bool delta_driven) {
  World world = MakeInsertWorld(static_cast<size_t>(state.range(0)));
  auto [root, delta] = InsertProbeSubtree(*world.directory);
  world.directory->GetIndex();  // warm the index
  IncrementalValidator::Options vopts;
  vopts.delta_driven_insert = delta_driven;
  IncrementalValidator validator(*world.schema, vopts);
  for (auto _ : state) {
    bool ok = validator.CheckAfterInsert(*world.directory, delta);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
  state.counters["delta"] = static_cast<double>(delta.Count());
}

// Figure 5 Δ-queries: sound but their unscoped sides still scan D.
void BM_InsertCheck_Incremental(benchmark::State& state) {
  InsertCheckBenchmark(state, /*delta_driven=*/false);
}

// Δ-driven extension: O(|S|·|Δ|·depth), flat in |D|.
void BM_InsertCheck_DeltaDrivenAblation(benchmark::State& state) {
  InsertCheckBenchmark(state, /*delta_driven=*/true);
}

BENCHMARK(BM_InsertCheck_DeltaDrivenAblation)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000);

void BM_InsertCheck_FullRecheck(benchmark::State& state) {
  World world = MakeInsertWorld(static_cast<size_t>(state.range(0)));
  InsertProbeSubtree(*world.directory);
  world.directory->GetIndex();
  LegalityChecker checker(*world.schema);
  for (auto _ : state) {
    bool ok = checker.CheckLegal(*world.directory);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
}

BENCHMARK(BM_InsertCheck_Incremental)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000);
BENCHMARK(BM_InsertCheck_FullRecheck)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000);

// Deletion of one person subtree: paper-faithful (D−Δ re-evaluation for
// the required child/descendant rows) vs the ancestor-path ablation.
void DeleteCheckBenchmark(benchmark::State& state, bool optimized) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  const Directory& directory = *world.directory;
  // Doomed subtree: one person leaf (any unit keeps other persons).
  EntryId org = directory.roots().front();
  EntryId unit = directory.entry(org).children().front();
  EntryId person = LastChild(directory, unit);
  EntrySet delta;
  delta.Insert(person);
  directory.GetIndex();

  IncrementalValidator::Options vopts;
  vopts.ancestor_path_optimization = optimized;
  IncrementalValidator validator(*world.schema, vopts);
  for (auto _ : state) {
    bool ok = validator.CheckBeforeDelete(directory, person, delta);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["entries"] = static_cast<double>(directory.NumEntries());
}

void BM_DeleteCheck_PaperFaithful(benchmark::State& state) {
  DeleteCheckBenchmark(state, /*optimized=*/false);
}
void BM_DeleteCheck_AncestorPathAblation(benchmark::State& state) {
  DeleteCheckBenchmark(state, /*optimized=*/true);
}

BENCHMARK(BM_DeleteCheck_PaperFaithful)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000);
BENCHMARK(BM_DeleteCheck_AncestorPathAblation)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000);

// Cr deletion testing via class counts (the paper's counting extension):
// O(|Δ|) regardless of |D|.
void BM_DeleteCheck_RequiredClassCounts(benchmark::State& state) {
  const World& world = GetWorld(static_cast<size_t>(state.range(0)));
  const Directory& directory = *world.directory;
  EntryId org = directory.roots().front();
  EntryId unit = directory.entry(org).children().front();
  EntryId person = LastChild(directory, unit);
  EntrySet delta;
  delta.Insert(person);
  directory.GetIndex();

  // Structure schema with only required classes: isolates the Cr path.
  DirectorySchema cr_only(world.vocab);
  for (ClassId c : world.schema->classes().CoreClasses()) {
    if (c != world.vocab->top_class()) {
      ClassId parent = world.schema->classes().ParentOf(c);
      (void)cr_only.mutable_classes().AddCoreClass(c, parent);
    }
  }
  cr_only.mutable_structure().RequireClass(
      *world.vocab->FindClass("person"));
  cr_only.mutable_structure().RequireClass(
      *world.vocab->FindClass("orgUnit"));
  IncrementalValidator validator(cr_only);
  for (auto _ : state) {
    bool ok = validator.CheckBeforeDelete(directory, person, delta);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["entries"] = static_cast<double>(directory.NumEntries());
}

BENCHMARK(BM_DeleteCheck_RequiredClassCounts)
    ->Arg(1000)
    ->Arg(16000)
    ->Arg(64000);

// ModDN: the incremental move check (extension) vs a full re-check.
void MoveCheckBenchmark(benchmark::State& state, bool incremental) {
  World world = MakeInsertWorld(static_cast<size_t>(state.range(0)));
  Directory& d = *world.directory;
  // Move one person back and forth between the first two units; both stay
  // staffed, so every move is legal.
  EntryId org = d.roots().front();
  EntryId unit_a = d.entry(org).children().front();
  EntryId unit_b = *std::next(d.entry(org).children().begin());
  EntryId mover = LastChild(d, unit_a);
  IncrementalValidator validator(*world.schema);
  LegalityChecker full(*world.schema);
  EntryId at = unit_a;
  for (auto _ : state) {
    EntryId old_parent = at;
    at = (at == unit_a) ? unit_b : unit_a;
    if (!d.MoveSubtree(mover, at).ok()) {
      state.SkipWithError("move failed");
      break;
    }
    bool ok = incremental ? validator.CheckAfterMove(d, mover, old_parent)
                          : full.CheckLegal(d);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["entries"] = static_cast<double>(d.NumEntries());
}

void BM_MoveCheck_Incremental(benchmark::State& state) {
  MoveCheckBenchmark(state, /*incremental=*/true);
}
void BM_MoveCheck_FullRecheck(benchmark::State& state) {
  MoveCheckBenchmark(state, /*incremental=*/false);
}

BENCHMARK(BM_MoveCheck_Incremental)->Arg(1000)->Arg(16000)->Arg(64000);
BENCHMARK(BM_MoveCheck_FullRecheck)->Arg(1000)->Arg(16000)->Arg(64000);

// Reclassification (Modify touching objectClass): incremental vs full.
void ReclassifyCheckBenchmark(benchmark::State& state, bool incremental) {
  World world = MakeInsertWorld(static_cast<size_t>(state.range(0)));
  Directory& d = *world.directory;
  EntryId org = d.roots().front();
  EntryId unit = d.entry(org).children().front();
  EntryId person = LastChild(d, unit);
  ClassId online = *world.vocab->FindClass("online");
  IncrementalValidator validator(*world.schema);
  LegalityChecker full(*world.schema);
  bool has = d.entry(person).HasClass(online);
  for (auto _ : state) {
    std::vector<ClassId> added, removed;
    if (has) {
      (void)d.RemoveClass(person, online);
      removed.push_back(online);
    } else {
      (void)d.AddClass(person, online);
      added.push_back(online);
    }
    has = !has;
    bool ok = incremental
                  ? validator.CheckAfterReclassify(d, person, added, removed)
                  : full.CheckLegal(d);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["entries"] = static_cast<double>(d.NumEntries());
}

void BM_ReclassifyCheck_Incremental(benchmark::State& state) {
  ReclassifyCheckBenchmark(state, /*incremental=*/true);
}
void BM_ReclassifyCheck_FullRecheck(benchmark::State& state) {
  ReclassifyCheckBenchmark(state, /*incremental=*/false);
}

BENCHMARK(BM_ReclassifyCheck_Incremental)->Arg(1000)->Arg(16000)->Arg(64000);
BENCHMARK(BM_ReclassifyCheck_FullRecheck)->Arg(1000)->Arg(16000)->Arg(64000);

}  // namespace
}  // namespace ldapbound::bench
