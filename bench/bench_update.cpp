// EXP-UPDATE / the fast update path, both halves of ISSUE 5:
//
//  1. Commit throughput (txn/s) under WAL group commit: W concurrent
//     writers against one durable server, group batch size B. At B = 1
//     every transaction pays its own fsync (the EXPERIMENTS.md "~10x"
//     overhead); at B >= 8 concurrently-arriving transactions share one
//     fsync, so multi-writer throughput should recover most of the
//     fsync-free rate. The acceptance bar: txn/s at some (W, B >= 8) is
//     >= 5x the single-writer batch-of-one (B = 1) rate; enough writers
//     must run to keep one group filling while the previous one fsyncs.
//
//  2. Index maintenance cost: ns per Add+DeleteLeaf pair on a directory
//     of |D| entries. The gap-labelled ForestIndex relabels O(|Delta|)
//     entries per mutation, so the per-txn time must stay flat as |D|
//     grows — the seed implementation's O(|D|) rebuild would scale
//     linearly here.
//
//  3. The MVCC read path (ISSUE 6): the `readers` axis runs R snapshot
//     readers (pin, Figure 4 structural query, value-index probe)
//     concurrently with the group-commit writers — the write txn/s with
//     readers attached is the number the regression gate watches — and
//     BM_SnapshotReadThroughput measures pure read scaling with
//     google-benchmark's thread fan-out.
//
//  4. Theorem 4.1 transactions (EXP-T41): commit cost with the paper's
//     discipline (normalize to subtrees, incremental checks per subtree,
//     rollback on refusal) on a bare TransactionExecutor. Commit cost
//     is dominated by the per-subtree incremental checks and stays ~flat
//     as |D| grows; rejected transactions cost about the same as accepted
//     ones (checks dominate; rollback is proportional to |Delta|).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "model/directory.h"
#include "model/directory_snapshot.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "server/directory_server.h"
#include "update/subtree_snapshot.h"
#include "update/transaction.h"
#include "util/metrics.h"

namespace ldapbound::bench {
namespace {

constexpr char kBenchSchema[] = R"(
attribute name string
attribute uid string
attribute ou string

class team : top {
  require ou
}
class person : top {
  require name, uid
}
structure {
  require team descendant person
}
)";

constexpr int kMaxWriters = 32;

/// A durable server with one team per potential writer (so concurrent
/// writers never contend on sibling RDNs), on a fresh WAL directory.
DirectoryServer MakeGroupServer(size_t group_batch, std::string* wal_root) {
  DirectoryServer server = DirectoryServer::Create(kBenchSchema).value();
  for (int w = 0; w < kMaxWriters; ++w) {
    const std::string team_dn = "ou=w" + std::to_string(w);
    EntrySpec team;
    team.classes = {"team", "top"};
    team.values = {{"ou", "w" + std::to_string(w)}};
    EntrySpec anchor;
    anchor.classes = {"person", "top"};
    anchor.values = {{"uid", "a" + std::to_string(w)}, {"name", "anchor"}};
    UpdateTransaction txn;
    txn.Insert(*DistinguishedName::Parse(team_dn), team);
    txn.Insert(*DistinguishedName::Parse("uid=a" + std::to_string(w) + "," +
                                         team_dn),
               anchor);
    if (!server.Apply(txn).ok()) std::abort();
  }
  char tmpl[] = "/tmp/ldapbound-bench-update-XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) std::abort();
  *wal_root = tmpl;
  WalOptions options;
  options.group_commit_max_batch = group_batch;
  options.group_commit_hold_us = 200;
  if (!server.EnableWal(*wal_root + "/wal", options).ok()) std::abort();
  // Admission control on, as in production `serve`: the bound is far
  // above any depth these writer counts can reach, so nothing is shed —
  // what the numbers carry is the admission checkpoint + queue-depth
  // accounting on every commit (issue 7's ≤15% regression-gate budget).
  DirectoryServer::ResilienceOptions resilience;
  resilience.admission.max_queue_depth = 4096;
  server.EnableResilience(resilience);
  return server;
}

/// One snapshot read: pin, check the Figure 4 required-relationship
/// query (teams with no person descendant — empty on every legal
/// version), and probe the value postings for a seeded uid. Returns the
/// snapshot version so callers can assert progress.
uint64_t SnapshotRead(const DirectoryServer& server, ClassId team,
                      ClassId person, AttributeId uid,
                      const Query& orphans) {
  PinnedSnapshot snap = server.PinSnapshot();
  if (!snap) std::abort();
  QueryEvaluator eval(*snap);
  if (!eval.IsEmpty(orphans) || !eval.status().ok()) std::abort();
  const std::vector<EntryId>* posting =
      snap->ValuePosting(uid, Value("a0"));
  if (posting == nullptr || posting->empty()) std::abort();
  benchmark::DoNotOptimize(snap->CountWithClass(team));
  benchmark::DoNotOptimize(snap->CountWithClass(person));
  return snap->version;
}

Query OrphanTeamsQuery(ClassId team, ClassId person) {
  return Query::Diff(
      Query::Select(MatchClass(team)),
      Query::Descendant(Query::Select(MatchClass(team)),
                        Query::Select(MatchClass(person))));
}

/// W writers x `pairs` Add/Delete pairs each (2 commits per pair, the
/// directory size stays constant). Returns only when every commit is
/// acknowledged (durable).
void RunWriters(DirectoryServer& server, int writers, int pairs,
                uint64_t epoch) {
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&server, w, pairs, epoch] {
      const std::string team_dn = ",ou=w" + std::to_string(w);
      EntrySpec spec;
      spec.classes = {"person", "top"};
      for (int i = 0; i < pairs; ++i) {
        std::string uid = "u" + std::to_string(w) + "-" +
                          std::to_string(epoch) + "-" + std::to_string(i);
        spec.values = {{"uid", uid}, {"name", "bench"}};
        DistinguishedName dn =
            *DistinguishedName::Parse("uid=" + uid + team_dn);
        if (!server.Add(dn, spec).ok()) std::abort();
        if (!server.Delete(dn).ok()) std::abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// args: (writers, group batch, readers). batch 1 = one fsync per
/// commit; readers > 0 attaches that many MVCC snapshot
/// readers (pin + Figure 4 check + value probe in a tight loop) for the
/// whole benchmark. items_per_second stays the WRITE txn/s — the claim
/// under test is that lock-free readers leave write throughput alone —
/// and the read side is reported as the reads/s counter.
void BM_GroupCommitTxnThroughput(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  const size_t batch = static_cast<size_t>(state.range(1));
  const int readers = static_cast<int>(state.range(2));
  // The queue counts its flushes only in the process-wide registry; this
  // run's are the delta from here.
  const MetricRegistry& metrics = MetricRegistry::Default();
  const uint64_t groups_before =
      metrics.Read("ldapbound_wal_group_commits_total");
  const uint64_t commits_before =
      metrics.Read("ldapbound_wal_group_commit_batch_size_sum");
  std::string wal_root;
  DirectoryServer server = MakeGroupServer(batch, &wal_root);
  const ClassId team = *server.vocab().FindClass("team");
  const ClassId person = *server.vocab().FindClass("person");
  const AttributeId uid = *server.vocab().FindAttribute("uid");
  const Query orphans = OrphanTeamsQuery(team, person);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> reader_threads;
  for (int r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotRead(server, team, person, uid, orphans);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  constexpr int kPairsPerWriter = 25;
  uint64_t epoch = 0;
  for (auto _ : state) {
    RunWriters(server, writers, kPairsPerWriter, epoch++);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : reader_threads) t.join();

  // txn/s is items_per_second: every pair is two acknowledged commits.
  state.SetItemsProcessed(state.iterations() * writers * kPairsPerWriter *
                          2);
  if (readers > 0) {
    state.counters["reads_per_s"] = benchmark::Counter(
        static_cast<double>(reads.load()), benchmark::Counter::kIsRate);
  }
  if (server.group_commit() != nullptr) {
    state.counters["groups"] = static_cast<double>(
        metrics.Read("ldapbound_wal_group_commits_total") - groups_before);
    state.counters["commits"] = static_cast<double>(
        metrics.Read("ldapbound_wal_group_commit_batch_size_sum") -
        commits_before);
  }
  std::filesystem::remove_all(wal_root);
}
BENCHMARK(BM_GroupCommitTxnThroughput)
    ->ArgNames({"writers", "batch", "readers"})
    // The ISSUE 5 write-side coverage (readers = 0)...
    ->Args({1, 1, 0})
    ->Args({1, 8, 0})
    ->Args({4, 1, 0})
    ->Args({4, 8, 0})
    ->Args({16, 1, 0})
    ->Args({16, 8, 0})
    ->Args({16, 64, 0})
    ->Args({32, 16, 0})
    ->Args({32, 32, 0})
    // ...and the ISSUE 6 readers matrix at the group-commit sweet spot:
    // writers in {1, 8, 32} x readers in {0, 1, 4, 16, 64}, batch 16. The
    // readers:0 rows are the same run's reference for the CI readers
    // gate (readers:4 txn/s over readers:0 txn/s).
    ->Args({1, 16, 0})
    ->Args({1, 16, 1})
    ->Args({1, 16, 4})
    ->Args({1, 16, 16})
    ->Args({1, 16, 64})
    ->Args({8, 16, 0})
    ->Args({8, 16, 1})
    ->Args({8, 16, 4})
    ->Args({8, 16, 16})
    ->Args({8, 16, 64})
    ->Args({32, 16, 1})
    ->Args({32, 16, 4})
    ->Args({32, 16, 16})
    ->Args({32, 16, 64})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Pure read scaling: google-benchmark fans the function out over
/// `threads` OS threads, each pinning and reading in its own loop
/// against a static (already populated) server. items_per_second is
/// aggregate reads/s; on a multi-core host it should scale near
/// linearly to the core count because the read path takes no lock.
void BM_SnapshotReadThroughput(benchmark::State& state) {
  static DirectoryServer* server = [] {
    auto* s = new DirectoryServer(
        DirectoryServer::Create(kBenchSchema).value());
    for (int w = 0; w < kMaxWriters; ++w) {
      const std::string team_dn = "ou=w" + std::to_string(w);
      EntrySpec team;
      team.classes = {"team", "top"};
      team.values = {{"ou", "w" + std::to_string(w)}};
      EntrySpec anchor;
      anchor.classes = {"person", "top"};
      anchor.values = {{"uid", "a" + std::to_string(w)}, {"name", "anchor"}};
      UpdateTransaction txn;
      txn.Insert(*DistinguishedName::Parse(team_dn), team);
      txn.Insert(*DistinguishedName::Parse("uid=a" + std::to_string(w) +
                                           "," + team_dn),
                 anchor);
      if (!s->Apply(txn).ok()) std::abort();
    }
    return s;
  }();
  const ClassId team = *server->vocab().FindClass("team");
  const ClassId person = *server->vocab().FindClass("person");
  const AttributeId uid = *server->vocab().FindAttribute("uid");
  const Query orphans = OrphanTeamsQuery(team, person);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SnapshotRead(*server, team, person, uid, orphans));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotReadThroughput)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->Threads(64)
    ->UseRealTime();

/// ns per Add+DeleteLeaf at |D| = range(0): pure Directory mutation (no
/// server, no durability) so the index maintenance dominates. Flat across
/// sizes <=> O(|Delta|) maintenance.
void BM_IndexMaintenancePerTxn(benchmark::State& state) {
  const size_t target = static_cast<size_t>(state.range(0));
  // The index counts relabels and rebuilds only in the process-wide
  // registry; this run's are the delta from here.
  const MetricRegistry& metrics = MetricRegistry::Default();
  const uint64_t relabels_before =
      metrics.Read("ldapbound_index_relabels_total");
  const uint64_t rebuilds_before =
      metrics.Read("ldapbound_index_full_rebuilds_total");
  auto vocab = std::make_shared<Vocabulary>();
  const ClassId top = vocab->top_class();
  Directory d(vocab);
  // 64 units under one root, persons spread evenly: a realistic shallow
  // fanout, built once outside the timed region.
  EntryId root = *d.AddEntry(kInvalidEntryId, "root", {top}, {});
  std::vector<EntryId> units;
  for (int u = 0; u < 64; ++u) {
    units.push_back(*d.AddEntry(root, "u" + std::to_string(u), {top}, {}));
  }
  for (size_t i = 0; d.NumEntries() < target; ++i) {
    if (!d.AddEntry(units[i % units.size()], "p" + std::to_string(i), {top},
                    {})
             .ok()) {
      std::abort();
    }
  }
  uint64_t tag = 0;
  for (auto _ : state) {
    EntryId id = *d.AddEntry(units[tag % units.size()],
                             "bench" + std::to_string(tag), {top}, {});
    if (!d.DeleteLeaf(id).ok()) std::abort();
    ++tag;
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["entries"] = static_cast<double>(d.NumEntries());
  state.counters["relabels"] = static_cast<double>(
      metrics.Read("ldapbound_index_relabels_total") - relabels_before);
  state.counters["rebuilds"] = static_cast<double>(
      metrics.Read("ldapbound_index_full_rebuilds_total") - rebuilds_before);
}
BENCHMARK(BM_IndexMaintenancePerTxn)
    ->Arg(1 << 10)
    ->Arg(1 << 13)
    ->Arg(1 << 16);

/// ns per Add+DeleteLeaf of a youngest child under one parent with
/// range(0) children, no publish. The tree links make the sibling-list
/// upkeep O(1) whatever the fanout; |D| grows with the fanout here, and
/// what the rows still rise by is that size term (EXPERIMENTS.md, "One
/// tree"). A fixed number of pairs per row, since ids are never reused.
void BM_ChildChurnAtFanout(benchmark::State& state) {
  const size_t fanout = static_cast<size_t>(state.range(0));
  auto vocab = std::make_shared<Vocabulary>();
  const ClassId top = vocab->top_class();
  Directory d(vocab);
  EntryId parent = *d.AddEntry(kInvalidEntryId, "parent", {top}, {});
  for (size_t i = 0; i < fanout; ++i) {
    if (!d.AddEntry(parent, "c" + std::to_string(i), {top}, {}).ok()) {
      std::abort();
    }
  }
  uint64_t tag = 0;
  for (auto _ : state) {
    EntryId id =
        *d.AddEntry(parent, "churn" + std::to_string(tag++), {top}, {});
    if (!d.DeleteLeaf(id).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ChildChurnAtFanout)
    ->ArgName("children")
    ->Arg(16)
    ->Arg(1 << 10)
    ->Arg(1 << 13)
    ->Arg(1 << 16)
    ->Iterations(20000);

/// The same flatness claim at the server level: a durable-free server
/// commit (validation, mirror upkeep and snapshot publication, no WAL)
/// per |D|. This is the end-to-end "update cost is O(|Delta|)" number the
/// paper's Section 4 promises. Every row runs a fixed number of pairs:
/// ids are never reused, so a count google-benchmark chose would let a
/// faster build churn more of them and compare different work.
void BM_ServerCommitPerTxn(benchmark::State& state) {
  const size_t target = static_cast<size_t>(state.range(0));
  DirectoryServer server = DirectoryServer::Create(kBenchSchema).value();
  EntrySpec team;
  team.classes = {"team", "top"};
  team.values = {{"ou", "big"}};
  EntrySpec anchor;
  anchor.classes = {"person", "top"};
  anchor.values = {{"uid", "a"}, {"name", "anchor"}};
  UpdateTransaction seed_txn;
  seed_txn.Insert(*DistinguishedName::Parse("ou=big"), team);
  seed_txn.Insert(*DistinguishedName::Parse("uid=a,ou=big"), anchor);
  if (!server.Apply(seed_txn).ok()) std::abort();
  EntrySpec spec;
  spec.classes = {"person", "top"};
  for (size_t i = 0; server.directory().NumEntries() < target; ++i) {
    std::string uid = "fill" + std::to_string(i);
    spec.values = {{"uid", uid}, {"name", "fill"}};
    if (!server.Add(*DistinguishedName::Parse("uid=" + uid + ",ou=big"),
                    spec)
             .ok()) {
      std::abort();
    }
  }
  uint64_t tag = 0;
  for (auto _ : state) {
    std::string uid = "bench" + std::to_string(tag++);
    spec.values = {{"uid", uid}, {"name", "bench"}};
    DistinguishedName dn =
        *DistinguishedName::Parse("uid=" + uid + ",ou=big");
    if (!server.Add(dn, spec).ok()) std::abort();
    if (!server.Delete(dn).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ServerCommitPerTxn)
    ->ArgName("entries")
    ->Arg(1 << 10)
    ->Arg(1 << 13)
    ->Arg(1 << 16)
    ->Iterations(20000);

World MakeMutableWorld(size_t target_entries) {
  World world;
  world.vocab = std::make_shared<Vocabulary>();
  world.schema = std::make_unique<DirectorySchema>(
      MakeWhitePagesSchema(world.vocab).value());
  WhitePagesOptions options;
  options.org_unit_fanout = 8;
  options.org_unit_depth = 2;
  options.persons_per_unit = std::max<size_t>(1, target_entries / 72);
  world.directory = std::make_unique<Directory>(
      MakeWhitePagesInstance(*world.schema, options).value());
  return world;
}

EntrySpec BenchUnitSpec(const std::string& name) {
  EntrySpec spec;
  spec.classes = {"orgUnit", "orgGroup", "top"};
  spec.values = {{"ou", name}};
  return spec;
}

EntrySpec BenchPersonSpec(const std::string& uid) {
  EntrySpec spec;
  spec.classes = {"person", "top"};
  spec.values = {{"uid", uid}, {"name", "bench " + uid}};
  return spec;
}

// One accepted insert transaction followed by the matching delete
// transaction — the pair keeps the directory size stable across
// iterations, so the sweep isolates the |D| dependence.
void BM_CommitStaffedUnitRoundTrip(benchmark::State& state) {
  World world = MakeMutableWorld(static_cast<size_t>(state.range(0)));
  TransactionExecutor executor(world.directory.get(), *world.schema);
  world.directory->GetIndex();
  int tag = 0;
  for (auto _ : state) {
    std::string unit = "ou=bench" + std::to_string(tag);
    std::string person = "uid=bench" + std::to_string(tag);
    ++tag;

    UpdateTransaction insert;
    insert.Insert(*DistinguishedName::Parse(unit + ",o=acme"),
                  BenchUnitSpec(unit.substr(3)));
    insert.Insert(
        *DistinguishedName::Parse(person + "," + unit + ",o=acme"),
        BenchPersonSpec(person.substr(4)));
    Status s1 = executor.Commit(insert);

    UpdateTransaction erase;
    erase.Delete(*DistinguishedName::Parse(unit + ",o=acme"));
    erase.Delete(
        *DistinguishedName::Parse(person + "," + unit + ",o=acme"));
    Status s2 = executor.Commit(erase);
    benchmark::DoNotOptimize(s1);
    benchmark::DoNotOptimize(s2);
    if (!s1.ok() || !s2.ok()) {
      state.SkipWithError("commit failed");
      break;
    }
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
}

BENCHMARK(BM_CommitStaffedUnitRoundTrip)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000)
    ->Unit(benchmark::kMicrosecond);

// A transaction the schema rejects (lonely org unit): measures the cost of
// check + rollback.
void BM_CommitRejectedTransaction(benchmark::State& state) {
  World world = MakeMutableWorld(static_cast<size_t>(state.range(0)));
  TransactionExecutor executor(world.directory.get(), *world.schema);
  world.directory->GetIndex();
  int tag = 0;
  for (auto _ : state) {
    std::string unit = "ou=lonely" + std::to_string(tag++);
    UpdateTransaction txn;
    txn.Insert(*DistinguishedName::Parse(unit + ",o=acme"),
               BenchUnitSpec(unit.substr(3)));
    Status status = executor.Commit(txn);
    benchmark::DoNotOptimize(status);
    if (status.code() != StatusCode::kIllegal) {
      state.SkipWithError("expected rejection");
      break;
    }
  }
  state.counters["entries"] =
      static_cast<double>(world.directory->NumEntries());
}

BENCHMARK(BM_CommitRejectedTransaction)
    ->Arg(1000)
    ->Arg(16000)
    ->Arg(64000)
    ->Unit(benchmark::kMicrosecond);

// Snapshot capture/restore cost scales with the subtree, not with |D|.
void BM_SnapshotRoundTrip(benchmark::State& state) {
  World world = MakeMutableWorld(16000);
  Directory& directory = *world.directory;
  EntryId org = directory.roots().front();
  EntryId unit = directory.entry(org).children().front();
  size_t subtree = directory.SubtreeEntries(unit).size();
  for (auto _ : state) {
    SubtreeSnapshot snapshot =
        *SubtreeSnapshot::Capture(directory, unit);
    (void)directory.DeleteSubtree(unit);
    auto restored = snapshot.Restore(&directory, org);
    unit = restored->front();
    benchmark::DoNotOptimize(unit);
  }
  state.counters["subtree_entries"] = static_cast<double>(subtree);
}

BENCHMARK(BM_SnapshotRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ldapbound::bench
