// EXP-WAL / durability overhead: per-commit latency of the write-ahead
// changelog against the in-memory baseline. Modes: no durability, the
// in-memory changelog, WAL without fsync (page-cache only), and WAL with
// fsync-before-acknowledge (the durable default). The WAL modes run the
// default options, so a lone writer's every commit is its own group of
// one in the group-commit queue. Expectation: the frame serialization
// itself is cheap (same order as the changelog append); the fsync
// dominates durable commits by orders of magnitude, and batching sympathy
// (larger transactions per frame) amortizes it.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench/bench_common.h"
#include "server/directory_server.h"

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

enum class Durability { kNone, kChangelog, kWalNoSync, kWalSync };

DirectoryServer MakeServer(Durability mode, std::string* wal_dir) {
  DirectoryServer server = DirectoryServer::Create(kBenchSchema).value();
  UpdateTransaction txn;
  EntrySpec team;
  team.classes = {"team", "top"};
  team.values = {{"ou", "bench"}};
  EntrySpec anchor;
  anchor.classes = {"person", "top"};
  anchor.values = {{"uid", "anchor"}, {"name", "anchor"}};
  txn.Insert(*DistinguishedName::Parse("ou=bench"), team);
  txn.Insert(*DistinguishedName::Parse("uid=anchor,ou=bench"), anchor);
  if (!server.Apply(txn).ok()) std::abort();

  if (mode == Durability::kChangelog) server.EnableChangelog();
  if (mode == Durability::kWalNoSync || mode == Durability::kWalSync) {
    char tmpl[] = "/tmp/ldapbound-bench-wal-XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) std::abort();
    *wal_dir = std::string(tmpl) + "/wal";
    WalOptions options;
    options.sync = (mode == Durability::kWalSync);
    if (!server.EnableWal(*wal_dir, options).ok()) std::abort();
  }
  return server;
}

// One Add + one Delete per iteration: two commits, directory size stable.
void CommitPair(benchmark::State& state, Durability mode) {
  std::string wal_dir;
  DirectoryServer server = MakeServer(mode, &wal_dir);
  EntrySpec spec;
  spec.classes = {"person", "top"};
  uint64_t tag = 0;
  for (auto _ : state) {
    std::string uid = "u" + std::to_string(tag++);
    spec.values = {{"uid", uid}, {"name", "bench " + uid}};
    DistinguishedName dn =
        *DistinguishedName::Parse("uid=" + uid + ",ou=bench");
    if (!server.Add(dn, spec).ok()) std::abort();
    if (!server.Delete(dn).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * 2);  // commits
  if (!wal_dir.empty()) {
    std::filesystem::remove_all(
        std::filesystem::path(wal_dir).parent_path());
  }
}

void BM_CommitNoDurability(benchmark::State& state) {
  CommitPair(state, Durability::kNone);
}
void BM_CommitChangelog(benchmark::State& state) {
  CommitPair(state, Durability::kChangelog);
}
void BM_CommitWalNoSync(benchmark::State& state) {
  CommitPair(state, Durability::kWalNoSync);
}
void BM_CommitWalSync(benchmark::State& state) {
  CommitPair(state, Durability::kWalSync);
}
BENCHMARK(BM_CommitNoDurability);
BENCHMARK(BM_CommitChangelog);
BENCHMARK(BM_CommitWalNoSync);
BENCHMARK(BM_CommitWalSync);

// Batching sympathy: one transaction of `range(0)` inserts is one WAL
// frame and one fsync — the per-entry durable cost drops with batch size.
void BM_CommitWalSyncBatch(benchmark::State& state) {
  std::string wal_dir;
  DirectoryServer server = MakeServer(Durability::kWalSync, &wal_dir);
  const int batch = static_cast<int>(state.range(0));
  uint64_t tag = 0;
  for (auto _ : state) {
    UpdateTransaction insert;
    UpdateTransaction remove;
    for (int i = 0; i < batch; ++i) {
      std::string uid = "b" + std::to_string(tag++);
      EntrySpec spec;
      spec.classes = {"person", "top"};
      spec.values = {{"uid", uid}, {"name", "bench " + uid}};
      DistinguishedName dn =
          *DistinguishedName::Parse("uid=" + uid + ",ou=bench");
      insert.Insert(dn, spec);
      remove.Delete(dn);
    }
    if (!server.Apply(insert).ok()) std::abort();
    if (!server.Apply(remove).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * batch * 2);  // entries
  std::filesystem::remove_all(std::filesystem::path(wal_dir).parent_path());
}
BENCHMARK(BM_CommitWalSyncBatch)->Arg(1)->Arg(8)->Arg(64);

}  // namespace
}  // namespace ldapbound::bench
