// chaos_runner — drive fault storms against a live in-process
// DirectoryServer and check the resilience invariants (DESIGN.md §11).
//
// The ctest chaos suite (tests/server/chaos_test.cc) runs short,
// deterministic storms; this driver is the operator-facing knob for
// longer soaks and ad-hoc experiments:
//
//   chaos_runner --dir /tmp/chaos --seconds 30 --fault mix
//       --writers 4 --readers 2 --max-queue-depth 8
//
// Faults (--fault): fsync (injected fsync errors), enospc (disk full),
// stall (slow-disk sleeps), overload (queue bound + stalls), or mix
// (rotate through all of them). Requires a build with
// -DLDAPBOUND_FAILPOINTS=ON; exits 2 when failpoints are compiled out.
//
// Invariants checked, each fatal when violated (exit 1):
//   - no acknowledged commit is lost: every OK'd write is present after
//     a fresh recovery of the WAL directory;
//   - rejected ops carry only the expected statuses, and every
//     resilience shed (unavailable/overloaded/deadline) is retryable;
//   - the commit queue depth stays bounded by the admission limit plus
//     the number of in-flight writers;
//   - the server returns to healthy within the backoff budget once the
//     fault clears.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "server/directory_server.h"
#include "server/group_commit.h"
#include "server/health.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/string_util.h"

namespace ldapbound {
namespace {

constexpr char kSchema[] = R"(
attribute uid string
attribute name string
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

struct Options {
  std::string dir;
  std::string fault = "mix";
  int writers = 4;
  int readers = 2;
  int seconds = 10;
  size_t max_queue_depth = 8;
  uint64_t default_deadline_ms = 0;
  uint64_t backoff_ms = 10;
};

int Usage() {
  std::fprintf(stderr,
               "usage: chaos_runner --dir <wal-dir> [options]\n"
               "  --fault <kind>           fsync | enospc | stall | "
               "overload | mix (default mix)\n"
               "  --writers <n>            concurrent writers (default 4)\n"
               "  --readers <n>            concurrent readers (default 2)\n"
               "  --seconds <n>            storm duration (default 10)\n"
               "  --max-queue-depth <n>    admission bound (default 8)\n"
               "  --default-deadline-ms <ms>  op budget (default 0 = none)\n"
               "  --backoff-ms <ms>        recovery probe initial backoff "
               "(default 10)\n");
  return 2;
}

struct Ledger {
  std::mutex mu;
  std::vector<std::string> acked;
  std::map<StatusCode, uint64_t> failures;
  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<size_t> max_depth_seen{0};
  std::atomic<uint64_t> violations{0};
};

void Violation(Ledger& ledger, const std::string& what) {
  ledger.violations.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "VIOLATION: %s\n", what.c_str());
}

void RunWriter(DirectoryServer* server, const std::atomic<bool>& stop,
               int id, Ledger* ledger) {
  EntrySpec spec;
  spec.classes = {"person", "top"};
  for (uint64_t a = 0; !stop.load(std::memory_order_acquire); ++a) {
    const std::string uid = "w" + std::to_string(id) + "a" + std::to_string(a);
    spec.values = {{"uid", uid}, {"name", "chaos " + uid}};
    ledger->attempts.fetch_add(1, std::memory_order_relaxed);
    Status status =
        server->Add(*DistinguishedName::Parse("uid=" + uid + ",ou=t1"), spec);
    if (status.ok()) {
      std::lock_guard<std::mutex> lock(ledger->mu);
      ledger->acked.push_back("uid=" + uid + ",ou=t1");
      continue;
    }
    const StatusCode code = status.code();
    {
      std::lock_guard<std::mutex> lock(ledger->mu);
      ++ledger->failures[code];
    }
    if (code != StatusCode::kInternal && code != StatusCode::kDiskFull &&
        !status.retryable()) {
      Violation(*ledger, "non-retryable shed: " + status.ToString());
    }
    if (code != StatusCode::kInternal && code != StatusCode::kDiskFull &&
        code != StatusCode::kUnavailable && code != StatusCode::kOverloaded &&
        code != StatusCode::kDeadlineExceeded) {
      Violation(*ledger, "unexpected rejection: " + status.ToString());
    }
    // Shed: back off a little, like a well-behaved client.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void RunReader(const DirectoryServer* server, const std::atomic<bool>& stop,
               Ledger* ledger) {
  // Pin MVCC snapshots, the lock-free read path `serve` uses; reads must
  // keep serving an internally consistent state in every health state.
  uint64_t last_version = 0;
  while (!stop.load(std::memory_order_acquire)) {
    PinnedSnapshot snap = server->PinSnapshot();
    if (!snap) {
      Violation(*ledger, "read failed: no published snapshot");
    } else if (snap->version < last_version) {
      Violation(*ledger, "read failed: snapshot version went backwards");
    } else if (snap->num_alive != snap->alive->Count()) {
      Violation(*ledger, "read failed: snapshot alive set inconsistent");
    } else {
      last_version = snap->version;
    }
    ledger->reads.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// One storm round of the given fault kind; returns once the server is
// healthy again (or reports a violation on heal timeout).
void RunRound(DirectoryServer* server, const std::string& kind,
              Ledger* ledger) {
  if (kind == "fsync") {
    Failpoints::Arm("wal.fsync", Failpoints::Action::kError, 1);
  } else if (kind == "enospc") {
    Failpoints::Arm("wal.fsync.enospc", Failpoints::Action::kError, 1);
  } else if (kind == "stall" || kind == "overload") {
    Failpoints::Arm("wal.fsync", Failpoints::Action::kSleep, 1,
                    /*sleep_ms=*/30);
  } else {
    std::fprintf(stderr, "unknown fault kind '%s'\n", kind.c_str());
    return;
  }
  // Let the fault bite (single-shot errors trip on the next write;
  // stalls run for the whole window).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Failpoints::Reset();

  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(60);
  while (server->wal_failed()) {
    if (std::chrono::steady_clock::now() > give_up) {
      Violation(*ledger, "server did not return to healthy within the "
                         "backoff budget after a '" + kind + "' round "
                         "(state " +
                         std::string(HealthStateName(server->health_state())) +
                         ")");
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

int Run(const Options& options) {
  if (!Failpoints::enabled()) {
    std::fprintf(stderr, "chaos_runner needs a failpoint build "
                         "(-DLDAPBOUND_FAILPOINTS=ON)\n");
    return 2;
  }
  std::filesystem::remove_all(options.dir);

  auto created = DirectoryServer::Create(kSchema);
  if (!created.ok()) {
    std::fprintf(stderr, "create: %s\n", created.status().ToString().c_str());
    return 2;
  }
  DirectoryServer server = std::move(*created);
  WalOptions wal_options;
  wal_options.group_commit_max_batch = 8;
  wal_options.group_commit_hold_us = 100;
  if (Status status = server.EnableWal(options.dir, wal_options);
      !status.ok()) {
    std::fprintf(stderr, "wal: %s\n", status.ToString().c_str());
    return 2;
  }
  // Readers run concurrently with the writers: route them through MVCC
  // snapshots, exactly like `ldapbound serve` does.
  server.EnableMvcc();
  DirectoryServer::ResilienceOptions resilience;
  resilience.admission.max_queue_depth = options.max_queue_depth;
  resilience.admission.default_deadline_ms = options.default_deadline_ms;
  resilience.auto_recover = true;
  resilience.recovery_backoff.initial_ms = options.backoff_ms;
  server.EnableResilience(resilience);

  // The team every writer adds persons under.
  EntrySpec team;
  team.classes = {"team", "top"};
  team.values = {{"ou", "t1"}};
  UpdateTransaction txn;
  txn.Insert(*DistinguishedName::Parse("ou=t1"), team);
  EntrySpec seed;
  seed.classes = {"person", "top"};
  seed.values = {{"uid", "u0"}, {"name", "seed"}};
  txn.Insert(*DistinguishedName::Parse("uid=u0,ou=t1"), seed);
  if (Status status = server.Apply(txn); !status.ok()) {
    std::fprintf(stderr, "seed: %s\n", status.ToString().c_str());
    return 2;
  }

  Ledger ledger;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < options.writers; ++w) {
    threads.emplace_back(RunWriter, &server, std::cref(stop), w, &ledger);
  }
  for (int r = 0; r < options.readers; ++r) {
    threads.emplace_back(RunReader, &server, std::cref(stop), &ledger);
  }
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (const GroupCommitQueue* queue = server.group_commit()) {
        size_t depth = queue->depth();
        size_t prev = ledger.max_depth_seen.load(std::memory_order_relaxed);
        while (depth > prev &&
               !ledger.max_depth_seen.compare_exchange_weak(prev, depth)) {
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const std::vector<std::string> rotation =
      options.fault == "mix"
          ? std::vector<std::string>{"fsync", "enospc", "stall"}
          : std::vector<std::string>{options.fault};
  const auto storm_end = std::chrono::steady_clock::now() +
                         std::chrono::seconds(options.seconds);
  size_t round = 0;
  while (std::chrono::steady_clock::now() < storm_end) {
    RunRound(&server, rotation[round++ % rotation.size()], &ledger);
  }
  Failpoints::Reset();

  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  sampler.join();

  // Final heal, then the durability audit: recover the WAL directory the
  // way a restart would and look up every acknowledged DN.
  RunRound(&server, "fsync", &ledger);  // no-op fault, waits for healthy
  if (ledger.max_depth_seen.load() >
      options.max_queue_depth + static_cast<size_t>(options.writers)) {
    Violation(ledger, "queue depth " +
                          std::to_string(ledger.max_depth_seen.load()) +
                          " exceeded bound " +
                          std::to_string(options.max_queue_depth) +
                          " + writers");
  }
  auto recovered = DirectoryServer::Recover(options.dir, wal_options);
  if (!recovered.ok()) {
    Violation(ledger, "recovery failed: " + recovered.status().ToString());
  } else {
    for (const std::string& dn : ledger.acked) {
      if (!recovered->Search(dn, "(objectClass=person)").ok()) {
        Violation(ledger, "acknowledged commit lost: " + dn);
      }
    }
  }

  std::printf("attempts:  %llu\n",
              static_cast<unsigned long long>(ledger.attempts.load()));
  std::printf("acked:     %zu\n", ledger.acked.size());
  std::printf("reads:     %llu\n",
              static_cast<unsigned long long>(ledger.reads.load()));
  std::printf("max depth: %zu\n", ledger.max_depth_seen.load());
  for (const auto& [code, count] : ledger.failures) {
    std::printf("rejected[%s]: %llu\n",
                std::string(StatusCodeToString(code)).c_str(),
                static_cast<unsigned long long>(count));
  }
  // One server per process: the process-wide counts are its own.
  const MetricRegistry& metrics = MetricRegistry::Default();
  std::printf(
      "health: %s, transitions %llu, recoveries %llu\n",
      std::string(HealthStateName(server.health_state())).c_str(),
      static_cast<unsigned long long>(
          metrics.Read("ldapbound_health_transitions_total")),
      static_cast<unsigned long long>(
          metrics.Read("ldapbound_health_recoveries_total")));

  const uint64_t violations = ledger.violations.load();
  if (violations > 0) {
    std::fprintf(stderr, "%llu invariant violation(s)\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  std::printf("all invariants held\n");
  return 0;
}

}  // namespace
}  // namespace ldapbound

int main(int argc, char** argv) {
  ldapbound::Options options;
  auto next_value = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  // Numeric flags parse strictly (util/string_util.h): garbage or a
  // negative must be a usage error, not a silent 0 writer count or a
  // queue bound of 2^64-1.
  auto parse_uint = [](const std::string& flag, const char* v, uint64_t max,
                       auto* out) {
    auto parsed = ldapbound::ParseUint(v, max);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", flag.c_str(),
                   parsed.status().message().c_str());
      return false;
    }
    *out = static_cast<std::remove_pointer_t<decltype(out)>>(*parsed);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--dir" && (v = next_value(i))) {
      options.dir = v;
    } else if (arg == "--fault" && (v = next_value(i))) {
      options.fault = v;
    } else if (arg == "--writers" && (v = next_value(i))) {
      if (!parse_uint(arg, v, 1024, &options.writers)) return 2;
    } else if (arg == "--readers" && (v = next_value(i))) {
      if (!parse_uint(arg, v, 1024, &options.readers)) return 2;
    } else if (arg == "--seconds" && (v = next_value(i))) {
      if (!parse_uint(arg, v, 86400, &options.seconds)) return 2;
    } else if (arg == "--max-queue-depth" && (v = next_value(i))) {
      if (!parse_uint(arg, v, UINT32_MAX, &options.max_queue_depth)) return 2;
    } else if (arg == "--default-deadline-ms" && (v = next_value(i))) {
      if (!parse_uint(arg, v, UINT64_MAX, &options.default_deadline_ms)) {
        return 2;
      }
    } else if (arg == "--backoff-ms" && (v = next_value(i))) {
      if (!parse_uint(arg, v, UINT64_MAX, &options.backoff_ms)) return 2;
    } else {
      return ldapbound::Usage();
    }
  }
  if (options.dir.empty() || options.writers < 1 || options.seconds < 1) {
    return ldapbound::Usage();
  }
  return ldapbound::Run(options);
}
