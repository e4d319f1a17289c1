// Monitor endpoint under concurrent load: scraper threads hammer /metrics,
// /statusz and /slowz over real sockets while worker threads run searches,
// bump metric counters and feed the slow-op ring. The monitor holds only
// const references into internally-synchronized state, so this must be
// data-race free (the `concurrency` label runs it under TSan).
#include "server/monitor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "server/directory_server.h"
#include "tests/testing/helpers.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

using testing::StatuszCount;

constexpr char kSchema[] = R"(
attribute name string

class person : top {
  require name
}
)";

DistinguishedName Dn(const std::string& s) {
  return *DistinguishedName::Parse(s);
}

std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path + " HTTP/1.1\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MonitorConcurrencyTest, ScrapesRaceSearchesAndSlowOps) {
  auto server = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server->EnableSlowOps(/*capacity=*/8);

  EntrySpec spec;
  spec.classes = {"person", "top"};
  spec.values = {{"name", "alice"}};
  ASSERT_TRUE(server->Add(Dn("name=alice"), spec).ok());

  auto monitor = MonitorServer::Start(&*server);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  uint16_t port = (*monitor)->port();
  auto searches = [] {
    return MetricRegistry::Default().Read("ldapbound_server_ops_total",
                                          "op=\"search\",outcome=\"ok\"");
  };
  const uint64_t searches_before = searches();

  // Searches are const reads, safe to run concurrently with each other
  // and with scrapes; each one feeds the op counters and the slow-op
  // ring, so the monitor renders state that is mutating under it.
  constexpr int kWorkers = 4;
  constexpr int kScrapers = 4;
  constexpr int kIterations = 200;
  std::atomic<int> scrape_failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&server, w] {
      Counter& churn = MetricRegistry::Default().GetCounter(
          "test_monitor_churn_total", "Concurrency-test counter churn");
      SearchRequest request;
      request.base = Dn("name=alice");
      request.scope = SearchScope::kBase;
      for (int i = 0; i < kIterations; ++i) {
        churn.Increment();
        auto result = server->Search(request);
        if (!result.ok() || result->size() != 1) std::abort();
        (void)w;
      }
    });
  }
  for (int s = 0; s < kScrapers; ++s) {
    threads.emplace_back([port, &scrape_failures] {
      const char* kPaths[] = {"/metrics", "/statusz", "/slowz", "/healthz"};
      for (int i = 0; i < kIterations; ++i) {
        std::string response = HttpGet(port, kPaths[i % 4]);
        if (response.find("HTTP/1.1 200 OK") == std::string::npos) {
          scrape_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(scrape_failures.load(), 0);
  // Every search was tracked; the ring retained at most its capacity.
  EXPECT_EQ(searches() - searches_before,
            static_cast<uint64_t>(kWorkers) * kIterations);
  EXPECT_LE(server->slow_ops()->Snapshot().size(), 8u);
  EXPECT_GE(server->slow_ops()->recorded(),
            static_cast<uint64_t>(kWorkers) * kIterations);

  // A final scrape still renders the full, consistent state.
  std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("test_monitor_churn_total"), std::string::npos);
  (*monitor)->Stop();
}

TEST(MonitorConcurrencyTest, StatuszRacesDurableWriters) {
  // /statusz under write traffic, as `serve` sees it when scraped: two
  // writers commit through a batching WAL while two threads render. The
  // entry count and the WAL sequence move under the renderers, so both
  // must be read race-free. The vocabulary is frozen, so the renderers
  // read it without a lock.
  const std::string dir = ::testing::TempDir() + "ldapbound_statusz_writers";
  std::filesystem::remove_all(dir);
  auto server = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  WalOptions wal_options;
  wal_options.group_commit_max_batch = 4;
  ASSERT_TRUE(server->EnableWal(dir, wal_options).ok());
  auto monitor = MonitorServer::Start(&*server);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();

  constexpr int kWriters = 2;
  constexpr int kCommits = 50;
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&server, &writers_left, &failures, w] {
      EntrySpec spec;
      spec.classes = {"person", "top"};
      for (int i = 0; i < kCommits; ++i) {
        const std::string name =
            "w" + std::to_string(w) + "-" + std::to_string(i);
        spec.values = {{"name", name}};
        if (!server->Add(Dn("name=" + name), spec).ok() ||
            !server->Delete(Dn("name=" + name)).ok()) {
          failures.fetch_add(1);
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&monitor, &writers_left, &failures] {
      while (writers_left.load() > 0) {
        if ((*monitor)->RenderStatusz().find("\"next_seq\":") ==
            std::string::npos) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->wal()->next_seq(), 2u * kWriters * kCommits + 1);
  (*monitor)->Stop();
}

TEST(MonitorConcurrencyTest, StatuszRacesSnapshotPinners) {
  // /statusz renders its registry counts and samples the epoch slots for
  // mvcc.live_readers while four threads pin snapshots (nested, as a
  // paged read does) and a writer publishes a snapshot per commit. Every
  // render sees at most the pinners plus the writer, a publish count that
  // never goes backwards, and, once everyone is done, no reader left.
  auto server = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto monitor = MonitorServer::Start(&*server);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();

  constexpr int kPinners = 4;
  constexpr int kCommits = 100;
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&server, &writer_done, &failures] {
    EntrySpec spec;
    spec.classes = {"person", "top"};
    for (int i = 0; i < kCommits; ++i) {
      const std::string name = "p" + std::to_string(i);
      spec.values = {{"name", name}};
      if (!server->Add(Dn("name=" + name), spec).ok()) failures.fetch_add(1);
    }
    writer_done.store(true);
  });
  for (int p = 0; p < kPinners; ++p) {
    threads.emplace_back([&server, &writer_done, &failures] {
      while (!writer_done.load()) {
        PinnedSnapshot outer = server->PinSnapshot();
        PinnedSnapshot inner = server->PinSnapshot();
        if (!outer || !inner || inner->version < outer->version) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&monitor, &writer_done, &failures] {
    uint64_t last_publishes = 0;
    while (!writer_done.load()) {
      const std::string statusz = (*monitor)->RenderStatusz();
      const uint64_t readers = StatuszCount(statusz, "mvcc", "live_readers");
      const uint64_t publishes = StatuszCount(statusz, "mvcc", "publishes");
      if (readers > kPinners + 1 || publishes < last_publishes ||
          publishes == UINT64_MAX) {
        failures.fetch_add(1);
      }
      last_publishes = publishes;
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  const std::string statusz = (*monitor)->RenderStatusz();
  EXPECT_EQ(StatuszCount(statusz, "mvcc", "live_readers"), 0u) << statusz;
  EXPECT_GE(StatuszCount(statusz, "mvcc", "publishes"), uint64_t{kCommits})
      << statusz;
  (*monitor)->Stop();
}

}  // namespace
}  // namespace ldapbound
