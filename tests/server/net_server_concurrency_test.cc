// Concurrency / hostile-client hammering of the wire front end (run
// under TSan via the `concurrency` ctest label, and under ASan in the
// sanitizer sweep): slow byte-at-a-time clients, half-closed
// connections, a disconnect storm racing in-flight responses, and
// overload sheds at the dispatch bound, and monitor scrapes racing the
// requests' slow-op records. The invariants: the process never dies (no
// SIGPIPE, no data race), every shed is retryable, and the directory is
// exactly consistent afterwards.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/directory_server.h"
#include "server/monitor.h"
#include "server/net_server.h"
#include "server/wal.h"
#include "server/wire.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

constexpr char kSchema[] = R"(
attribute ou string
attribute uid string
attribute name string

class orgUnit : top {
  require ou
}
class person : top {
  require uid, name
}
)";

DistinguishedName Dn(const std::string& s) {
  return *DistinguishedName::Parse(s);
}

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval timeout{20, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool SendAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one response frame from `fd` into `buffer`; false on EOF.
bool ReadResponse(int fd, std::string& buffer, WireResponse* out) {
  for (;;) {
    while (buffer.size() >= 4) {
      WireCursor header(std::string_view(buffer).substr(0, 4));
      uint32_t payload_len = *header.GetU32();
      if (buffer.size() < 4 + static_cast<size_t>(payload_len)) break;
      auto response = DecodeResponsePayload(
          std::string_view(buffer).substr(4, payload_len));
      buffer.erase(0, 4 + payload_len);
      if (!response.ok()) return false;
      *out = std::move(*response);
      return true;
    }
    char buf[4096];
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    buffer.append(buf, static_cast<size_t>(n));
  }
}

/// One HTTP GET against the monitor: the whole response, "" when the
/// connection fails.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = Connect(port);
  if (fd < 0) return "";
  std::string request = "GET " + path + " HTTP/1.1\r\n\r\n";
  std::string response;
  if (SendAll(fd, request)) {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

/// True when `json` is one balanced JSON value: every bracket outside a
/// string literal closes in order.
bool BalancedJson(std::string_view json) {
  std::string open;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      open.push_back(c == '{' ? '}' : ']');
    } else if (c == '}' || c == ']') {
      if (open.empty() || open.back() != c) return false;
      open.pop_back();
    }
  }
  return !json.empty() && !in_string && open.empty();
}

class NetServerConcurrencyTest : public ::testing::Test {
 protected:
  NetServerConcurrencyTest()
      : server_(DirectoryServer::Create(kSchema).value()) {
    EntrySpec ou;
    ou.classes = {"top", "orgUnit"};
    ou.values = {{"ou", "load"}};
    EXPECT_TRUE(server_.Add(Dn("ou=load"), std::move(ou)).ok());
    for (int i = 0; i < 8; ++i) {
      EntrySpec person;
      person.classes = {"top", "person"};
      std::string uid = "u" + std::to_string(i);
      person.values = {{"uid", uid}, {"name", "user " + uid}};
      EXPECT_TRUE(
          server_.Add(Dn("uid=" + uid + ",ou=load"), std::move(person))
              .ok());
    }
  }

  void StartNet(NetServerOptions options = {}) {
    auto net = NetServer::Start(&server_, options);
    ASSERT_TRUE(net.ok()) << net.status().ToString();
    net_ = std::move(*net);
  }

  DirectoryServer server_;
  std::unique_ptr<NetServer> net_;
};

// A byte-at-a-time client must be reassembled by the partial-frame
// buffering, concurrently with fast clients on other connections.
TEST_F(NetServerConcurrencyTest, SlowClientsReassembleWhileOthersRace) {
  StartNet();
  std::atomic<bool> stop{false};
  std::thread fast([&] {
    int fd = Connect(net_->port());
    ASSERT_GE(fd, 0);
    std::string buffer;
    uint64_t id = 1000;
    while (!stop.load()) {
      ASSERT_TRUE(SendAll(
          fd, EncodeSearchRequest(id, "ou=load", 2, "(objectClass=person)")));
      WireResponse response;
      ASSERT_TRUE(ReadResponse(fd, buffer, &response));
      ASSERT_EQ(response.request_id, id);
      ++id;
    }
    ::close(fd);
  });

  int slow = Connect(net_->port());
  ASSERT_GE(slow, 0);
  std::string frame = EncodeSearchRequest(7, "ou=load", 2, "(uid=u3)");
  for (char byte : frame) {
    ASSERT_TRUE(SendAll(slow, std::string_view(&byte, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string buffer;
  WireResponse response;
  ASSERT_TRUE(ReadResponse(slow, buffer, &response));
  EXPECT_EQ(response.request_id, 7u);
  EXPECT_TRUE(response.ok()) << response.message;
  EXPECT_EQ(DecodeSearchResponseBody(response.body)->size(), 1u);
  ::close(slow);

  stop.store(true);
  fast.join();
}

// shutdown(SHUT_WR) after the last request is the polite way to end a
// wire conversation: the server must still deliver every owed response
// before closing.
TEST_F(NetServerConcurrencyTest, HalfClosedClientsStillGetTheirResponses) {
  StartNet();
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      int fd = Connect(net_->port());
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      std::string batch;
      for (uint64_t i = 0; i < 4; ++i) {
        batch += EncodeSearchRequest(c * 100 + i, "ou=load", 2, "");
      }
      if (!SendAll(fd, batch)) failures.fetch_add(1);
      ::shutdown(fd, SHUT_WR);  // EOF reaches the server first
      std::string buffer;
      int got = 0;
      WireResponse response;
      while (ReadResponse(fd, buffer, &response)) {
        if (!response.ok()) failures.fetch_add(1);
        ++got;
      }
      if (got != 4) failures.fetch_add(1);
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Clients that connect, fire requests, and vanish mid-response — with
// abortive RST closes — must never take the server down (the SIGPIPE
// regression at storm scale) or corrupt another connection's stream.
TEST_F(NetServerConcurrencyTest, DisconnectStormLeavesTheServerServing) {
  StartNet();
  std::vector<std::thread> storm;
  for (int t = 0; t < 8; ++t) {
    storm.emplace_back([&, t] {
      for (int round = 0; round < 25; ++round) {
        int fd = Connect(net_->port());
        if (fd < 0) continue;
        std::string burst;
        for (uint64_t i = 0; i < 8; ++i) {
          burst += EncodeSearchRequest(i, "ou=load", 2,
                                       "(objectClass=person)");
        }
        SendAll(fd, burst);
        if (round % 2 == 0) {
          // Abortive close: RST instead of FIN, so the server's writes
          // hit ECONNRESET/EPIPE as hard as possible.
          struct linger abort_close = {1, 0};
          ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close,
                       sizeof(abort_close));
        }
        ::close(fd);
      }
    });
  }
  // A well-behaved client runs closed-loop through the whole storm.
  std::atomic<bool> stop{false};
  std::thread steady([&] {
    int fd = Connect(net_->port());
    ASSERT_GE(fd, 0);
    std::string buffer;
    uint64_t id = 1;
    while (!stop.load()) {
      ASSERT_TRUE(SendAll(fd, EncodePingRequest(id)));
      WireResponse response;
      ASSERT_TRUE(ReadResponse(fd, buffer, &response));
      ASSERT_EQ(response.request_id, id);
      ++id;
    }
    ::close(fd);
  });
  for (std::thread& t : storm) t.join();
  stop.store(true);
  steady.join();

  // Still serving, nothing leaked into the directory.
  int fd = Connect(net_->port());
  ASSERT_GE(fd, 0);
  std::string buffer;
  WireResponse response;
  ASSERT_TRUE(SendAll(fd, EncodeValidateRequest(9)));
  ASSERT_TRUE(ReadResponse(fd, buffer, &response));
  EXPECT_TRUE(response.ok()) << response.message;
  auto verdict = DecodeValidateResponseBody(response.body);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->num_entries, 9u);
  ::close(fd);
}

// A tiny dispatch queue under pipelined fire-hose load: every response
// is either OK or an explicitly retryable shed — never a hang, never a
// silent drop, and the queue bound actually binds. Validates always take
// the queue; the searches between them are answered on the reactor and
// never shed.
TEST_F(NetServerConcurrencyTest, DispatchBoundShedsRetryablyUnderPressure) {
  NetServerOptions options;
  options.max_pending_ops = 2;
  options.worker_threads = 1;
  StartNet(options);
  const uint64_t shed_before =
      MetricRegistry::Default().Read("ldapbound_net_ops_shed_total");

  std::atomic<uint64_t> ok{0}, shed{0}, other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&] {
      int fd = Connect(net_->port());
      ASSERT_GE(fd, 0);
      constexpr int kBurst = 32;
      std::string burst;
      for (uint64_t i = 0; i < kBurst; ++i) {
        burst += i % 2 == 0 ? EncodeValidateRequest(i)
                            : EncodeSearchRequest(i, "ou=load", 2,
                                                  "(objectClass=person)");
      }
      ASSERT_TRUE(SendAll(fd, burst));
      std::string buffer;
      for (int i = 0; i < kBurst; ++i) {
        WireResponse response;
        ASSERT_TRUE(ReadResponse(fd, buffer, &response));
        if (response.ok()) {
          ok.fetch_add(1);
        } else if (response.code == WireCode::kOverloaded &&
                   response.retryable && response.op == WireOp::kValidate) {
          shed.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load() + shed.load(), 6u * 32u);
  EXPECT_EQ(other.load(), 0u);
  // Each burst of 16 validates reaches a queue of 2 in one batch.
  EXPECT_GT(shed.load(), 0u);
  EXPECT_GT(ok.load(), 6u * 16u);
  EXPECT_EQ(MetricRegistry::Default().Read("ldapbound_net_ops_shed_total") -
                shed_before,
            shed.load());
}

// Mixed read/write traffic over many connections: wire adds/deletes
// interleave with snapshot searches and validates; afterwards the
// directory holds exactly the seed entries again.
TEST_F(NetServerConcurrencyTest, MixedOpsFromManyConnectionsStayConsistent) {
  StartNet();
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      int fd = Connect(net_->port());
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      std::string buffer;
      WireResponse response;
      auto call = [&](const std::string& frame) -> bool {
        return SendAll(fd, frame) && ReadResponse(fd, buffer, &response);
      };
      for (uint64_t round = 0; round < 20; ++round) {
        std::string uid =
            "w" + std::to_string(c) + "n" + std::to_string(round);
        std::string dn = "uid=" + uid + ",ou=load";
        if (!call(EncodeAddRequest(1, dn, {"top", "person"},
                                   {{"uid", uid}, {"name", uid}})) ||
            !response.ok()) {
          failures.fetch_add(1);
          break;
        }
        if (!call(EncodeSearchRequest(2, "ou=load", 2,
                                      "(uid=" + uid + ")")) ||
            !response.ok() ||
            DecodeSearchResponseBody(response.body)->size() != 1) {
          failures.fetch_add(1);
          break;
        }
        if (!call(EncodeValidateRequest(3)) || !response.ok()) {
          failures.fetch_add(1);
          break;
        }
        if (!call(EncodeDeleteRequest(4, dn)) || !response.ok()) {
          failures.fetch_add(1);
          break;
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_.directory().NumEntries(), 9u);  // seed only
  EXPECT_TRUE(server_.IsLegal());
}

// Snapshot-pinned paged scans racing group-commit writers on a
// two-reactor front end: every scan must observe one consistent
// snapshot — all eight seed persons exactly once, no duplicate or torn
// entries — no matter how many new versions the writers publish between
// its pages, and the cross-reactor completion routing (worker thread ->
// owning reactor's eventfd) must be TSan-clean.
TEST_F(NetServerConcurrencyTest, PagedReadsRaceGroupCommitWriters) {
  namespace fs = std::filesystem;
  std::string wal_dir =
      ::testing::TempDir() + "ldapbound_net_paged_race/wal";
  fs::remove_all(::testing::TempDir() + "ldapbound_net_paged_race");
  fs::create_directories(wal_dir);
  WalOptions wal_options;
  wal_options.group_commit_max_batch = 8;
  wal_options.group_commit_hold_us = 200;
  ASSERT_TRUE(server_.EnableWal(wal_dir, wal_options).ok());

  NetServerOptions options;
  options.reactors = 2;
  StartNet(options);

  std::atomic<bool> writers_done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> scans{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      int fd = Connect(net_->port());
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      std::string buffer;
      uint64_t id = 1;
      while (!writers_done.load() || scans.load() < 3) {
        // One full paged scan; the cursor pins whatever snapshot was
        // current at page one.
        std::set<std::string> dns;
        std::string cookie;
        bool more = true;
        bool aborted = false;
        while (more) {
          WireResponse response;
          if (!SendAll(fd, EncodeSearchEntriesRequest(
                               id++, "ou=load", 2, "(objectClass=person)",
                               3, cookie)) ||
              !ReadResponse(fd, buffer, &response)) {
            failures.fetch_add(1);
            aborted = true;
            break;
          }
          if (!response.ok()) {
            // The only legitimate non-OK is an expired cursor (not
            // expected at this timescale, but it is retryable).
            if (response.code != WireCode::kCursorExpired) {
              failures.fetch_add(1);
            }
            aborted = true;
            break;
          }
          auto page = DecodeSearchEntriesResponseBody(response.body);
          if (!page.ok()) {
            failures.fetch_add(1);
            aborted = true;
            break;
          }
          for (const WireEntry& entry : page->entries) {
            if (!dns.insert(entry.dn).second) failures.fetch_add(1);
            if (entry.classes.size() != 2 || entry.values.size() != 2) {
              failures.fetch_add(1);  // torn payload
            }
          }
          more = page->has_more;
          cookie = page->cookie;
        }
        if (aborted) continue;
        // A consistent snapshot always holds every seed person.
        for (int i = 0; i < 8; ++i) {
          if (dns.count("uid=u" + std::to_string(i) + ",ou=load") != 1) {
            failures.fetch_add(1);
          }
        }
        scans.fetch_add(1);
      }
      ::close(fd);
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      int fd = Connect(net_->port());
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      std::string buffer;
      WireResponse response;
      auto call = [&](const std::string& frame) -> bool {
        return SendAll(fd, frame) && ReadResponse(fd, buffer, &response) &&
               response.ok();
      };
      for (uint64_t round = 0; round < 15; ++round) {
        std::string uid =
            "w" + std::to_string(w) + "n" + std::to_string(round);
        std::string dn = "uid=" + uid + ",ou=load";
        if (!call(EncodeAddRequest(1, dn, {"top", "person"},
                                   {{"uid", uid}, {"name", uid}})) ||
            !call(EncodeDeleteRequest(2, dn))) {
          failures.fetch_add(1);
          break;
        }
      }
      ::close(fd);
    });
  }

  for (std::thread& t : writers) t.join();
  writers_done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(scans.load(), 3u);
  EXPECT_EQ(server_.directory().NumEntries(), 9u);  // seed only
  EXPECT_EQ(net_->reactors(), 2u);
}

// Reads answered on two reactors at once: scans and paged reads on
// connections steered to both reactors, while a group-commit writer adds
// and deletes under the scanned unit and reactor 0's cursor reaper, with
// a 2 ms idle limit, races the cursors the other reactor's reads use. A
// full scan always holds every seed person exactly once; a page may find
// its cursor reaped (retryable), never torn. Clean under TSan.
TEST_F(NetServerConcurrencyTest, InlineReadsOnTwoReactorsRaceWritersAndReaper) {
  namespace fs = std::filesystem;
  const std::string root = ::testing::TempDir() + "ldapbound_net_inline_race";
  fs::remove_all(root);
  fs::create_directories(root + "/wal");
  WalOptions wal_options;
  wal_options.group_commit_max_batch = 4;
  wal_options.group_commit_hold_us = 200;
  ASSERT_TRUE(server_.EnableWal(root + "/wal", wal_options).ok());

  NetServerOptions options;
  options.reactors = 2;
  options.cursor_idle_timeout_ms = 2;
  StartNet(options);
  auto inline_turns = [](int reactor) {
    return MetricRegistry::Default().Read(
        "ldapbound_net_inline_read_ns_count",
        "reactor=\"" + std::to_string(reactor) + "\"");
  };
  auto accepted = [](int reactor) {
    return MetricRegistry::Default().Read(
        "ldapbound_net_connections_total",
        "reactor=\"" + std::to_string(reactor) + "\"");
  };
  const uint64_t inline_before[] = {inline_turns(0), inline_turns(1)};
  const uint64_t accepted_before[] = {accepted(0), accepted(1)};

  // The kernel steers each connection to one reactor; connect until both
  // hold two readers.
  std::vector<int> fds;
  for (int i = 0; i < 64 && (accepted(0) - accepted_before[0] < 2 ||
                             accepted(1) - accepted_before[1] < 2);
       ++i) {
    int fd = Connect(net_->port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    for (int k = 0; k < 100 && accepted(0) + accepted(1) -
                                       accepted_before[0] - accepted_before[1] <
                                   fds.size();
         ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_GE(accepted(0) - accepted_before[0], 2u);
  ASSERT_GE(accepted(1) - accepted_before[1], 2u);

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> full_scans{0};
  std::vector<std::thread> readers;
  for (int fd : fds) {
    readers.emplace_back([&, fd] {
      std::string buffer;
      uint64_t id = 1;
      uint64_t scans = 0;
      while (!writer_done.load() || scans < 3) {
        WireResponse response;
        if (!SendAll(fd, EncodeSearchRequest(id++, "ou=load", 2,
                                             "(objectClass=person)")) ||
            !ReadResponse(fd, buffer, &response) || !response.ok()) {
          failures.fetch_add(1);
          return;
        }
        auto hits = DecodeSearchResponseBody(response.body);
        if (!hits.ok() || hits->size() < 8) failures.fetch_add(1);

        std::set<std::string> dns;
        std::string cookie;
        bool complete = true;
        for (bool more = true; more;) {
          if (!SendAll(fd, EncodeSearchEntriesRequest(
                               id++, "ou=load", 2, "(objectClass=person)", 3,
                               cookie)) ||
              !ReadResponse(fd, buffer, &response)) {
            failures.fetch_add(1);
            return;
          }
          if (response.code == WireCode::kCursorExpired &&
              response.retryable) {
            complete = false;  // reaped between pages: restart
            break;
          }
          auto page = DecodeSearchEntriesResponseBody(response.body);
          if (!response.ok() || !page.ok()) {
            failures.fetch_add(1);
            return;
          }
          for (const WireEntry& entry : page->entries) {
            if (!dns.insert(entry.dn).second) failures.fetch_add(1);
            if (entry.classes.size() != 2 || entry.values.size() != 2) {
              failures.fetch_add(1);  // torn payload
            }
          }
          more = page->has_more;
          cookie = page->cookie;
        }
        ++scans;
        if (!complete) continue;
        for (int i = 0; i < 8; ++i) {
          if (dns.count("uid=u" + std::to_string(i) + ",ou=load") != 1) {
            failures.fetch_add(1);
          }
        }
        full_scans.fetch_add(1);
      }
    });
  }

  std::thread writer([&] {
    int fd = Connect(net_->port());
    if (fd < 0) {
      failures.fetch_add(1);
      writer_done.store(true);
      return;
    }
    std::string buffer;
    WireResponse response;
    auto call = [&](const std::string& frame) {
      return SendAll(fd, frame) && ReadResponse(fd, buffer, &response) &&
             response.ok();
    };
    for (int round = 0; round < 30; ++round) {
      const std::string uid = "w" + std::to_string(round);
      const std::string dn = "uid=" + uid + ",ou=load";
      if (!call(EncodeAddRequest(1, dn, {"top", "person"},
                                 {{"uid", uid}, {"name", uid}})) ||
          !call(EncodeDeleteRequest(2, dn))) {
        failures.fetch_add(1);
        break;
      }
    }
    writer_done.store(true);
    ::close(fd);
  });

  writer.join();
  for (std::thread& t : readers) t.join();
  for (int fd : fds) ::close(fd);
  net_->Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(full_scans.load(), 0u);
  EXPECT_GT(inline_turns(0), inline_before[0]);
  EXPECT_GT(inline_turns(1), inline_before[1]);
  EXPECT_EQ(server_.directory().NumEntries(), 9u);  // seed only
}

// One record per request under load: two clients commit wire adds and
// deletes through a batching WAL — every fourth add refused by the
// schema — while two threads scrape /slowz and /metrics. Every scrape
// answers 200 (/slowz with a balanced body), and the slow-op ring holds
// exactly one record per request, each carrying its wire request id.
TEST_F(NetServerConcurrencyTest, SlowOpRecordsRaceWireWritesAndScrapes) {
  const std::string wal_dir =
      ::testing::TempDir() + "ldapbound_net_slowz_race";
  std::filesystem::remove_all(wal_dir);
  WalOptions wal_options;
  wal_options.group_commit_max_batch = 4;
  ASSERT_TRUE(server_.EnableWal(wal_dir, wal_options).ok());
  server_.EnableSlowOps(/*capacity=*/256);  // room for every record
  StartNet();
  auto monitor = MonitorServer::Start(&server_);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  const uint16_t monitor_port = (*monitor)->port();

  constexpr int kClients = 2;
  constexpr int kRounds = 24;  // every fourth add is refused
  std::atomic<int> failures{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> refused{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int fd = Connect(net_->port());
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      std::string buffer;
      WireResponse response;
      uint64_t id = 1;
      auto call = [&](const std::string& frame) {
        requests.fetch_add(1);
        return SendAll(fd, frame) && ReadResponse(fd, buffer, &response);
      };
      for (int round = 0; round < kRounds; ++round) {
        std::string uid = "c" + std::to_string(c) + "r" + std::to_string(round);
        std::string dn = "uid=" + uid + ",ou=load";
        const bool illegal = round % 4 == 3;  // a person without its name
        std::vector<std::pair<std::string, std::string>> values = {
            {"uid", uid}};
        if (!illegal) values.emplace_back("name", uid);
        if (!call(EncodeAddRequest(id++, dn, {"top", "person"}, values))) {
          failures.fetch_add(1);
          break;
        }
        if (illegal) {
          if (response.ok()) failures.fetch_add(1);
          refused.fetch_add(1);
          continue;
        }
        if (!response.ok() || !call(EncodeDeleteRequest(id++, dn)) ||
            !response.ok()) {
          failures.fetch_add(1);
          break;
        }
      }
      ::close(fd);
    });
  }
  std::atomic<bool> clients_done{false};
  std::atomic<int> scrape_failures{0};
  std::vector<std::thread> scrapers;
  for (std::string path : {"/slowz", "/metrics"}) {
    scrapers.emplace_back([&, path] {
      do {
        std::string response = HttpGet(monitor_port, path);
        size_t body = response.find("\r\n\r\n");
        if (response.find("HTTP/1.1 200 OK") != 0 ||
            body == std::string::npos ||
            (path == "/slowz" &&
             !BalancedJson(std::string_view(response).substr(body + 4)))) {
          scrape_failures.fetch_add(1);
        }
      } while (!clients_done.load());
    });
  }
  for (std::thread& t : clients) t.join();
  clients_done.store(true);
  for (std::thread& t : scrapers) t.join();
  (*monitor)->Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_EQ(refused.load(), static_cast<uint64_t>(kClients * kRounds / 4));
  // A wire record is finished once its response is flushed, a hair after
  // the client read it; wait for the last ones.
  const SlowOpLog& log = *server_.slow_ops();
  for (int i = 0; i < 400 && log.recorded() < requests.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(log.recorded(), requests.load());
  std::vector<SlowOp> ops = log.Snapshot();
  EXPECT_EQ(ops.size(), requests.load());
  uint64_t rejected = 0;
  for (const SlowOp& op : ops) {
    EXPECT_NE(op.wire_request_id, 0u) << op.op << " " << op.target;
    if (op.outcome == "rejected") {
      ++rejected;
      EXPECT_FALSE(op.detail.empty()) << op.target;
    }
  }
  EXPECT_EQ(rejected, refused.load());
  EXPECT_EQ(server_.directory().NumEntries(), 9u);  // seed only
}

// Readers name classes and attributes through the server's one frozen
// vocabulary. Wire adds that name classes and attributes no schema
// defines are refused before they take an id, while wire searches for
// exactly those classes and paged reads resolve and encode names on other
// workers with no lock. A class the schema lacks matches nothing.
TEST_F(NetServerConcurrencyTest, FreshNamesRaceWireSearchesAndPagedReads) {
  NetServerOptions options;
  options.reactors = 2;
  options.worker_threads = 4;
  StartNet(options);
  const size_t ids = server_.directory().IdCapacity();
  const size_t classes = server_.vocab().num_classes();
  const size_t attributes = server_.vocab().num_attributes();

  constexpr int kRounds = 120;
  std::atomic<int> round{0};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    int fd = Connect(net_->port());
    if (fd < 0) {
      failures.fetch_add(1);
      done.store(true);
      return;
    }
    std::string buffer;
    for (int r = 0; r < kRounds; ++r) {
      round.store(r);
      const std::string tag = std::to_string(r);
      WireResponse response;
      if (!SendAll(fd, EncodeAddRequest(
                           r, "uid=fresh" + tag + ",ou=load",
                           {"top", "person", "fresh" + tag},
                           {{"uid", "fresh" + tag},
                            {"name", "fresh " + tag},
                            {"freshattr" + tag, "x"}})) ||
          !ReadResponse(fd, buffer, &response) ||
          response.code != WireCode::kIllegal) {
        failures.fetch_add(1);
      }
    }
    done.store(true);
    ::close(fd);
  });

  std::vector<std::thread> searchers;
  for (int t = 0; t < 2; ++t) {
    searchers.emplace_back([&] {
      int fd = Connect(net_->port());
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      std::string buffer;
      uint64_t id = 1;
      while (!done.load()) {
        // The class being interned right now, and the next one.
        const int r = round.load();
        for (int k : {r, r + 1}) {
          const std::string tag = std::to_string(k);
          for (const std::string& filter :
               {"(objectClass=fresh" + tag + ")", "(freshattr" + tag + "=x)"}) {
            WireResponse response;
            if (!SendAll(fd, EncodeSearchRequest(id++, "ou=load", 2, filter)) ||
                !ReadResponse(fd, buffer, &response) || !response.ok()) {
              failures.fetch_add(1);
              continue;
            }
            auto hits = DecodeSearchResponseBody(response.body);
            if (!hits.ok() || !hits->empty()) failures.fetch_add(1);
          }
        }
      }
      ::close(fd);
    });
  }

  std::thread pager([&] {
    int fd = Connect(net_->port());
    if (fd < 0) {
      failures.fetch_add(1);
      return;
    }
    std::string buffer;
    uint64_t id = 1;
    while (!done.load()) {
      std::string cookie;
      size_t seen = 0;
      for (bool more = true; more;) {
        WireResponse response;
        if (!SendAll(fd, EncodeSearchEntriesRequest(
                             id++, "ou=load", 2, "(objectClass=person)", 3,
                             cookie)) ||
            !ReadResponse(fd, buffer, &response) || !response.ok()) {
          failures.fetch_add(1);
          break;
        }
        auto page = DecodeSearchEntriesResponseBody(response.body);
        if (!page.ok()) {
          failures.fetch_add(1);
          break;
        }
        for (const WireEntry& entry : page->entries) {
          ++seen;
          if (entry.classes != std::vector<std::string>{"top", "person"} ||
              entry.values.size() != 2) {
            failures.fetch_add(1);
          }
        }
        more = page->has_more;
        cookie = page->cookie;
      }
      if (seen != 8) failures.fetch_add(1);  // refused adds never show
    }
    ::close(fd);
  });

  writer.join();
  for (std::thread& t : searchers) t.join();
  pager.join();
  net_->Stop();  // joins the workers before the vocabularies are read

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_.directory().NumEntries(), 9u);  // seed only
  // No vocabulary holds the fresh names, and the refused adds took no id.
  EXPECT_EQ(&server_.vocab(), &server_.directory().vocab());
  EXPECT_EQ(server_.vocab().num_classes(), classes);
  EXPECT_EQ(server_.vocab().num_attributes(), attributes);
  EXPECT_FALSE(server_.vocab().FindClass("fresh0").ok());
  EXPECT_FALSE(server_.vocab().FindAttribute("freshattr0").ok());
  EXPECT_EQ(server_.directory().IdCapacity(), ids);
}

}  // namespace
}  // namespace ldapbound
