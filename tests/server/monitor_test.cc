#include "server/monitor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/directory_server.h"
#include "server/health.h"
#include "server/net_server.h"
#include "server/wire.h"
#include "tests/testing/helpers.h"
#include "util/failpoint.h"
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

EntrySpec PersonSpec(const std::string& name) {
  EntrySpec spec;
  spec.classes = {"person", "top"};
  spec.values = {{"name", name}};
  return spec;
}

/// Blocking HTTP/1.1 GET against 127.0.0.1:port; returns the full raw
/// response (status line, headers, body), or "" on connect failure.
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
  std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
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

std::string Body(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << json;
  }
  EXPECT_EQ(depth, 0) << json;
}

/// A count as /metrics shows it (see MetricRegistry::Read).
uint64_t Metric(const std::string& name, const std::string& labels = "") {
  return MetricRegistry::Default().Read(name, labels);
}

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : server_(DirectoryServer::Create(kSchema).value()) {
    server_.EnableSlowOps(/*capacity=*/8);
    EXPECT_TRUE(server_.Add(Dn("name=alice"), PersonSpec("alice")).ok());
    auto monitor = MonitorServer::Start(&server_);
    EXPECT_TRUE(monitor.ok()) << monitor.status().ToString();
    monitor_ = std::move(*monitor);
  }

  DirectoryServer server_;
  std::unique_ptr<MonitorServer> monitor_;
};

TEST_F(MonitorTest, MetricsServesPrometheusExposition) {
  std::string response = HttpGet(monitor_->port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  std::string body = Body(response);
  EXPECT_NE(body.find("# TYPE ldapbound_server_ops_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("op=\"add\",outcome=\"ok\""), std::string::npos);
}

TEST_F(MonitorTest, HealthzTracksWalFailure) {
  std::string response = HttpGet(monitor_->port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(Body(response), "ok\n");
}

TEST_F(MonitorTest, StatuszSummarizesTheServer) {
  std::string response = HttpGet(monitor_->port(), "/statusz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  std::string body = Body(response);
  ExpectBalancedJson(body);
  EXPECT_NE(body.find("\"schema\":{"), std::string::npos) << body;
  EXPECT_NE(body.find("\"entries\":1"), std::string::npos) << body;
  // Counts are process-wide: the fixture's add is one of them.
  const uint64_t adds = StatuszCount(body, "stats", "adds");
  EXPECT_GE(adds, 1u) << body;
  EXPECT_EQ(adds,
            Metric("ldapbound_server_ops_total", "op=\"add\",outcome=\"ok\""));
  EXPECT_NE(body.find("\"wal\":{\"enabled\":false"), std::string::npos);
  EXPECT_NE(body.find("\"slow_ops\":{\"enabled\":true"), std::string::npos);
}

TEST_F(MonitorTest, SlowzExposesTheRing) {
  std::string body = Body(HttpGet(monitor_->port(), "/slowz"));
  ExpectBalancedJson(body);
  EXPECT_NE(body.find("\"ops\":[{"), std::string::npos) << body;
  EXPECT_NE(body.find("\"op\":\"add\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"spans\":["), std::string::npos) << body;
}

TEST_F(MonitorTest, UnknownPathIs404AndNonGetIs400) {
  EXPECT_NE(HttpGet(monitor_->port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  // ParseRequestPath rejects non-GET; exercised via a GET-less request.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(monitor_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char kPost[] = "POST /metrics HTTP/1.1\r\n\r\n";
  (void)!::write(fd, kPost, sizeof(kPost) - 1);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
}

// HEAD is answered with the same status line and headers as the GET —
// Content-Length included — but no body, per RFC 7231 §4.3.2. It used
// to get a 400.
TEST_F(MonitorTest, HeadGetsHeadersAndNoBody) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(monitor_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char kHead[] = "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  (void)!::write(fd, kHead, sizeof(kHead) - 1);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  // Content-Length still names the GET body ("ok\n"), but nothing
  // follows the header terminator.
  EXPECT_NE(response.find("Content-Length: 3"), std::string::npos)
      << response;
  EXPECT_EQ(Body(response), "") << response;
}

// Regression for the SIGPIPE death: a client that sends a request and
// disconnects before the response is written used to kill the whole
// process (plain write(2), no MSG_NOSIGNAL — the default SIGPIPE action
// is termination, which a gtest cannot catch after the fact; this test
// only passes at all because the monitor now writes with
// send(MSG_NOSIGNAL) and swallows the EPIPE).
TEST_F(MonitorTest, ClientDisconnectBeforeResponseDoesNotKillTheServer) {
  for (int i = 0; i < 16; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(monitor_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const char kGet[] = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
    (void)!::write(fd, kGet, sizeof(kGet) - 1);
    // RST on close (nonzero-linger abort): the monitor's write hits a
    // dead socket as hard as possible.
    struct linger abort_close = {1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close,
                 sizeof(abort_close));
    ::close(fd);
  }
  // Still alive and serving.
  EXPECT_NE(HttpGet(monitor_->port(), "/healthz").find("200 OK"),
            std::string::npos);
}

TEST_F(MonitorTest, StopIsIdempotentAndReleasesThePort) {
  uint16_t port = monitor_->port();
  monitor_->Stop();
  monitor_->Stop();
  EXPECT_EQ(HttpGet(port, "/healthz"), "");
}

TEST_F(MonitorTest, StatuszReportsHealthAndAdmission) {
  std::string body = Body(HttpGet(monitor_->port(), "/statusz"));
  ExpectBalancedJson(body);
  EXPECT_NE(body.find("\"health\":{\"state\":\"healthy\""),
            std::string::npos) << body;
  // No EnableResilience on this server: admission reports itself off.
  EXPECT_NE(body.find("\"admission\":{\"enabled\":false"),
            std::string::npos) << body;
}

/// Blocking wire client for the /statusz-vs-/metrics test: one
/// connection, one request in flight.
class WireConn {
 public:
  explicit WireConn(uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval timeout{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~WireConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Sends one request frame and reads its response.
  Result<WireResponse> Call(const std::string& frame) {
    if (::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
      return Status::Unavailable("send failed");
    }
    for (;;) {
      if (buffer_.size() >= 4) {
        uint32_t len = *WireCursor(std::string_view(buffer_).substr(0, 4))
                            .GetU32();
        if (buffer_.size() >= 4 + static_cast<size_t>(len)) {
          auto response = DecodeResponsePayload(
              std::string_view(buffer_).substr(4, len));
          buffer_.erase(0, 4 + len);
          return response;
        }
      }
      char buf[4096];
      ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) return Status::Unavailable("connection closed");
      buffer_.append(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// The DirectoryServer ops of one kind and outcome, as /metrics shows
/// them.
uint64_t ServerOps(const std::string& op, const std::string& outcome) {
  return Metric("ldapbound_server_ops_total",
                "op=\"" + op + "\",outcome=\"" + outcome + "\"");
}

// Every count /statusz shows is the registry series it names, so the two
// endpoints agree by construction; and each event lands there once. A
// durable, admission-bounded, MVCC server behind a 2-reactor front end
// takes wire adds, a schema-refused wire add, pings, a paged search left
// open, and a library write whose deadline has already expired.
TEST(MonitorStatuszTest, EveryCountEqualsItsMetric) {
  std::string dir = ::testing::TempDir() + "ldapbound_monitor/statusz";
  std::filesystem::remove_all(dir);
  DirectoryServer server = DirectoryServer::Create(kSchema).value();
  WalOptions wal;
  wal.group_commit_max_batch = 4;
  wal.group_commit_hold_us = 0;
  ASSERT_TRUE(server.EnableWal(dir, wal).ok());
  DirectoryServer::ResilienceOptions resilience;
  resilience.admission.max_queue_depth = 16;
  server.EnableResilience(resilience);
  server.EnableSlowOps(/*capacity=*/8);
  NetServerOptions net_options;
  net_options.reactors = 2;
  auto net = NetServer::Start(&server, net_options);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  auto monitor = MonitorServer::Start(&server);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  (*monitor)->SetNetServer(net->get());

  const uint64_t admitted = Metric("ldapbound_admission_admitted_total");
  const uint64_t deadline_shed =
      Metric("ldapbound_admission_rejected_total", "reason=\"deadline\"");
  const uint64_t adds = ServerOps("add", "ok");
  const uint64_t add_rejected = ServerOps("add", "rejected");
  const uint64_t net_ok = Metric("ldapbound_net_ops_total", "outcome=\"ok\"");
  const uint64_t net_rejected =
      Metric("ldapbound_net_ops_total", "outcome=\"rejected\"");
  const uint64_t publishes = Metric("ldapbound_snapshot_publishes_total");

  WireConn client((*net)->port());
  ASSERT_TRUE(client.connected());
  uint64_t id = 1;
  constexpr int kAdds = 3;
  for (int i = 0; i < kAdds; ++i) {
    const std::string name = "w" + std::to_string(i);
    auto added = client.Call(EncodeAddRequest(
        id++, "name=" + name, {"person", "top"}, {{"name", name}}));
    ASSERT_TRUE(added.ok() && added->ok()) << added->message;
  }
  // A person without its required name: admitted, then refused.
  auto refused =
      client.Call(EncodeAddRequest(id++, "name=bad", {"person", "top"}, {}));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->code, WireCode::kIllegal);
  constexpr int kPings = 4;
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(client.Call(EncodePingRequest(id++)).ok());
  }
  auto page = client.Call(
      EncodeSearchEntriesRequest(id++, "", 2, "(objectClass=person)", 1, ""));
  ASSERT_TRUE(page.ok() && page->ok()) << page->message;
  ASSERT_TRUE(DecodeSearchEntriesResponseBody(page->body)->has_more);
  EXPECT_EQ(server.Add(Dn("name=late"), PersonSpec("late"),
                       Deadline::AfterMs(0))
                .code(),
            StatusCode::kDeadlineExceeded);

  // Each event counted once.
  EXPECT_EQ(Metric("ldapbound_admission_admitted_total") - admitted,
            kAdds + 1u);
  EXPECT_EQ(Metric("ldapbound_admission_rejected_total",
                   "reason=\"deadline\"") -
                deadline_shed,
            1u);
  EXPECT_EQ(ServerOps("add", "ok") - adds, uint64_t{kAdds});
  EXPECT_EQ(ServerOps("add", "rejected") - add_rejected, 2u);
  EXPECT_EQ(Metric("ldapbound_net_ops_total", "outcome=\"ok\"") - net_ok,
            kAdds + kPings + 1u);
  EXPECT_EQ(Metric("ldapbound_net_ops_total", "outcome=\"rejected\"") -
                net_rejected,
            1u);
  EXPECT_EQ(Metric("ldapbound_snapshot_publishes_total") - publishes,
            uint64_t{kAdds});

  // ...and /statusz shows exactly what /metrics holds.
  const std::string statusz = (*monitor)->RenderStatusz();
  ExpectBalancedJson(statusz);
  uint64_t rejected_writes = 0;
  for (const char* op :
       {"add", "delete", "apply", "modify", "modify_dn", "import"}) {
    rejected_writes += ServerOps(op, "rejected");
  }
  struct Named {
    const char* section;
    const char* key;
    uint64_t metric;
  };
  const std::vector<Named> counts = {
      {"health", "transitions", Metric("ldapbound_health_transitions_total")},
      {"health", "recovery_attempts",
       Metric("ldapbound_health_recovery_attempts_total")},
      {"health", "recoveries", Metric("ldapbound_health_recoveries_total")},
      {"admission", "admitted", Metric("ldapbound_admission_admitted_total")},
      {"admission", "rejected_overload",
       Metric("ldapbound_admission_rejected_total", "reason=\"overloaded\"")},
      {"admission", "rejected_deadline",
       Metric("ldapbound_admission_rejected_total", "reason=\"deadline\"")},
      {"group_commit", "groups_flushed",
       Metric("ldapbound_wal_group_commits_total")},
      {"group_commit", "commits_flushed",
       Metric("ldapbound_wal_group_commit_batch_size_sum")},
      {"stats", "adds", ServerOps("add", "ok")},
      {"stats", "deletes", ServerOps("delete", "ok")},
      {"stats", "modifies",
       ServerOps("modify", "ok") + ServerOps("modify_dn", "ok")},
      {"stats", "searches", ServerOps("search", "ok")},
      {"stats", "imports", ServerOps("import", "ok")},
      {"stats", "rejected", rejected_writes},
      {"mvcc", "publishes", Metric("ldapbound_snapshot_publishes_total")},
      {"net", "connections_accepted",
       Metric("ldapbound_net_connections_total")},
      {"net", "connections_active", Metric("ldapbound_net_connections_active")},
      {"net", "connections_shed",
       Metric("ldapbound_net_connections_shed_total")},
      {"net", "accept_errors", Metric("ldapbound_net_accept_errors_total")},
      {"net", "ops_shed", Metric("ldapbound_net_ops_shed_total")},
      {"net", "ops_ok", Metric("ldapbound_net_ops_total", "outcome=\"ok\"")},
      {"net", "ops_rejected",
       Metric("ldapbound_net_ops_total", "outcome=\"rejected\"")},
      {"net", "dispatch_queue_depth",
       Metric("ldapbound_net_dispatch_queue_depth")},
      {"net", "frames_in", Metric("ldapbound_net_frames_in_total")},
      {"net", "frames_out", Metric("ldapbound_net_frames_out_total")},
      {"net", "protocol_errors", Metric("ldapbound_net_protocol_errors_total")},
      {"net", "idle_closed", Metric("ldapbound_net_idle_closed_total")},
      {"net", "owed_bytes_at_stop",
       Metric("ldapbound_net_owed_bytes_at_stop_total")},
      {"net", "cursors_open", Metric("ldapbound_net_cursors_open")},
      {"net", "cursors_expired", Metric("ldapbound_net_cursors_expired_total")},
  };
  for (const Named& named : counts) {
    EXPECT_EQ(StatuszCount(statusz, named.section, named.key), named.metric)
        << named.section << "." << named.key << " in " << statusz;
  }
  EXPECT_EQ(StatuszCount(statusz, "net", "reactors"), 2u);
  EXPECT_EQ(StatuszCount(statusz, "net", "connections_active"), 1u);
  EXPECT_EQ(StatuszCount(statusz, "net", "cursors_open"), 1u);

  (*monitor)->SetNetServer(nullptr);
  (*net)->Stop();
}

// A silent client — connects, sends nothing — must not park the single
// accept thread forever: the per-connection SO_RCVTIMEO kicks it out and
// the next scrape is served. Without the timeout this test hangs.
TEST(MonitorTimeoutTest, SilentClientDoesNotStarveTheMonitor) {
  DirectoryServer server = DirectoryServer::Create(kSchema).value();
  MonitorOptions options;
  options.io_timeout_ms = 200;
  auto monitor = MonitorServer::Start(&server, options);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();

  int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*monitor)->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(silent, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);
  // Say nothing. The accept thread is now blocked reading this fd until
  // the receive timeout expires.

  const auto start = std::chrono::steady_clock::now();
  std::string response = HttpGet((*monitor)->port(), "/healthz");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ::close(silent);

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  // Served after roughly one timeout, not after forever (generous bound:
  // the box may be loaded).
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

// /healthz flips to 503 with the state and reason while the health-state
// machine reports the server degraded, and back to 200 after recovery.
TEST(MonitorHealthTest, HealthzReflectsDegradedStateAndRecovery) {
  if (!Failpoints::enabled()) {
    GTEST_SKIP() << "failpoints compiled out (LDAPBOUND_FAILPOINTS=OFF)";
  }
  Failpoints::Reset();
  std::string dir = ::testing::TempDir() + "ldapbound_monitor/healthz";
  std::filesystem::remove_all(dir);
  DirectoryServer server = DirectoryServer::Create(kSchema).value();
  ASSERT_TRUE(server.EnableWal(dir).ok());
  auto monitor = MonitorServer::Start(&server);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();

  Failpoints::Arm("wal.fsync", Failpoints::Action::kError, 1);
  ASSERT_FALSE(server.Add(Dn("name=alice"), PersonSpec("alice")).ok());
  Failpoints::Reset();

  std::string degraded = HttpGet((*monitor)->port(), "/healthz");
  EXPECT_NE(degraded.find("HTTP/1.1 503"), std::string::npos) << degraded;
  EXPECT_NE(Body(degraded).find("degraded"), std::string::npos) << degraded;
  std::string statusz = Body(HttpGet((*monitor)->port(), "/statusz"));
  EXPECT_NE(statusz.find("\"health\":{\"state\":\"degraded\""),
            std::string::npos) << statusz;

  ASSERT_TRUE(server.TryRecoverNow().ok());
  std::string healthy = HttpGet((*monitor)->port(), "/healthz");
  EXPECT_NE(healthy.find("HTTP/1.1 200 OK"), std::string::npos) << healthy;
  // alice was applied in memory before the append failed and rode the
  // resync snapshot into the recovered log — a fresh DN proves
  // writability came back.
  EXPECT_TRUE(server.Add(Dn("name=bob"), PersonSpec("bob")).ok());
}

// End-to-end through the CLI: `ldapbound serve` on the paper's example
// data, scraping the live endpoints while the command loop runs.
TEST(MonitorCliTest, ServeEndToEnd) {
  std::string schema = std::string(LDAPBOUND_DATA_DIR) + "/white-pages.schema";
  std::string ldif = std::string(LDAPBOUND_DATA_DIR) + "/white-pages.ldif";
  std::string out_path = ::testing::TempDir() + "/serve_out.txt";
  std::string command = std::string(LDAPBOUND_CLI_PATH) + " serve " + schema +
                        " " + ldif +
                        " --monitor-port 0 --slow-ops 4 > " + out_path +
                        " 2>/dev/null";
  std::FILE* serve = ::popen(command.c_str(), "w");
  ASSERT_NE(serve, nullptr);

  // The bound port is the first stdout line.
  uint16_t port = 0;
  for (int attempt = 0; attempt < 100 && port == 0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(out_path);
    std::string line;
    if (std::getline(in, line)) {
      size_t colon = line.rfind(':');
      if (colon != std::string::npos) {
        port = static_cast<uint16_t>(std::stoi(line.substr(colon + 1)));
      }
    }
  }
  ASSERT_NE(port, 0) << "serve never printed its monitor port";

  std::fputs("search o=att (objectClass=person)\n", serve);
  std::fflush(serve);

  EXPECT_NE(HttpGet(port, "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(Body(HttpGet(port, "/metrics"))
                .find("ldapbound_server_ops_total"),
            std::string::npos);
  std::string statusz = Body(HttpGet(port, "/statusz"));
  ExpectBalancedJson(statusz);
  EXPECT_NE(statusz.find("\"entries\":6"), std::string::npos) << statusz;
  std::string slowz = Body(HttpGet(port, "/slowz"));
  ExpectBalancedJson(slowz);
  EXPECT_NE(slowz.find("\"op\":\"import\""), std::string::npos) << slowz;

  // The CLI starts a flight recorder by default; its immediate startup
  // sample means /timeseries answers with at least one sample at once,
  // and ?window= selection parses.
  std::string timeseries = Body(HttpGet(port, "/timeseries"));
  ExpectBalancedJson(timeseries);
  EXPECT_NE(timeseries.find("\"interval_ms\":1000"), std::string::npos)
      << timeseries;
  EXPECT_NE(timeseries.find("ldapbound_server_ops_total"), std::string::npos);
  EXPECT_NE(timeseries.find("\"t_ms\":"), std::string::npos);
  std::string windowed = Body(HttpGet(port, "/timeseries?window=60"));
  ExpectBalancedJson(windowed);
  EXPECT_NE(windowed.find("\"samples\":["), std::string::npos);

  std::fputs("quit\n", serve);
  std::fflush(serve);
  EXPECT_EQ(::pclose(serve), 0);

  // The stdin search answered from a pinned snapshot, in preorder.
  std::ifstream in(out_path);
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(out.find("uid=armstrong,ou=attLabs,o=att\n"
                     "uid=laks,ou=databases,ou=attLabs,o=att\n"
                     "uid=suciu,ou=databases,ou=attLabs,o=att\n"
                     "matched 3\n"),
            std::string::npos)
      << out;
}

// Strict flag parsing: numeric serve flags that used to go through
// std::atoi (garbage → 0, negatives → huge sizes) now refuse to start.
TEST(MonitorCliTest, ServeRejectsMalformedNumericFlags) {
  std::string schema = std::string(LDAPBOUND_DATA_DIR) + "/white-pages.schema";
  std::string ldif = std::string(LDAPBOUND_DATA_DIR) + "/white-pages.ldif";
  const char* bad_flags[] = {
      "--monitor-port banana",  "--monitor-port -1",
      "--monitor-port 65536",   "--slow-ops 12x",
      "--group-commit-batch ''", "--max-queue-depth +3",
      "--port 70000",           "--net-workers -2",
  };
  for (const char* flag : bad_flags) {
    std::string command = std::string(LDAPBOUND_CLI_PATH) + " serve " +
                          schema + " " + ldif + " " + flag +
                          " >/dev/null 2>&1";
    int rc = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(rc)) << flag;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << "flag '" << flag
                                  << "' should have been refused";
  }
}

// End-to-end EXPLAIN over both example schemas: every structure-schema
// constraint gets a plan tree with cardinalities and per-node latencies.
TEST(MonitorCliTest, ExplainEndToEnd) {
  for (const char* name : {"white-pages", "den"}) {
    std::string schema =
        std::string(LDAPBOUND_DATA_DIR) + "/" + name + ".schema";
    std::string ldif = std::string(LDAPBOUND_DATA_DIR) + "/" + name + ".ldif";
    std::string command = std::string(LDAPBOUND_CLI_PATH) + " explain " +
                          schema + " " + ldif + " 2>/dev/null";
    std::FILE* pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
    EXPECT_EQ(::pclose(pipe), 0) << out;

    // One "query:" block per structure constraint, each with plan-node
    // cardinalities and latencies.
    size_t constraints = 0;
    for (size_t pos = out.find("query:"); pos != std::string::npos;
         pos = out.find("query:", pos + 1)) {
      ++constraints;
    }
    EXPECT_GT(constraints, 0u) << name;
    EXPECT_NE(out.find("out="), std::string::npos) << out;
    EXPECT_NE(out.find("scanned="), std::string::npos);
    EXPECT_NE(out.find("LEGAL"), std::string::npos);
  }
}

}  // namespace
}  // namespace ldapbound
