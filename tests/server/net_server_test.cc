#include "server/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/directory_server.h"
#include "server/health.h"
#include "server/monitor.h"
#include "server/slow_ops.h"
#include "server/wal.h"
#include "server/wire.h"
#include "tests/testing/helpers.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

using testing::StatuszCount;

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
structure {
  require-class orgUnit
  require person ancestor orgUnit
}
)";

/// A wire count (summed across reactors) or level as /metrics, and so
/// /statusz, shows it. The registry is process-wide and never reset, so
/// counts are asserted as deltas.
uint64_t Net(std::string_view name, std::string_view labels = "") {
  return MetricRegistry::Default().Read(name, labels);
}

DistinguishedName Dn(const std::string& s) {
  return *DistinguishedName::Parse(s);
}

EntrySpec PersonSpec(const std::string& uid) {
  EntrySpec spec;
  spec.classes = {"top", "person"};
  spec.values = {{"uid", uid}, {"name", "user " + uid}};
  return spec;
}

/// Blocking wire client: one connection, synchronous call/response.
class WireClient {
 public:
  /// `rcvbuf` > 0 shrinks the socket's receive buffer (and so the TCP
  /// window the server may fill) before connecting.
  explicit WireClient(uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
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
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  bool Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one complete response frame; empty result = connection closed.
  Result<WireResponse> ReadResponse() {
    for (;;) {
      while (buffer_.size() >= 4) {
        WireCursor header(std::string_view(buffer_).substr(0, 4));
        uint32_t payload_len = *header.GetU32();
        if (buffer_.size() < 4 + static_cast<size_t>(payload_len)) break;
        auto response = DecodeResponsePayload(
            std::string_view(buffer_).substr(4, payload_len));
        buffer_.erase(0, 4 + payload_len);
        return response;
      }
      char buf[4096];
      ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        return Status::Unavailable("connection closed");
      }
      buffer_.append(buf, static_cast<size_t>(n));
    }
  }

  Result<WireResponse> Call(const std::string& frame) {
    if (!Send(frame)) return Status::Unavailable("send failed");
    return ReadResponse();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class NetServerTest : public ::testing::Test {
 protected:
  NetServerTest() : server_(DirectoryServer::Create(kSchema).value()) {
    EXPECT_TRUE(server_.Add(Dn("ou=load"), OrgSpec()).ok());
    EXPECT_TRUE(
        server_.Add(Dn("uid=u0,ou=load"), PersonSpec("u0")).ok());
    EXPECT_TRUE(
        server_.Add(Dn("uid=u1,ou=load"), PersonSpec("u1")).ok());
  }

  static EntrySpec OrgSpec() {
    EntrySpec spec;
    spec.classes = {"top", "orgUnit"};
    spec.values = {{"ou", "load"}};
    return spec;
  }

  /// Imports `ou=<unit>` holding `persons` persons uid=<unit><i>.
  void ImportUnit(const std::string& unit, size_t persons) {
    std::string ldif = "dn: ou=" + unit +
                       "\nobjectClass: top\nobjectClass: orgUnit\nou: " +
                       unit + "\n";
    for (size_t i = 0; i < persons; ++i) {
      const std::string uid = unit + std::to_string(i);
      ldif += "\ndn: uid=" + uid + ",ou=" + unit +
              "\nobjectClass: top\nobjectClass: person\nuid: " + uid +
              "\nname: " + uid + "\n";
    }
    auto imported = server_.ImportLdif(ldif);
    ASSERT_TRUE(imported.ok()) << imported.status().ToString();
    ASSERT_EQ(*imported, persons + 1);
  }

  void StartNet(NetServerOptions options = {}) {
    auto net = NetServer::Start(&server_, options);
    ASSERT_TRUE(net.ok()) << net.status().ToString();
    net_ = std::move(*net);
  }

  DirectoryServer server_;
  std::unique_ptr<NetServer> net_;
};

TEST_F(NetServerTest, PingEchoesTheRequestId) {
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  auto pong = client.Call(EncodePingRequest(42));
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->op, WireOp::kPing);
  EXPECT_EQ(pong->request_id, 42u);
  EXPECT_TRUE(pong->ok());
}

TEST_F(NetServerTest, SearchServesScopedFilteredSnapshotReads) {
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  auto all = client.Call(EncodeSearchRequest(1, "ou=load", 2, ""));
  ASSERT_TRUE(all.ok() && all->ok()) << all->message;
  EXPECT_EQ(DecodeSearchResponseBody(all->body)->size(), 3u);

  auto persons = client.Call(
      EncodeSearchRequest(2, "ou=load", 2, "(objectClass=person)"));
  ASSERT_TRUE(persons.ok() && persons->ok());
  EXPECT_EQ(DecodeSearchResponseBody(persons->body)->size(), 2u);

  auto one = client.Call(EncodeSearchRequest(3, "ou=load", 2, "(uid=u1)"));
  ASSERT_TRUE(one.ok() && one->ok());
  EXPECT_EQ(DecodeSearchResponseBody(one->body)->size(), 1u);

  // Base scope names exactly the base entry.
  auto base = client.Call(EncodeSearchRequest(4, "uid=u0,ou=load", 0, ""));
  ASSERT_TRUE(base.ok() && base->ok());
  EXPECT_EQ(DecodeSearchResponseBody(base->body)->size(), 1u);

  // Unknown attribute matches nothing (LDAP filter semantics, not an
  // error); a base that does not exist is NotFound.
  auto none = client.Call(
      EncodeSearchRequest(5, "ou=load", 2, "(nosuchattr=x)"));
  ASSERT_TRUE(none.ok() && none->ok());
  EXPECT_EQ(DecodeSearchResponseBody(none->body)->size(), 0u);

  auto missing = client.Call(EncodeSearchRequest(6, "ou=nope", 2, ""));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, WireCode::kNotFound);
  EXPECT_FALSE(missing->retryable);
}

TEST_F(NetServerTest, AddAndDeleteCommitAndLaterSnapshotsSeeThem) {
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  auto added = client.Call(EncodeAddRequest(
      1, "uid=w0,ou=load", {"top", "person"},
      {{"uid", "w0"}, {"name", "w zero"}}));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_TRUE(added->ok()) << added->message;

  auto found = client.Call(EncodeSearchRequest(2, "ou=load", 2, "(uid=w0)"));
  ASSERT_TRUE(found.ok() && found->ok());
  EXPECT_EQ(DecodeSearchResponseBody(found->body)->size(), 1u);

  auto removed = client.Call(EncodeDeleteRequest(3, "uid=w0,ou=load"));
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(removed->ok()) << removed->message;

  auto gone = client.Call(EncodeSearchRequest(4, "ou=load", 2, "(uid=w0)"));
  ASSERT_TRUE(gone.ok() && gone->ok());
  EXPECT_EQ(DecodeSearchResponseBody(gone->body)->size(), 0u);
}

TEST_F(NetServerTest, SchemaViolationsComeBackAsIllegalNotRetryable) {
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  // A person at the root violates `require person ancestor orgUnit`.
  auto illegal = client.Call(EncodeAddRequest(
      1, "uid=root", {"top", "person"},
      {{"uid", "root"}, {"name", "r"}}));
  ASSERT_TRUE(illegal.ok());
  EXPECT_EQ(illegal->code, WireCode::kIllegal);
  EXPECT_FALSE(illegal->retryable);
  EXPECT_FALSE(illegal->message.empty());
}

TEST_F(NetServerTest, ValidateChecksTheStructureSnapshot) {
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  auto verdict = client.Call(EncodeValidateRequest(5));
  ASSERT_TRUE(verdict.ok());
  ASSERT_TRUE(verdict->ok()) << verdict->message;
  auto decoded = DecodeValidateResponseBody(verdict->body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->structure_legal);
  EXPECT_EQ(decoded->num_entries, 3u);
}

TEST_F(NetServerTest, PipelinedRequestsAllAnswerWithEchoedIds) {
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  std::string batch = EncodePingRequest(10) +
                      EncodeSearchRequest(11, "ou=load", 2, "") +
                      EncodePingRequest(12);
  ASSERT_TRUE(client.Send(batch));
  // Responses are matched by echoed id, not arrival order: pings answer
  // inline on the reactor while searches run on workers, so a pipelined
  // batch may legitimately come back reordered (the protocol's contract
  // is the id echo, and this batch exercises exactly that).
  std::set<uint64_t> seen;
  for (int i = 0; i < 3; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->ok());
    seen.insert(response->request_id);
  }
  EXPECT_EQ(seen, (std::set<uint64_t>{10, 11, 12}));
}

TEST_F(NetServerTest, StatuszReportsWireConnectionAndShedCounters) {
  StartNet();
  auto monitor = MonitorServer::Start(&server_);
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  (*monitor)->SetNetServer(net_.get());
  const uint64_t accepted = Net("ldapbound_net_connections_total");
  const uint64_t ok = Net("ldapbound_net_ops_total", "outcome=\"ok\"");
  const uint64_t shed = Net("ldapbound_net_connections_shed_total");

  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  auto response = client.Call(EncodeSearchRequest(5, "ou=load", 2, ""));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(Net("ldapbound_net_connections_total"), accepted + 1);
  EXPECT_EQ(Net("ldapbound_net_ops_total", "outcome=\"ok\""), ok + 1);
  EXPECT_EQ(Net("ldapbound_net_connections_shed_total"), shed);

  // /statusz shows the process-wide counts /metrics holds.
  std::string statusz = (*monitor)->RenderStatusz();
  EXPECT_NE(statusz.find("\"net\":{\"enabled\":true"), std::string::npos)
      << statusz;
  EXPECT_EQ(StatuszCount(statusz, "net", "connections_accepted"),
            accepted + 1)
      << statusz;
  EXPECT_EQ(StatuszCount(statusz, "net", "ops_ok"), ok + 1) << statusz;
  EXPECT_EQ(StatuszCount(statusz, "net", "connections_shed"), shed)
      << statusz;
  EXPECT_EQ(StatuszCount(statusz, "net", "dispatch_queue_depth"), 0u)
      << statusz;

  (*monitor)->SetNetServer(nullptr);
  EXPECT_NE((*monitor)->RenderStatusz().find("\"net\":{\"enabled\":false}"),
            std::string::npos);
  (*monitor)->Stop();
}

TEST_F(NetServerTest, MalformedFrameGetsProtocolErrorThenClose) {
  StartNet();
  const uint64_t errors = Net("ldapbound_net_protocol_errors_total");
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  std::string garbage;
  PutU32(garbage, 0xFFFFFFFF);  // declared length far past the cap
  ASSERT_TRUE(client.Send(garbage));
  auto error = client.ReadResponse();
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->code, WireCode::kProtocolError);
  // ...and then the server closes the connection.
  auto eof = client.ReadResponse();
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(Net("ldapbound_net_protocol_errors_total"), errors + 1);
}

TEST_F(NetServerTest, ConnectionLimitShedsWithARetryableFrame) {
  NetServerOptions options;
  options.max_connections = 1;
  StartNet(options);
  const uint64_t shed_before = Net("ldapbound_net_connections_shed_total");
  WireClient first(net_->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.Call(EncodePingRequest(1)).ok());  // fully accepted

  WireClient second(net_->port());
  ASSERT_TRUE(second.connected());  // TCP-accepted, then shed
  auto shed = second.ReadResponse();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->op, WireOp::kShed);
  EXPECT_EQ(shed->code, WireCode::kOverloaded);
  EXPECT_TRUE(shed->retryable);
  EXPECT_FALSE(second.ReadResponse().ok());  // closed after the frame
  EXPECT_GE(Net("ldapbound_net_connections_shed_total") - shed_before, 1u);

  // The accepted connection is unaffected.
  EXPECT_TRUE(first.Call(EncodePingRequest(2)).ok());
}

TEST_F(NetServerTest, DrainingHealthStateShedsNewConnections) {
  StartNet();
  auto* health = const_cast<HealthManager*>(server_.health());
  health->ReportWalFailure(Status::Internal("test fault"));
  // AttemptRecovery holds the state at kDraining while the callback
  // runs — the window in which the reactor must shed at the door.
  bool shed_seen = false;
  Status recovered = health->AttemptRecovery([&]() -> Status {
    EXPECT_EQ(server_.health_state(), HealthState::kDraining);
    WireClient drained(net_->port());
    if (!drained.connected()) return Status::Internal("connect failed");
    auto shed = drained.ReadResponse();
    if (!shed.ok()) return shed.status();
    shed_seen = shed->op == WireOp::kShed && shed->retryable;
    return Status::OK();
  });
  EXPECT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_TRUE(shed_seen);
  // ...and once healthy again, connections are accepted as before.
  WireClient after(net_->port());
  ASSERT_TRUE(after.connected());
  EXPECT_TRUE(after.Call(EncodePingRequest(1)).ok());
}

TEST_F(NetServerTest, IdleConnectionsAreReaped) {
  NetServerOptions options;
  options.idle_timeout_ms = 100;
  StartNet(options);
  const uint64_t idle_before = Net("ldapbound_net_idle_closed_total");
  WireClient idle(net_->port());
  ASSERT_TRUE(idle.connected());
  // Say nothing; the sweep (every epoll timeout) must close us.
  auto eof = idle.ReadResponse();
  EXPECT_FALSE(eof.ok());
  EXPECT_GE(Net("ldapbound_net_idle_closed_total") - idle_before, 1u);
}

TEST_F(NetServerTest, StopDrainsAndReleasesThePort) {
  StartNet();
  uint16_t port = net_->port();
  WireClient client(port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Call(EncodePingRequest(1)).ok());
  net_->Stop();
  net_->Stop();  // idempotent
  EXPECT_FALSE(client.ReadResponse().ok());  // closed by the drain
  net_.reset();
  WireClient late(port);
  // The listen socket is gone: either connect fails outright or the
  // kernel-accepted backlog connection yields EOF immediately.
  if (late.connected()) {
    EXPECT_FALSE(late.ReadResponse().ok());
  }
}

/// Wire requests' records in the slow-op log carry a nonzero
/// wire_request_id; library calls' records do not. Polls because a wire
/// record is finished on the reactor thread a hair after the client
/// reads its response bytes.
std::vector<SlowOp> WaitForWireRecords(const SlowOpLog* log, size_t want) {
  for (int i = 0; i < 200; ++i) {
    std::vector<SlowOp> wire;
    for (SlowOp& op : log->Snapshot()) {
      if (op.wire_request_id != 0) wire.push_back(std::move(op));
    }
    if (wire.size() >= want) return wire;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return {};
}

const Tracer::Event* FindSpan(const SlowOp& op, const std::string& name) {
  for (const Tracer::Event& span : op.spans) {
    if (span.name != nullptr && name == span.name) return &span;
  }
  return nullptr;
}

TEST_F(NetServerTest, DispatchedOpsRecordMonotonicStageBreakdown) {
  server_.EnableSlowOps(/*capacity=*/64, /*min_duration_ns=*/0);
  StartNet();
  const uint64_t ok = Net("ldapbound_net_ops_total", "outcome=\"ok\"");
  auto stage_count = [](const std::string& stage) {
    return Net("ldapbound_wire_stage_ns_count", "stage=\"" + stage + "\"");
  };
  const std::string commit_stages[] = {"lock_wait", "validate", "publish"};
  std::map<std::string, uint64_t> commit_before;
  for (const std::string& stage : commit_stages) {
    commit_before[stage] = stage_count(stage);
  }
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  // A search (answered on the reactor) and one of each dispatched op.
  // Pings answer inline too but carry no record.
  ASSERT_TRUE(client.Call(EncodeSearchRequest(1, "ou=load", 2, "")).ok());
  ASSERT_TRUE(client.Call(EncodeAddRequest(
      2, "uid=s0,ou=load", {"top", "person"},
      {{"uid", "s0"}, {"name", "stage zero"}})).ok());
  ASSERT_TRUE(client.Call(EncodeDeleteRequest(3, "uid=s0,ou=load")).ok());
  ASSERT_TRUE(client.Call(EncodeValidateRequest(4)).ok());

  std::vector<SlowOp> wire = WaitForWireRecords(server_.slow_ops(), 4);
  ASSERT_EQ(wire.size(), 4u);
  std::map<uint64_t, const SlowOp*> by_id;
  for (const SlowOp& op : wire) by_id[op.wire_request_id] = &op;
  ASSERT_EQ(by_id.size(), 4u);
  EXPECT_EQ(by_id.at(1)->op, "wire.search");
  EXPECT_EQ(by_id.at(2)->op, "wire.add");
  EXPECT_EQ(by_id.at(3)->op, "wire.delete");
  EXPECT_EQ(by_id.at(4)->op, "wire.validate");

  for (const auto& [id, op] : by_id) {
    SCOPED_TRACE("request " + std::to_string(id) + " (" + op->op + ")");
    EXPECT_EQ(op->outcome, "ok");
    const Tracer::Event* total = FindSpan(*op, "wire.total");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(op->duration_ns, total->dur_ns);

    // The pipeline stages, in wire order: each span starts no earlier
    // than its predecessor and every span nests inside wire.total. The
    // inline read never enters the dispatch queue.
    const bool inline_read = id == 1;
    std::vector<const char*> pipeline = {"wire.execute", "wire.completion",
                                         "wire.write_back"};
    if (!inline_read) {
      pipeline.insert(pipeline.begin(), {"wire.dispatch", "wire.queue_wait"});
    } else {
      EXPECT_EQ(FindSpan(*op, "wire.dispatch"), nullptr);
      EXPECT_EQ(FindSpan(*op, "wire.queue_wait"), nullptr);
    }
    uint64_t prev_start = 0;
    for (const char* name : pipeline) {
      const Tracer::Event* span = FindSpan(*op, name);
      ASSERT_NE(span, nullptr) << name;
      EXPECT_GE(span->start_ns, prev_start) << name;
      EXPECT_GE(span->start_ns, total->start_ns) << name;
      EXPECT_LE(span->start_ns + span->dur_ns,
                total->start_ns + total->dur_ns)
          << name;
      prev_start = span->start_ns;
    }
    // No WAL on this server, so the durability stamps never fire and
    // the commit_wait span must be absent rather than zero-faked.
    EXPECT_EQ(FindSpan(*op, "wire.commit_wait"), nullptr);
  }

  // The same stage pipeline feeds the per-stage histograms and the
  // reactor instrumentation feeds the ldapbound_net_* families.
  std::string metrics = MetricRegistry::Default().RenderPrometheus();
  EXPECT_NE(metrics.find("ldapbound_wire_stage_ns"), std::string::npos);
  EXPECT_NE(metrics.find("stage=\"execute\""), std::string::npos);
  // The add and the delete each crossed the three commit stages.
  for (const std::string& stage : commit_stages) {
    EXPECT_NE(metrics.find("stage=\"" + stage + "\""), std::string::npos);
    EXPECT_GE(stage_count(stage) - commit_before[stage], 2u) << stage;
  }
  EXPECT_NE(metrics.find("ldapbound_net_epoll_wakeup_events"),
            std::string::npos);
  EXPECT_NE(metrics.find("ldapbound_net_dispatch_queue_depth"),
            std::string::npos);
  EXPECT_NE(metrics.find("ldapbound_net_inline_read_ns"), std::string::npos);
  EXPECT_GE(Net("ldapbound_net_ops_total", "outcome=\"ok\"") - ok, 4u);
}

// A read the reactor's turn cannot cover is stopped and answered by a
// worker: a forest-wide scan over more persons than kInlineReadBudget
// crosses the dispatch queue and returns exactly SnapshotSearch's ids,
// while a unit scan under the budget is answered on the reactor.
TEST_F(NetServerTest, ForestWideScanPastTheBudgetIsAnsweredByAWorker) {
  ImportUnit("big", kInlineReadBudget + 64);
  server_.EnableSlowOps(/*capacity=*/64, /*min_duration_ns=*/0);
  StartNet();
  const uint64_t over = Net("ldapbound_net_reads_over_budget_total");
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  auto forest =
      client.Call(EncodeSearchRequest(1, "", 2, "(objectClass=person)"));
  ASSERT_TRUE(forest.ok() && forest->ok());
  auto ids = DecodeSearchResponseBody(forest->body);
  ASSERT_TRUE(ids.ok());
  PinnedSnapshot snap = server_.PinSnapshot();
  auto want =
      SnapshotSearch(*snap, server_.vocab(), "", 2, "(objectClass=person)");
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(ids->size(), kInlineReadBudget + 64 + 2);
  EXPECT_EQ(*ids, *want);
  EXPECT_EQ(Net("ldapbound_net_reads_over_budget_total") - over, 1u);

  auto unit = client.Call(EncodeSearchRequest(2, "ou=load", 2, ""));
  ASSERT_TRUE(unit.ok() && unit->ok());
  EXPECT_EQ(DecodeSearchResponseBody(unit->body)->size(), 3u);
  EXPECT_EQ(Net("ldapbound_net_reads_over_budget_total") - over, 1u);

  std::vector<SlowOp> wire = WaitForWireRecords(server_.slow_ops(), 2);
  ASSERT_EQ(wire.size(), 2u);
  for (const SlowOp& op : wire) {
    SCOPED_TRACE("request " + std::to_string(op.wire_request_id));
    EXPECT_EQ(op.outcome, "ok");
    EXPECT_NE(FindSpan(op, "wire.execute"), nullptr);
    const bool dispatched = op.wire_request_id == 1;
    EXPECT_EQ(FindSpan(op, "wire.queue_wait") != nullptr, dispatched);
    EXPECT_EQ(FindSpan(op, "wire.dispatch") != nullptr, dispatched);
  }
}

// One turn's budget covers a few unit scans, not a whole pipelined burst:
// of twelve scans that arrive in one read, each visiting 2,001 entries,
// the reactor answers those the budget covers and sends the rest to the
// workers. Every scan is answered in full either way.
TEST_F(NetServerTest, PipelinedBurstPastOneTurnsBudgetGoesToTheWorkers) {
  constexpr size_t kPersons = 2000;
  constexpr uint64_t kScans = 12;
  static_assert(kScans * (kPersons + 1) > 2 * kInlineReadBudget);
  ImportUnit("big", kPersons);
  server_.EnableSlowOps(/*capacity=*/64, /*min_duration_ns=*/0);
  NetServerOptions options;
  options.reactors = 1;
  StartNet(options);
  const uint64_t over = Net("ldapbound_net_reads_over_budget_total");
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  std::string burst;
  for (uint64_t i = 1; i <= kScans; ++i) {
    burst += EncodeSearchRequest(i, "ou=big", 2, "(objectClass=person)");
  }
  ASSERT_TRUE(client.Send(burst));  // one segment: one read, one turn
  std::set<uint64_t> answered;
  for (uint64_t i = 0; i < kScans; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok() && response->ok());
    EXPECT_EQ(DecodeSearchResponseBody(response->body)->size(), kPersons);
    answered.insert(response->request_id);
  }
  EXPECT_EQ(answered.size(), kScans);

  std::vector<SlowOp> wire = WaitForWireRecords(server_.slow_ops(), kScans);
  ASSERT_EQ(wire.size(), kScans);
  uint64_t dispatched = 0;
  for (const SlowOp& op : wire) {
    if (FindSpan(op, "wire.queue_wait") != nullptr) ++dispatched;
  }
  const uint64_t covered = kInlineReadBudget / (kPersons + 1);
  EXPECT_GE(dispatched, kScans - covered);
  EXPECT_LT(dispatched, kScans);
  EXPECT_EQ(Net("ldapbound_net_reads_over_budget_total") - over, dispatched);
}

// A durable wire add is one request with one record: the wire pipeline
// and the commit skeleton's stamps land in the same /slowz entry, which
// the DirectoryServer op annotated with its DN and outcome.
TEST_F(NetServerTest, DurableWireAddIsOneRecordWithCommitStages) {
  const std::string dir = ::testing::TempDir() + "ldapbound_net_one_record";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(server_.EnableWal(dir).ok());  // group-commit batch 1
  server_.EnableSlowOps(/*capacity=*/64, /*min_duration_ns=*/0);
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  auto response = client.Call(EncodeAddRequest(
      7, "uid=d0,ou=load", {"top", "person"},
      {{"uid", "d0"}, {"name", "durable zero"}}));
  ASSERT_TRUE(response.ok() && response->ok()) << response->message;

  std::vector<SlowOp> wire = WaitForWireRecords(server_.slow_ops(), 1);
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(server_.slow_ops()->Snapshot().size(), 1u);
  const SlowOp& op = wire[0];
  EXPECT_EQ(op.wire_request_id, 7u);
  EXPECT_EQ(op.op, "wire.add");
  EXPECT_EQ(op.target, "uid=d0,ou=load");
  EXPECT_EQ(op.outcome, "ok");
  EXPECT_GT(op.op_id, 0u);

  // Lock wait, validation, publish and the durability wait, in stamp
  // order, each inside wire.total.
  const Tracer::Event* total = FindSpan(op, "wire.total");
  ASSERT_NE(total, nullptr);
  uint64_t prev_end = total->start_ns;
  for (const char* name : {"commit.lock_wait", "commit.validate",
                           "commit.publish", "wire.commit_wait"}) {
    const Tracer::Event* span = FindSpan(op, name);
    ASSERT_NE(span, nullptr) << name;
    EXPECT_GE(span->start_ns, prev_end) << name;
    EXPECT_LE(span->start_ns + span->dur_ns,
              total->start_ns + total->dur_ns)
        << name;
    prev_end = span->start_ns + span->dur_ns;
  }
}

// Group-commit writers on two workers post their completions in bursts,
// while the reactor is busy answering a reader's scans inline. No
// completion may wait for the reactor's 250 ms epoll timeout: each
// worker's eventfd signal must wake a reactor turn that drains it. Every
// round ends with all clients waiting, so a lost signal is never rescued
// by later traffic. The retained records are the slowest requests; the
// completion span (execute done to response queued) is the reactor's
// pickup delay alone, whatever the fsyncs cost.
TEST_F(NetServerTest, GroupCommitWritersOnTwoWorkersAreAnsweredPromptly) {
  ImportUnit("big", 1000);
  const std::string dir = ::testing::TempDir() + "ldapbound_net_prompt";
  std::filesystem::remove_all(dir);
  WalOptions wal_options;
  wal_options.group_commit_max_batch = 8;
  wal_options.group_commit_hold_us = 200;
  ASSERT_TRUE(server_.EnableWal(dir, wal_options).ok());
  server_.EnableSlowOps(/*capacity=*/32, /*min_duration_ns=*/0);
  NetServerOptions options;
  options.reactors = 1;
  options.worker_threads = 2;
  StartNet(options);

  constexpr int kWriters = 4;
  constexpr int kRounds = 100;
  constexpr int kScans = 4;  // one round's inline work: about 4,000 entries
  std::barrier round(kWriters + 1);
  std::vector<int> failures(kWriters + 1, 0);
  std::vector<std::thread> clients;
  for (int w = 0; w < kWriters; ++w) {
    clients.emplace_back([&, w] {
      WireClient client(net_->port());
      for (int r = 0; r < kRounds; ++r) {
        round.arrive_and_wait();
        const std::string uid = "p" + std::to_string(w) + "r" +
                                std::to_string(r / 2);
        const std::string dn = "uid=" + uid + ",ou=load";
        auto done = client.Call(
            r % 2 == 0 ? EncodeAddRequest(1, dn, {"top", "person"},
                                          {{"uid", uid}, {"name", uid}})
                       : EncodeDeleteRequest(2, dn));
        if (!done.ok() || !done->ok()) ++failures[w];
      }
    });
  }
  clients.emplace_back([&] {
    WireClient client(net_->port());
    std::string burst;
    for (int i = 0; i < kScans; ++i) {
      burst += EncodeSearchRequest(i, "ou=big", 2, "");
    }
    for (int r = 0; r < kRounds; ++r) {
      round.arrive_and_wait();
      if (!client.Send(burst)) ++failures[kWriters];
      for (int i = 0; i < kScans; ++i) {
        auto scan = client.ReadResponse();
        if (!scan.ok() || !scan->ok()) ++failures[kWriters];
      }
    }
  });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(std::count(failures.begin(), failures.end(), 0), kWriters + 1);

  std::vector<SlowOp> wire = WaitForWireRecords(server_.slow_ops(), 32);
  ASSERT_EQ(wire.size(), 32u);
  for (const SlowOp& op : wire) {
    const Tracer::Event* completion = FindSpan(op, "wire.completion");
    ASSERT_NE(completion, nullptr) << op.op;
    EXPECT_LT(completion->dur_ns, 100'000'000u)
        << op.op << " " << op.target << " waited "
        << completion->dur_ns / 1000 << " us for the reactor";
  }
}

// A schema-refused wire add: its one record carries the request id and
// what the DirectoryServer op knew — the DN and the refusal.
TEST_F(NetServerTest, RefusedWireAddIsOneRecordWithDnAndDetail) {
  server_.EnableSlowOps(/*capacity=*/64, /*min_duration_ns=*/0);
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  // A person without its required name.
  auto response = client.Call(EncodeAddRequest(
      8, "uid=r0,ou=load", {"top", "person"}, {{"uid", "r0"}}));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok());

  std::vector<SlowOp> wire = WaitForWireRecords(server_.slow_ops(), 1);
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(server_.slow_ops()->Snapshot().size(), 1u);
  const SlowOp& op = wire[0];
  EXPECT_EQ(op.wire_request_id, 8u);
  EXPECT_EQ(op.op, "wire.add");
  EXPECT_EQ(op.target, "uid=r0,ou=load");
  EXPECT_EQ(op.outcome, "rejected");
  EXPECT_FALSE(op.detail.empty());
  // Refused inside the body: the lock was taken and the body undone,
  // nothing was published or logged.
  EXPECT_NE(FindSpan(op, "commit.validate"), nullptr);
  EXPECT_EQ(FindSpan(op, "commit.publish"), nullptr);
  std::string json = server_.slow_ops()->RenderJson();
  EXPECT_NE(json.find("\"request_id\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"detail\":"), std::string::npos) << json;
}

// A wire add naming a class or an attribute the schema lacks is refused
// before it takes an id, as a content refusal is: kIllegal, not
// retryable, counted as a rejected add, its message naming the DN and the
// name, its record's explain the content pass's line; the server's one
// vocabulary, its id space and its open deltas stay as they were.
TEST_F(NetServerTest, FreshNameWireAddsAreRefusedAndKeepNothing) {
  server_.EnableSlowOps(/*capacity=*/64, /*min_duration_ns=*/0);
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  const Directory& directory = server_.directory();
  const size_t classes = server_.vocab().num_classes();
  const size_t attributes = server_.vocab().num_attributes();
  const size_t ids = directory.IdCapacity();
  const size_t keys = directory.UnpublishedKeys();
  const uint64_t rejected = Net("ldapbound_server_ops_total",
                                "op=\"add\",outcome=\"rejected\"");

  auto fresh_class = client.Call(EncodeAddRequest(
      1, "uid=x,ou=load", {"top", "person", "gadget"},
      {{"uid", "x"}, {"name", "x"}}));
  auto fresh_attribute = client.Call(EncodeAddRequest(
      2, "uid=x,ou=load", {"top", "person"},
      {{"uid", "x"}, {"name", "x"}, {"shoeSize", "42"}}));
  for (const auto& [response, words] :
       {std::pair{&fresh_class, "class 'gadget' is not part of the schema"},
        std::pair{&fresh_attribute, "attribute 'shoeSize' is not allowed by "
                                    "any of the entry's classes"}}) {
    ASSERT_TRUE(response->ok());
    const WireResponse& refused = **response;
    EXPECT_EQ(refused.code, WireCode::kIllegal);
    EXPECT_FALSE(refused.retryable);
    EXPECT_NE(refused.message.find("'uid=x,ou=load'"), std::string::npos)
        << refused.message;
    EXPECT_NE(refused.message.find(words), std::string::npos)
        << refused.message;
  }
  EXPECT_EQ(Net("ldapbound_server_ops_total",
                "op=\"add\",outcome=\"rejected\""),
            rejected + 2);
  std::map<uint64_t, std::string> explains;
  for (const SlowOp& op : WaitForWireRecords(server_.slow_ops(), 2)) {
    EXPECT_EQ(op.op, "wire.add");
    EXPECT_EQ(op.outcome, "rejected");
    explains[op.wire_request_id] = op.explain;
  }
  EXPECT_EQ(explains[1], "content pass: class schema");
  EXPECT_EQ(explains[2], "content pass: attribute schema");

  net_->Stop();  // joins the workers before the directory is read
  EXPECT_EQ(&server_.vocab(), &directory.vocab());
  EXPECT_EQ(server_.vocab().num_classes(), classes);
  EXPECT_EQ(server_.vocab().num_attributes(), attributes);
  EXPECT_EQ(directory.IdCapacity(), ids);
  EXPECT_EQ(directory.UnpublishedKeys(), keys);
}

// Pings answer inline on the reactor; they count as ok on /metrics, which
// /statusz reads, like the requests the workers execute.
TEST_F(NetServerTest, InlinePingsCountInStatsAndMetrics) {
  StartNet();
  const uint64_t before = Net("ldapbound_net_ops_total", "outcome=\"ok\"");
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  constexpr uint64_t kPings = 10;
  for (uint64_t i = 1; i <= kPings; ++i) {
    ASSERT_TRUE(client.Call(EncodePingRequest(i)).ok());
  }
  EXPECT_EQ(Net("ldapbound_net_ops_total", "outcome=\"ok\"") - before,
            kPings);
}

TEST_F(NetServerTest, SearchEntriesReturnsFullPayloadsWithDns) {
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  auto response = client.Call(
      EncodeSearchEntriesRequest(1, "ou=load", 2, "(uid=u0)", 10, ""));
  ASSERT_TRUE(response.ok() && response->ok()) << response->message;
  EXPECT_EQ(response->op, WireOp::kSearchEntries);
  auto page = DecodeSearchEntriesResponseBody(response->body);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_FALSE(page->has_more);
  EXPECT_TRUE(page->cookie.empty());
  ASSERT_EQ(page->entries.size(), 1u);

  const WireEntry& entry = page->entries[0];
  EXPECT_EQ(entry.dn, "uid=u0,ou=load");
  EXPECT_EQ(entry.classes,
            (std::vector<std::string>{"top", "person"}));
  std::map<std::string, std::string> values(entry.values.begin(),
                                            entry.values.end());
  EXPECT_EQ(values.at("uid"), "u0");
  EXPECT_EQ(values.at("name"), "user u0");

  // A single-page scan never opens a server-side cursor.
  EXPECT_EQ(Net("ldapbound_net_cursors_open"), 0u);
}

TEST_F(NetServerTest, SearchEntriesPaginatesEveryEntryExactlyOnce) {
  for (int i = 2; i < 6; ++i) {
    ASSERT_TRUE(server_
                    .Add(Dn("uid=u" + std::to_string(i) + ",ou=load"),
                         PersonSpec("u" + std::to_string(i)))
                    .ok());
  }
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  // Six persons, page size two: three pages, stable preorder, each uid
  // exactly once, cookie non-empty exactly while has_more.
  std::vector<std::string> uids;
  std::string cookie;
  uint64_t id = 1;
  for (int pages = 0;; ++pages) {
    ASSERT_LT(pages, 10) << "pagination never terminated";
    auto response = client.Call(EncodeSearchEntriesRequest(
        id++, "ou=load", 2, "(objectClass=person)", 2, cookie));
    ASSERT_TRUE(response.ok() && response->ok()) << response->message;
    auto page = DecodeSearchEntriesResponseBody(response->body);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    for (const WireEntry& entry : page->entries) {
      std::map<std::string, std::string> values(entry.values.begin(),
                                                entry.values.end());
      uids.push_back(values.at("uid"));
    }
    EXPECT_EQ(page->cookie.empty(), !page->has_more);
    if (!page->has_more) break;
    EXPECT_EQ(page->entries.size(), 2u);
    EXPECT_EQ(Net("ldapbound_net_cursors_open"), 1u);
    cookie = page->cookie;
  }
  EXPECT_EQ(uids, (std::vector<std::string>{"u0", "u1", "u2", "u3", "u4",
                                            "u5"}));
  // The exhausted scan released its cursor.
  EXPECT_EQ(Net("ldapbound_net_cursors_open"), 0u);
}

TEST_F(NetServerTest, SearchEntriesPagesStayOnThePinnedSnapshot) {
  ASSERT_TRUE(server_.Add(Dn("uid=u2,ou=load"), PersonSpec("u2")).ok());
  ASSERT_TRUE(server_.Add(Dn("uid=u3,ou=load"), PersonSpec("u3")).ok());
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  // Open the scan (four persons, page size two -> page one pins).
  auto first = client.Call(EncodeSearchEntriesRequest(
      1, "ou=load", 2, "(objectClass=person)", 2, ""));
  ASSERT_TRUE(first.ok() && first->ok());
  auto page1 = DecodeSearchEntriesResponseBody(first->body);
  ASSERT_TRUE(page1.ok());
  ASSERT_TRUE(page1->has_more);

  // A writer lands between pages and publishes a newer snapshot.
  auto added = client.Call(EncodeAddRequest(
      2, "uid=zz,ou=load", {"top", "person"},
      {{"uid", "zz"}, {"name", "user zz"}}));
  ASSERT_TRUE(added.ok() && added->ok()) << added->message;

  // The continuation still scans the snapshot the cursor pinned: the
  // new entry is invisible to this scan...
  std::set<std::string> scanned;
  std::string cookie = page1->cookie;
  for (uint64_t id = 3; !cookie.empty(); ++id) {
    auto response = client.Call(EncodeSearchEntriesRequest(
        id, "ou=load", 2, "(objectClass=person)", 2, cookie));
    ASSERT_TRUE(response.ok() && response->ok());
    auto page = DecodeSearchEntriesResponseBody(response->body);
    ASSERT_TRUE(page.ok());
    for (const WireEntry& entry : page->entries) scanned.insert(entry.dn);
    cookie = page->cookie;
  }
  EXPECT_EQ(scanned.count("uid=zz,ou=load"), 0u);
  EXPECT_EQ(scanned,
            (std::set<std::string>{"uid=u2,ou=load", "uid=u3,ou=load"}));

  // ...while a fresh scan pins the newer snapshot and sees it.
  auto fresh = client.Call(EncodeSearchEntriesRequest(
      99, "ou=load", 2, "(objectClass=person)", 100, ""));
  ASSERT_TRUE(fresh.ok() && fresh->ok());
  auto all = DecodeSearchEntriesResponseBody(fresh->body);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->entries.size(), 5u);
}

TEST_F(NetServerTest, IdleCursorsAreReapedAndExpireRetryably) {
  ASSERT_TRUE(server_.Add(Dn("uid=u2,ou=load"), PersonSpec("u2")).ok());
  NetServerOptions options;
  options.cursor_idle_timeout_ms = 50;
  StartNet(options);
  const uint64_t expired = Net("ldapbound_net_cursors_expired_total");
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  auto first = client.Call(EncodeSearchEntriesRequest(
      1, "ou=load", 2, "(objectClass=person)", 1, ""));
  ASSERT_TRUE(first.ok() && first->ok());
  auto page1 = DecodeSearchEntriesResponseBody(first->body);
  ASSERT_TRUE(page1.ok());
  ASSERT_TRUE(page1->has_more);

  // Outlive the idle timeout plus a couple of reactor maintenance ticks
  // (the reaper runs on reactor 0's 250 ms epoll timeout).
  std::this_thread::sleep_for(std::chrono::milliseconds(700));

  auto stale = client.Call(EncodeSearchEntriesRequest(
      2, "ou=load", 2, "(objectClass=person)", 1, page1->cookie));
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale->code, WireCode::kCursorExpired);
  EXPECT_TRUE(stale->retryable);
  EXPECT_GE(Net("ldapbound_net_cursors_expired_total") - expired, 1u);
  EXPECT_EQ(Net("ldapbound_net_cursors_open"), 0u);

  // The connection survives: an expired cursor is the client's cue to
  // restart the scan, not a protocol violation.
  auto retry = client.Call(EncodeSearchEntriesRequest(
      3, "ou=load", 2, "(objectClass=person)", 100, ""));
  ASSERT_TRUE(retry.ok() && retry->ok());
  EXPECT_EQ(DecodeSearchEntriesResponseBody(retry->body)->entries.size(),
            3u);
}

TEST_F(NetServerTest, MalformedCookieIsAProtocolErrorAndCloses) {
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  auto response = client.Call(EncodeSearchEntriesRequest(
      1, "ou=load", 2, "", 10, "not-a-cookie"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, WireCode::kProtocolError);
  EXPECT_FALSE(response->retryable);

  // The server closes after flushing the error frame.
  auto after = client.Call(EncodePingRequest(2));
  EXPECT_FALSE(after.ok());
}

TEST_F(NetServerTest, ZeroPageSizeIsInvalid) {
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  auto response =
      client.Call(EncodeSearchEntriesRequest(1, "ou=load", 2, "", 0, ""));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, WireCode::kInvalidArgument);
  // Plain bad argument, not a framing violation: the connection lives.
  auto pong = client.Call(EncodePingRequest(2));
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok());
}

TEST_F(NetServerTest, MultiReactorFrontEndServesEveryConnection) {
  NetServerOptions options;
  options.reactors = 2;
  StartNet(options);
  EXPECT_EQ(net_->reactors(), 2u);
  const uint64_t accepted = Net("ldapbound_net_connections_total");

  // A handful of connections; SO_REUSEPORT steers each to one of the
  // two reactors and every one must serve reads and paged scans.
  std::vector<std::unique_ptr<WireClient>> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(std::make_unique<WireClient>(net_->port()));
    ASSERT_TRUE(clients.back()->connected()) << "client " << i;
  }
  uint64_t id = 1;
  for (auto& client : clients) {
    auto pong = client->Call(EncodePingRequest(id++));
    ASSERT_TRUE(pong.ok() && pong->ok());
    auto search = client->Call(EncodeSearchEntriesRequest(
        id++, "ou=load", 2, "(objectClass=person)", 10, ""));
    ASSERT_TRUE(search.ok() && search->ok()) << search->message;
    EXPECT_EQ(
        DecodeSearchEntriesResponseBody(search->body)->entries.size(), 2u);
  }
  EXPECT_GE(Net("ldapbound_net_connections_total") - accepted, 6u);

  // The per-reactor metric families carry the reactor label.
  std::string metrics = MetricRegistry::Default().RenderPrometheus();
  EXPECT_NE(metrics.find("ldapbound_net_accept_errors_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("reactor=\"1\""), std::string::npos);
}

TEST_F(NetServerTest, CleanStopOwesNoBytesAndHonorsDrainGrace) {
  NetServerOptions options;
  options.drain_grace_ms = 100;
  StartNet(options);
  const uint64_t owed = Net("ldapbound_net_owed_bytes_at_stop_total");
  uint16_t port = net_->port();
  {
    WireClient client(port);
    ASSERT_TRUE(client.connected());
    auto pong = client.Call(EncodePingRequest(1));
    ASSERT_TRUE(pong.ok() && pong->ok());
  }
  auto started = std::chrono::steady_clock::now();
  net_->Stop();
  auto elapsed = std::chrono::steady_clock::now() - started;
  // Nothing was in flight, so the drain must not eat the full grace.
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000));
  EXPECT_EQ(Net("ldapbound_net_owed_bytes_at_stop_total"), owed);
}

// A response backlog that drains while the client goes quiet must leave
// the reactor idle. EPOLLOUT is level-triggered: left armed on a socket
// that is writable again, it ends every epoll_wait at once, and the
// reactor spins a whole CPU until the client sends again.
TEST_F(NetServerTest, DrainedBacklogLeavesTheReactorIdle) {
  for (int i = 2; i < 3000; ++i) {
    const std::string uid = "u" + std::to_string(i);
    ASSERT_TRUE(server_.Add(Dn("uid=" + uid + ",ou=load"), PersonSpec(uid))
                    .ok());
  }
  NetServerOptions options;
  options.reactors = 1;
  StartNet(options);
  // A 4 KB receive window against ~24 KB answers: the server's sends
  // hit EAGAIN and the connection waits on EPOLLOUT.
  WireClient client(net_->port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(client.connected());
  constexpr int kSearches = 400;
  std::string batch;
  for (int i = 0; i < kSearches; ++i) {
    batch += EncodeSearchRequest(i, "ou=load", 2, "(objectClass=person)");
  }
  ASSERT_TRUE(client.Send(batch));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int i = 0; i < kSearches; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << response->message;
  }
  // Every answer is read, so the backlog is gone; the client now idles.
  const uint64_t before = Net("ldapbound_net_epoll_wakeup_events_count");
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_LT(Net("ldapbound_net_epoll_wakeup_events_count") - before, 10u);
}

// A client that pipelines and never reads stalls in its own sends once
// its connection holds a cap of unsent responses (the server stops
// reading it), instead of growing the server without bound. The
// connection's high-watermark stays under the cap plus the responses to
// one read budget of requests; once the client reads, every request is
// answered exactly once.
TEST_F(NetServerTest, NeverReadingClientStallsInsteadOfGrowingTheServer) {
  NetServerOptions options;
  options.reactors = 1;
  StartNet(options);
  // Small buffers on the client's side keep the stall near the server's
  // cap instead of behind megabytes of kernel buffering.
  WireClient client(net_->port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(client.connected());
  int sndbuf = 4096;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  const uint64_t closed_before = Net("ldapbound_net_conn_out_hwm_bytes_count");
  const uint64_t hwm_before = Net("ldapbound_net_conn_out_hwm_bytes_sum");

  // Far more pings than the socket buffers on both sides can hold.
  constexpr uint64_t kMaxPings = 1000000;
  constexpr uint64_t kBatch = 4096;
  uint64_t queued = 0;  // pings encoded; all of them are sent eventually
  std::string pending;
  bool stalled = false;
  while (!stalled && (queued < kMaxPings || !pending.empty())) {
    if (pending.empty()) {
      for (uint64_t i = 0; i < kBatch; ++i) {
        pending += EncodePingRequest(queued++);
      }
    }
    ssize_t n = ::send(client.fd(), pending.data(), pending.size(),
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      pending.erase(0, static_cast<size_t>(n));
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
        << std::strerror(errno);
    pollfd writable{client.fd(), POLLOUT, 0};
    stalled = ::poll(&writable, 1, /*timeout_ms=*/300) == 0;
  }
  EXPECT_TRUE(stalled) << "sent " << queued << " pings without a stall";

  // Read every answer while the rest of the last batch goes out.
  std::vector<int> answered(queued, 0);
  std::thread reader([&] {
    for (uint64_t i = 0; i < queued; ++i) {
      auto response = client.ReadResponse();
      if (!response.ok()) return;
      if (response->request_id < queued) ++answered[response->request_id];
    }
  });
  ASSERT_TRUE(client.Send(pending));
  reader.join();
  EXPECT_EQ(std::count(answered.begin(), answered.end(), 1),
            static_cast<std::ptrdiff_t>(queued));

  // The watermark is observed when the connection closes.
  ::shutdown(client.fd(), SHUT_RDWR);
  for (int i = 0; i < 200 && Net("ldapbound_net_conn_out_hwm_bytes_count") ==
                                 closed_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(Net("ldapbound_net_conn_out_hwm_bytes_count"), closed_before + 1);
  WireResponse pong;
  pong.op = WireOp::kPing;
  const uint64_t response_bytes = EncodeResponseFrame(pong).size();
  const uint64_t request_bytes = EncodePingRequest(0).size();
  constexpr uint64_t kCap = 256 * 1024;  // unsent bytes = the read budget
  const uint64_t one_read = (kCap + request_bytes) / request_bytes;
  EXPECT_LE(Net("ldapbound_net_conn_out_hwm_bytes_sum") - hwm_before,
            kCap + one_read * response_bytes);
}

// A client that pipelines scans and never reads: the reactor answers
// scans only while the connection's unsent bytes are under the cap, and
// dispatches the rest, which the queue bound sheds. So the connection's
// high-watermark stays under the bound it had when every read was
// dispatched: the cap, one read budget of small answers (sheds), and one
// scan answer per queue slot and worker — plus the one inline answer that
// crosses the cap. Once the client reads, every scan is answered once.
// The bound is the worst case, not the typical figure: how many requests
// one read brings is up to the kernel's socket buffers, and on a 4-vCPU
// Linux 6.18 host a run reads 316-368 KB against the bound's 711 KB
// (342-352 KB when every scan was dispatched: inline answers fill the gap
// to the cap before the last read's sheds land on top). It catches a
// reactor that answers past the cap without limit (one with no turn
// budget and no cap check reads about 5 MB), not a doubling.
TEST_F(NetServerTest, NeverReadingScanClientKeepsTheDispatchedBound) {
  constexpr size_t kPersons = 200;
  ImportUnit("big", kPersons);
  NetServerOptions options;
  options.reactors = 1;
  options.max_pending_ops = 8;
  options.worker_threads = 2;
  StartNet(options);
  WireClient client(net_->port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(client.connected());
  int sndbuf = 4096;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  const uint64_t closed_before = Net("ldapbound_net_conn_out_hwm_bytes_count");
  const uint64_t hwm_before = Net("ldapbound_net_conn_out_hwm_bytes_sum");

  constexpr uint64_t kMaxScans = 200000;
  constexpr uint64_t kBatch = 1024;
  uint64_t queued = 0;
  std::string pending;
  bool stalled = false;
  while (!stalled && (queued < kMaxScans || !pending.empty())) {
    if (pending.empty()) {
      for (uint64_t i = 0; i < kBatch; ++i) {
        pending += EncodeSearchRequest(queued++, "ou=big", 2,
                                       "(objectClass=person)");
      }
    }
    ssize_t n = ::send(client.fd(), pending.data(), pending.size(),
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      pending.erase(0, static_cast<size_t>(n));
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
        << std::strerror(errno);
    pollfd writable{client.fd(), POLLOUT, 0};
    stalled = ::poll(&writable, 1, /*timeout_ms=*/300) == 0;
  }
  EXPECT_TRUE(stalled) << "sent " << queued << " scans without a stall";

  std::vector<int> answered(queued, 0);
  uint64_t scan_bytes = 0;
  uint64_t shed_bytes = 0;
  uint64_t shed = 0;
  std::thread reader([&] {
    for (uint64_t i = 0; i < queued; ++i) {
      auto response = client.ReadResponse();
      if (!response.ok()) return;
      if (response->request_id < queued) ++answered[response->request_id];
      const uint64_t bytes = EncodeResponseFrame(*response).size();
      if (response->ok()) {
        scan_bytes = std::max(scan_bytes, bytes);
      } else if (response->code == WireCode::kOverloaded &&
                 response->retryable) {
        shed_bytes = std::max(shed_bytes, bytes);
        ++shed;
      }
    }
  });
  ASSERT_TRUE(client.Send(pending));
  reader.join();
  EXPECT_EQ(std::count(answered.begin(), answered.end(), 1),
            static_cast<std::ptrdiff_t>(queued));
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(scan_bytes, EncodeResponseFrame([] {
                          WireResponse ok;
                          ok.body.resize(4 + 8 * kPersons);
                          return ok;
                        }()).size());

  ::shutdown(client.fd(), SHUT_RDWR);
  for (int i = 0; i < 200 && Net("ldapbound_net_conn_out_hwm_bytes_count") ==
                                 closed_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(Net("ldapbound_net_conn_out_hwm_bytes_count"), closed_before + 1);
  constexpr uint64_t kCap = 256 * 1024;  // unsent bytes = the read budget
  const uint64_t request_bytes =
      EncodeSearchRequest(0, "ou=big", 2, "(objectClass=person)").size();
  const uint64_t one_read = (kCap + request_bytes) / request_bytes;
  const uint64_t in_flight =
      options.max_pending_ops + options.worker_threads + 1;
  EXPECT_LE(Net("ldapbound_net_conn_out_hwm_bytes_sum") - hwm_before,
            kCap + one_read * shed_bytes + in_flight * scan_bytes);}

// The page encoder writes each entry from its pinned content at read
// time. A full paged scan of the forest decodes to exactly what the head
// holds, entry by entry: the DN, the class names in id order and each
// value's text in (attribute id, value) order, edited entries included.
TEST_F(NetServerTest, SearchEntriesEncodesEveryEntryAsTheHeadHoldsIt) {
  for (int i = 2; i < 9; ++i) {
    const std::string uid = "u" + std::to_string(i);
    ASSERT_TRUE(
        server_.Add(Dn("uid=" + uid + ",ou=load"), PersonSpec(uid)).ok());
  }
  Modification second_name;
  second_name.kind = Modification::Kind::kAddValue;
  second_name.attr = *server_.vocab().FindAttribute("name");
  second_name.value = Value("a second name");
  ASSERT_TRUE(server_.Modify(Dn("uid=u3,ou=load"), {second_name}).ok());
  ASSERT_TRUE(
      server_.ModifyDn(Dn("uid=u4,ou=load"), Dn("ou=load"), "uid=u4b").ok());
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());

  const Directory& head = server_.directory();
  const Vocabulary& vocab = server_.vocab();
  size_t seen = 0;
  std::string cookie;
  uint64_t id = 1;
  for (int pages = 0;; ++pages) {
    ASSERT_LT(pages, 20) << "pagination never terminated";
    auto response = client.Call(
        EncodeSearchEntriesRequest(id++, "", 2, "", 3, cookie));
    ASSERT_TRUE(response.ok() && response->ok()) << response->message;
    auto page = DecodeSearchEntriesResponseBody(response->body);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    for (const WireEntry& got : page->entries) {
      ++seen;
      ASSERT_TRUE(head.IsAlive(got.id));
      const Entry& e = head.entry(got.id);
      std::string dn = e.rdn();
      for (EntryId p = e.parent(); p != kInvalidEntryId;
           p = head.entry(p).parent()) {
        dn += "," + head.entry(p).rdn();
      }
      EXPECT_EQ(got.dn, dn);
      std::vector<std::string> classes;
      for (ClassId c : e.classes()) classes.push_back(vocab.ClassName(c));
      EXPECT_EQ(got.classes, classes) << dn;
      std::vector<std::pair<std::string, std::string>> values;
      for (const AttributeValue& av : e.values()) {
        values.emplace_back(vocab.AttributeName(av.attribute),
                            av.value.ToString());
      }
      EXPECT_EQ(got.values, values) << dn;
    }
    if (!page->has_more) break;
    cookie = page->cookie;
  }
  EXPECT_EQ(seen, head.NumEntries());
  EXPECT_EQ(seen, 10u);
}

// Filter shapes the postings cannot answer: refused, never answered empty.
constexpr const char* kUnanswerableFilters[] = {
    "(uid=u*)", "(&(objectClass=person)(uid=u0))", "(|(uid=u0)(uid=u1))",
    "(!(uid=u0))", "(uid>=u)"};

// The SnapshotSearch core, exercised directly against pinned snapshots.
TEST_F(NetServerTest, SnapshotSearchScopesAndFilters) {
  ASSERT_TRUE(
      server_.Add(Dn("ou=deep,ou=load"), [] {
        EntrySpec spec;
        spec.classes = {"top", "orgUnit"};
        spec.values = {{"ou", "deep"}};
        return spec;
      }()).ok());
  ASSERT_TRUE(
      server_.Add(Dn("uid=d0,ou=deep,ou=load"), PersonSpec("d0")).ok());

  PinnedSnapshot snap = server_.PinSnapshot();
  ASSERT_TRUE(static_cast<bool>(snap));
  const Vocabulary& vocab = server_.vocab();

  // Subtree from the root base: everything under ou=load.
  auto subtree = SnapshotSearch(*snap, vocab, "ou=load", 2, "");
  ASSERT_TRUE(subtree.ok());
  EXPECT_EQ(subtree->size(), 5u);

  // One-level: direct children only (u0, u1, ou=deep), not the base,
  // not the grandchild.
  auto onelevel = SnapshotSearch(*snap, vocab, "ou=load", 1, "");
  ASSERT_TRUE(onelevel.ok());
  EXPECT_EQ(onelevel->size(), 3u);

  // Whole-forest search with an empty base.
  auto forest =
      SnapshotSearch(*snap, vocab, "", 2, "(objectClass=person)");
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->size(), 3u);

  // Value filter scoped to the nested subtree.
  auto nested =
      SnapshotSearch(*snap, vocab, "ou=deep,ou=load", 2, "(uid=d0)");
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->size(), 1u);
  auto empty =
      SnapshotSearch(*snap, vocab, "ou=deep,ou=load", 2, "(uid=u0)");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // Unsupported filter shapes are errors; unknown names are empty.
  EXPECT_FALSE(SnapshotSearch(*snap, vocab, "ou=load", 2, "(a=*)").ok());
  for (const char* filter : kUnanswerableFilters) {
    EXPECT_EQ(SnapshotSearch(*snap, vocab, "ou=load", 2, filter)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << filter;
    EXPECT_EQ(SnapshotSearchPage(*snap, vocab, "ou=load", 2, filter, 0, 10)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << filter;
  }
  EXPECT_FALSE(SnapshotSearch(*snap, vocab, "ou=load", 3, "").ok());
  auto unknown_class = SnapshotSearch(*snap, vocab, "ou=load", 2,
                                      "(objectClass=nosuch)");
  ASSERT_TRUE(unknown_class.ok());
  EXPECT_TRUE(unknown_class->empty());
}

TEST_F(NetServerTest, SearchRefusesFiltersItCannotAnswer) {
  StartNet();
  WireClient client(net_->port());
  ASSERT_TRUE(client.connected());
  uint64_t request_id = 0;
  for (const char* filter : kUnanswerableFilters) {
    auto response =
        client.Call(EncodeSearchRequest(++request_id, "ou=load", 2, filter));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, WireCode::kInvalidArgument) << filter;
  }
}

// The paged core: label-ordered, inclusive from_label, limit-truncated.
TEST_F(NetServerTest, SnapshotSearchPageResumesAtTheFromLabel) {
  PinnedSnapshot snap = server_.PinSnapshot();
  ASSERT_TRUE(static_cast<bool>(snap));
  const Vocabulary& vocab = server_.vocab();

  auto all = SnapshotSearchPage(*snap, vocab, "ou=load", 2, "",
                                /*from_label=*/0, /*limit=*/100);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 3u);
  for (size_t i = 1; i < all->size(); ++i) {
    EXPECT_LT((*all)[i - 1].label, (*all)[i].label);
  }

  // Limit truncates; resuming at the next hit's own label (inclusive
  // lower bound) returns exactly the remainder with no gap or repeat.
  auto head = SnapshotSearchPage(*snap, vocab, "ou=load", 2, "", 0, 2);
  ASSERT_TRUE(head.ok());
  ASSERT_EQ(head->size(), 2u);
  auto tail = SnapshotSearchPage(*snap, vocab, "ou=load", 2, "",
                                 head->back().label + 1, 100);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ(tail->front().id, all->back().id);

  // A from_label past every hit is an empty page, not an error.
  auto past = SnapshotSearchPage(*snap, vocab, "ou=load", 2, "",
                                 all->back().label + 1, 100);
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past->empty());
}

}  // namespace
}  // namespace ldapbound
