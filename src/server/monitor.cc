#include "server/monitor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string_view>

#include "server/directory_server.h"
#include "server/flight_recorder.h"
#include "server/net_server.h"
#include "util/json.h"
#include "util/metrics.h"

namespace ldapbound {

namespace {

void AppendU64Field(std::string& out, const char* key, uint64_t value,
                    bool first = false) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",", key,
                value);
  out += buf;
}

/// A /statusz count and the registry series it shows: one series, or
/// with no labels the family's total across its label sets (every
/// reactor, every reason).
struct NamedCount {
  const char* key;
  const char* metric;
  const char* labels = "";
};

void AppendCounts(std::string& out, std::initializer_list<NamedCount> counts) {
  const MetricRegistry& registry = MetricRegistry::Default();
  for (const NamedCount& c : counts) {
    AppendU64Field(out, c.key, registry.Read(c.metric, c.labels));
  }
}

/// Successful (`ok`) or refused (`rejected`) DirectoryServer ops of one
/// kind (directory_server.cc's OpMetrics).
uint64_t ServerOps(std::string_view op, std::string_view outcome) {
  return MetricRegistry::Default().Read(
      "ldapbound_server_ops_total",
      MakeLabel("op", op) + "," + MakeLabel("outcome", outcome));
}

void AppendBoolField(std::string& out, const char* key, bool value,
                     bool first = false) {
  if (!first) out += ',';
  out += '"';
  out += key;
  out += value ? "\":true" : "\":false";
}

/// `include_body` = false renders the HEAD variant: identical status
/// line and headers (Content-Length still describes the body a GET
/// would carry), no body bytes.
std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body,
                         bool include_body = true) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                code, reason, content_type, body.size());
  return include_body ? head + body : std::string(head);
}

void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a scraper that closes mid-response must surface as
    // EPIPE here, not as a process-killing SIGPIPE (nothing in the
    // library installs a handler, and a server must not die because a
    // client hung up).
    ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away (EPIPE/ECONNRESET); a retry re-scrapes
    }
    off += static_cast<size_t>(n);
  }
}

/// Extracts the request path from "GET /path?query HTTP/1.1..." or the
/// HEAD equivalent (health probes commonly send HEAD); empty on any
/// other method. `*is_head` (when non-null) reports which method it
/// was; `*query` (when non-null) gets the part after '?', "" when none.
std::string ParseRequestPath(const std::string& request,
                             bool* is_head = nullptr,
                             std::string* query = nullptr) {
  size_t start;
  if (request.rfind("GET ", 0) == 0) {
    start = 4;
    if (is_head != nullptr) *is_head = false;
  } else if (request.rfind("HEAD ", 0) == 0) {
    start = 5;
    if (is_head != nullptr) *is_head = true;
  } else {
    return "";
  }
  size_t end = request.find(' ', start);
  if (end == std::string::npos) return "";
  std::string path = request.substr(start, end - start);
  size_t qmark = path.find('?');
  if (qmark != std::string::npos) {
    if (query != nullptr) *query = path.substr(qmark + 1);
    path.resize(qmark);
  } else if (query != nullptr) {
    query->clear();
  }
  return path;
}

/// The value of `key=N` in a query string ("window=30&x=1"); `fallback`
/// when absent or non-numeric.
uint64_t QueryUintParam(const std::string& query, const char* key,
                        uint64_t fallback) {
  std::string needle = std::string(key) + "=";
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    std::string_view param(query.data() + pos,
                           (amp == std::string::npos ? query.size() : amp) -
                               pos);
    if (param.substr(0, needle.size()) == needle) {
      uint64_t value = 0;
      bool any = false;
      for (char c : param.substr(needle.size())) {
        if (c < '0' || c > '9') return fallback;
        value = value * 10 + static_cast<uint64_t>(c - '0');
        any = true;
      }
      return any ? value : fallback;
    }
    if (amp == std::string::npos) break;
    pos = amp + 1;
  }
  return fallback;
}

}  // namespace

Result<std::unique_ptr<MonitorServer>> MonitorServer::Start(
    const DirectoryServer* server, const MonitorOptions& options) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("monitor: socket: ") +
                            std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("monitor: bad bind address '" +
                                   options.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::Internal(
        "monitor: bind " + options.bind_address + ":" +
        std::to_string(options.port) + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 16) != 0) {
    Status status = Status::Internal(std::string("monitor: listen: ") +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status status = Status::Internal(std::string("monitor: getsockname: ") +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  return std::unique_ptr<MonitorServer>(new MonitorServer(
      server, fd, ntohs(bound.sin_port), options.io_timeout_ms));
}

MonitorServer::MonitorServer(const DirectoryServer* server, int listen_fd,
                             uint16_t port, uint32_t io_timeout_ms)
    : server_(server),
      listen_fd_(listen_fd),
      port_(port),
      io_timeout_ms_(io_timeout_ms) {
  thread_ = std::thread([this]() { AcceptLoop(); });
}

MonitorServer::~MonitorServer() { Stop(); }

void MonitorServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // shutdown() wakes the blocked accept(); the loop then sees the failure
  // and exits. close() after join so no connection outlives the fd.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
}

void MonitorServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // shut down (or the listen socket died)
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void MonitorServer::HandleConnection(int fd) {
  // The single accept thread serves everyone: bound both directions of
  // this connection so a silent or stalled client times out instead of
  // starving every later scrape.
  if (io_timeout_ms_ > 0) {
    timeval tv{};
    tv.tv_sec = io_timeout_ms_ / 1000;
    tv.tv_usec = static_cast<suseconds_t>((io_timeout_ms_ % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  // Scrape requests fit one read almost always; keep reading until the
  // header terminator anyway, bounded so a bad client cannot park here.
  std::string request;
  char buf[2048];
  while (request.size() < 16 * 1024 &&
         request.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF, error, or the receive timeout fired (EAGAIN)
    }
    request.append(buf, static_cast<size_t>(n));
  }
  bool is_head = false;
  std::string query;
  std::string path = ParseRequestPath(request, &is_head, &query);
  auto respond = [&](int code, const char* reason, const char* type,
                     const std::string& body) {
    WriteAll(fd, HttpResponse(code, reason, type, body,
                              /*include_body=*/!is_head));
  };
  if (path == "/metrics") {
    respond(200, "OK", "text/plain; version=0.0.4",
            MetricRegistry::Default().RenderPrometheus());
  } else if (path == "/healthz") {
    int code = 200;
    std::string body = RenderHealthz(&code);
    respond(code, code == 200 ? "OK" : "Service Unavailable", "text/plain",
            body);
  } else if (path == "/statusz") {
    respond(200, "OK", "application/json", RenderStatusz());
  } else if (path == "/slowz") {
    respond(200, "OK", "application/json", RenderSlowz());
  } else if (path == "/timeseries") {
    respond(200, "OK", "application/json",
            RenderTimeseries(QueryUintParam(query, "window", 0)));
  } else if (path.empty()) {
    respond(400, "Bad Request", "text/plain",
            "only GET and HEAD are served here\n");
  } else {
    respond(404, "Not Found", "text/plain",
            "endpoints: /metrics /healthz /statusz /slowz /timeseries\n");
  }
}

std::string MonitorServer::RenderHealthz(int* http_code) const {
  const HealthManager& health = *server_->health();
  HealthState state = health.state();
  if (state == HealthState::kHealthy) {
    if (http_code != nullptr) *http_code = 200;
    return "ok\n";
  }
  if (http_code != nullptr) *http_code = 503;
  std::string body = std::string(HealthStateName(state)) +
                     ": server is read-only";
  std::string reason = health.reason();
  if (!reason.empty()) body += " (" + reason + ")";
  body += "\n";
  return body;
}

std::string MonitorServer::RenderStatusz() const {
  const DirectoryServer& s = *server_;
  const StructureSchema& structure = s.schema().structure();

  std::string out = "{\"schema\":{";
  AppendU64Field(out, "classes", s.vocab().num_classes(), /*first=*/true);
  AppendU64Field(out, "attributes", s.vocab().num_attributes());
  AppendU64Field(out, "required_classes", structure.required_classes().size());
  AppendU64Field(out, "required_relationships", structure.required().size());
  AppendU64Field(out, "forbidden_relationships", structure.forbidden().size());
  AppendU64Field(out, "key_attributes",
                 s.schema().key_attributes().size());
  out += "}";
  // Writers move the live count while this renders; a pinned snapshot's
  // count is race-free.
  AppendU64Field(out, "entries", s.PinSnapshot()->num_alive);

  out += ",\"health\":{\"state\":";
  out += JsonQuote(std::string(HealthStateName(s.health_state())));
  {
    const HealthManager& health = *s.health();
    std::string reason = health.reason();
    if (!reason.empty()) {
      out += ",\"reason\":";
      out += JsonQuote(reason);
    }
    AppendCounts(
        out, {{"transitions", "ldapbound_health_transitions_total"},
              {"recovery_attempts", "ldapbound_health_recovery_attempts_total"},
              {"recoveries", "ldapbound_health_recoveries_total"}});
    AppendBoolField(out, "auto_recover", health.probe_running());
    if (health.probe_running()) {
      AppendU64Field(out, "next_probe_delay_ms", health.next_probe_delay_ms());
    }
  }
  out += "}";

  out += ",\"admission\":{";
  AppendBoolField(out, "enabled", s.admission() != nullptr, /*first=*/true);
  if (const AdmissionController* adm = s.admission()) {
    AppendU64Field(out, "max_queue_depth", adm->options().max_queue_depth);
    AppendU64Field(out, "default_deadline_ms",
                   adm->options().default_deadline_ms);
    AppendCounts(out,
                 {{"admitted", "ldapbound_admission_admitted_total"},
                  {"rejected_overload", "ldapbound_admission_rejected_total",
                   "reason=\"overloaded\""},
                  {"rejected_deadline", "ldapbound_admission_rejected_total",
                   "reason=\"deadline\""}});
    AppendU64Field(out, "shed_streak", adm->shed_streak());
  }
  if (s.group_commit() != nullptr) {
    AppendU64Field(out, "queue_depth", s.group_commit()->depth());
    AppendBoolField(out, "queue_poisoned", s.group_commit()->poisoned());
  }
  out += "}";

  out += ",\"wal\":{";
  AppendBoolField(out, "enabled", s.wal() != nullptr, /*first=*/true);
  AppendBoolField(out, "failed", s.wal_failed());
  if (s.wal() != nullptr) {
    out += ",\"dir\":";
    out += JsonQuote(s.wal()->dir());
    AppendU64Field(out, "next_seq", s.wal()->next_seq());
  }
  out += ",\"group_commit\":{";
  AppendBoolField(out, "enabled", s.group_commit() != nullptr,
                  /*first=*/true);
  if (s.group_commit() != nullptr) {
    const GroupCommitQueue& q = *s.group_commit();
    AppendU64Field(out, "max_batch", q.max_batch());
    AppendU64Field(out, "hold_us", q.hold_us());
    AppendCounts(out,
                 {{"groups_flushed", "ldapbound_wal_group_commits_total"},
                  {"commits_flushed",
                   "ldapbound_wal_group_commit_batch_size_sum"}});
  }
  out += "}}";

  out += ",\"stats\":{";
  AppendU64Field(out, "adds", ServerOps("add", "ok"), /*first=*/true);
  AppendU64Field(out, "deletes", ServerOps("delete", "ok"));
  AppendU64Field(out, "modifies",
                 ServerOps("modify", "ok") + ServerOps("modify_dn", "ok"));
  AppendU64Field(out, "searches", ServerOps("search", "ok"));
  AppendU64Field(out, "imports", ServerOps("import", "ok"));
  uint64_t rejected = 0;
  for (std::string_view op :
       {"add", "delete", "apply", "modify", "modify_dn", "import"}) {
    rejected += ServerOps(op, "rejected");
  }
  AppendU64Field(out, "rejected", rejected);
  out += "}";

  out += ",\"mvcc\":{";
  {
    const SnapshotStore& store = s.directory().snapshot_store();
    AppendU64Field(out, "publishes",
                   MetricRegistry::Default().Read(
                       "ldapbound_snapshot_publishes_total"),
                   /*first=*/true);
    AppendU64Field(out, "reclaim_lag", store.reclaim_lag());
    AppendU64Field(out, "live_readers", store.epochs().live_readers());
    PinnedSnapshot snap = s.PinSnapshot();
    AppendU64Field(out, "version", snap->version);
    AppendU64Field(out, "num_alive", snap->num_alive);
  }
  out += "}";

  out += ",\"net\":{";
  const NetServer* net = net_.load(std::memory_order_acquire);
  AppendBoolField(out, "enabled", net != nullptr, /*first=*/true);
  if (net != nullptr) {
    AppendU64Field(out, "port", net->port());
    AppendU64Field(out, "reactors", net->reactors());
    // The levels among these (connections_active, dispatch_queue_depth,
    // cursors_open) are gauges the net server sets from its own state.
    AppendCounts(
        out,
        {{"connections_accepted", "ldapbound_net_connections_total"},
         {"connections_active", "ldapbound_net_connections_active"},
         {"connections_shed", "ldapbound_net_connections_shed_total"},
         {"accept_errors", "ldapbound_net_accept_errors_total"},
         {"ops_shed", "ldapbound_net_ops_shed_total"},
         {"ops_ok", "ldapbound_net_ops_total", "outcome=\"ok\""},
         {"ops_rejected", "ldapbound_net_ops_total", "outcome=\"rejected\""},
         {"dispatch_queue_depth", "ldapbound_net_dispatch_queue_depth"},
         {"frames_in", "ldapbound_net_frames_in_total"},
         {"frames_out", "ldapbound_net_frames_out_total"},
         {"protocol_errors", "ldapbound_net_protocol_errors_total"},
         {"idle_closed", "ldapbound_net_idle_closed_total"},
         {"owed_bytes_at_stop", "ldapbound_net_owed_bytes_at_stop_total"},
         {"cursors_open", "ldapbound_net_cursors_open"},
         {"cursors_expired", "ldapbound_net_cursors_expired_total"}});
  }
  out += "}";

  out += ",\"slow_ops\":{";
  AppendBoolField(out, "enabled", s.slow_ops() != nullptr, /*first=*/true);
  if (s.slow_ops() != nullptr) {
    AppendU64Field(out, "capacity", s.slow_ops()->capacity());
    AppendU64Field(out, "min_duration_ns", s.slow_ops()->min_duration_ns());
    AppendU64Field(out, "recorded", s.slow_ops()->recorded());
  }
  out += "}}";
  return out;
}

std::string MonitorServer::RenderSlowz() const {
  if (server_->slow_ops() == nullptr) {
    return "{\"enabled\":false,\"ops\":[]}";
  }
  return server_->slow_ops()->RenderJson();
}

std::string MonitorServer::RenderTimeseries(uint64_t window_seconds) const {
  const FlightRecorder* recorder = flight_.load(std::memory_order_acquire);
  if (recorder == nullptr) {
    return "{\"enabled\":false,\"series\":[],\"samples\":[]}";
  }
  return recorder->RenderJson(window_seconds);
}

}  // namespace ldapbound
