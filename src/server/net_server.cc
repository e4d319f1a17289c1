#include "server/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "core/legality_checker.h"
#include "ldap/dn.h"
#include "ldap/search.h"
#include "server/directory_server.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace ldapbound {

namespace {

/// How often a reactor wakes with no events: idle sweeping, cursor
/// reaping, accept re-arming and drain progress all ride on this.
constexpr int kEpollTimeoutMs = 250;

/// How long an EMFILE/ENFILE accept failure keeps the listener's EPOLLIN
/// disarmed. Accepting again immediately would spin hot — the ready
/// queue stays ready while the process is out of fds.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(100);

/// Read budget per readable wakeup. Level-triggered epoll re-arms on
/// leftover socket bytes, so the cap bounds how long one firehose
/// connection can hold its reactor without starving the rest.
constexpr size_t kMaxReadBytesPerWake = 256 * 1024;

/// Backpressure: a connection is not read while this many response bytes
/// are unsent, so a client that never reads stalls in its own sends. One
/// read budget's responses can land past it.
constexpr size_t kMaxUnsentBytes = kMaxReadBytesPerWake;

/// Response frames gathered into one sendmsg call. Safely under Linux's
/// IOV_MAX (1024); past a few dozen frames the syscall amortization has
/// flattened anyway.
constexpr size_t kMaxIovGather = 64;

/// Hard cap on a kSearchEntries page; keeps one page comfortably inside
/// the frame payload limit for realistic entry sizes.
constexpr uint32_t kMaxSearchEntriesPage = 1024;

Status Errno(const char* what) {
  return Status::Internal(std::string("net: ") + what + ": " +
                          std::strerror(errno));
}

/// A wire request's op name in its record (a literal, as RequestStamps
/// requires).
const char* WireOpName(WireOp op) {
  switch (op) {
    case WireOp::kPing:
      return "wire.ping";
    case WireOp::kSearch:
      return "wire.search";
    case WireOp::kAdd:
      return "wire.add";
    case WireOp::kDelete:
      return "wire.delete";
    case WireOp::kValidate:
      return "wire.validate";
    case WireOp::kSearchEntries:
      return "wire.search_entries";
    default:
      return "wire.op";
  }
}

const char* WireOutcomeName(WireCode code) {
  switch (code) {
    case WireCode::kOk:
      return "ok";
    case WireCode::kInternal:
    case WireCode::kProtocolError:
      return "error";
    default:
      return "rejected";
  }
}

/// The pre-encoded frame a connection refused at the door receives.
std::string EncodeShedFrame() {
  WireResponse shed;
  shed.op = WireOp::kShed;
  shed.request_id = 0;
  shed.code = WireCode::kOverloaded;
  shed.retryable = true;
  shed.message = "connection refused: at the connection limit or "
                 "draining; retry with backoff";
  return EncodeResponseFrame(shed);
}

}  // namespace

/// One reactor's ldapbound_net_* series, carrying its `reactor` label so
/// /metrics shows how evenly SO_REUSEPORT spreads the load; /statusz sums
/// each family across the reactors.
struct NetServer::ReactorCounters {
  explicit ReactorCounters(size_t index)
      : label(MakeLabel("reactor", std::to_string(index))),
        m_accepted(MetricRegistry::Default().GetCounter(
            "ldapbound_net_connections_total", "Wire connections accepted",
            label)),
        m_shed_conns(MetricRegistry::Default().GetCounter(
            "ldapbound_net_connections_shed_total",
            "Wire connections refused at the connection limit or while "
            "draining",
            label)),
        m_frames_in(MetricRegistry::Default().GetCounter(
            "ldapbound_net_frames_in_total", "Wire request frames parsed",
            label)),
        m_frames_out(MetricRegistry::Default().GetCounter(
            "ldapbound_net_frames_out_total", "Wire response frames queued",
            label)),
        m_protocol_errors(MetricRegistry::Default().GetCounter(
            "ldapbound_net_protocol_errors_total",
            "Malformed wire frames (connection closed)", label)),
        m_idle_closed(MetricRegistry::Default().GetCounter(
            "ldapbound_net_idle_closed_total",
            "Wire connections reaped by the idle timeout", label)),
        m_active(MetricRegistry::Default().GetGauge(
            "ldapbound_net_connections_active",
            "Currently open wire connections", label)),
        m_accept_emfile(MetricRegistry::Default().GetCounter(
            "ldapbound_net_accept_errors_total",
            "accept4 failures by errno class (EMFILE/ENFILE back off the "
            "listener)",
            MakeLabel("reason", "emfile") + "," + label)),
        m_accept_enfile(MetricRegistry::Default().GetCounter(
            "ldapbound_net_accept_errors_total",
            "accept4 failures by errno class (EMFILE/ENFILE back off the "
            "listener)",
            MakeLabel("reason", "enfile") + "," + label)),
        m_accept_other(MetricRegistry::Default().GetCounter(
            "ldapbound_net_accept_errors_total",
            "accept4 failures by errno class (EMFILE/ENFILE back off the "
            "listener)",
            MakeLabel("reason", "other") + "," + label)),
        h_epoll_batch(MetricRegistry::Default().GetHistogram(
            "ldapbound_net_epoll_wakeup_events",
            "Ready events per epoll_wait wakeup (event-carrying wakeups "
            "only)",
            label)),
        h_completion_batch(MetricRegistry::Default().GetHistogram(
            "ldapbound_net_completion_batch",
            "Worker completions drained per eventfd wakeup", label)),
        h_inline_read_ns(MetricRegistry::Default().GetHistogram(
            "ldapbound_net_inline_read_ns",
            "Reactor time spent executing reads inline, per loop turn that "
            "ran any",
            label)),
        m_reads_over_budget(MetricRegistry::Default().GetCounter(
            "ldapbound_net_reads_over_budget_total",
            "Reads dispatched to the workers past the reactor turn's inline "
            "read budget",
            label)),
        h_out_hwm(MetricRegistry::Default().GetHistogram(
            "ldapbound_net_conn_out_hwm_bytes",
            "Per-connection write-buffer high-watermark, observed at "
            "connection close",
            label)) {}

  void CountAcceptError(int err) {
    if (err == EMFILE) {
      m_accept_emfile.Increment();
    } else if (err == ENFILE) {
      m_accept_enfile.Increment();
    } else {
      m_accept_other.Increment();
    }
  }

  const std::string label;
  Counter& m_accepted;
  Counter& m_shed_conns;
  Counter& m_frames_in;
  Counter& m_frames_out;
  Counter& m_protocol_errors;
  Counter& m_idle_closed;
  Gauge& m_active;
  Counter& m_accept_emfile;
  Counter& m_accept_enfile;
  Counter& m_accept_other;
  Histogram& h_epoll_batch;
  Histogram& h_completion_batch;
  Histogram& h_inline_read_ns;
  Counter& m_reads_over_budget;
  Histogram& h_out_hwm;
};

/// Series with no reactor affiliation: the dispatch queue, the worker
/// pool and the cursor table are shared.
struct NetServer::SharedCounters {
  SharedCounters()
      : m_shed_ops(MetricRegistry::Default().GetCounter(
            "ldapbound_net_ops_shed_total",
            "Wire requests shed at the dispatch-queue bound")),
        m_ops_ok(MetricRegistry::Default().GetCounter(
            "ldapbound_net_ops_total", "Wire requests executed, by outcome",
            "outcome=\"ok\"")),
        m_ops_rejected(MetricRegistry::Default().GetCounter(
            "ldapbound_net_ops_total", "Wire requests executed, by outcome",
            "outcome=\"rejected\"")),
        g_queue_depth(MetricRegistry::Default().GetGauge(
            "ldapbound_net_dispatch_queue_depth",
            "Decoded wire requests waiting for a worker")),
        g_cursors_open(MetricRegistry::Default().GetGauge(
            "ldapbound_net_cursors_open",
            "Paged-search cursors retaining a snapshot version")),
        m_cursors_expired(MetricRegistry::Default().GetCounter(
            "ldapbound_net_cursors_expired_total",
            "Paged-search cursors reaped by the idle timeout")),
        m_owed_bytes_at_stop(MetricRegistry::Default().GetCounter(
            "ldapbound_net_owed_bytes_at_stop_total",
            "Unflushed response bytes force-closed when Stop's drain "
            "grace ran out")) {}

  /// Counts one answered request: executed, or an inline ping.
  void CountOutcome(bool ok) { (ok ? m_ops_ok : m_ops_rejected).Increment(); }

  Counter& m_shed_ops;
  Counter& m_ops_ok;
  Counter& m_ops_rejected;
  Gauge& g_queue_depth;
  Gauge& g_cursors_open;
  Counter& m_cursors_expired;
  Counter& m_owed_bytes_at_stop;
};

Result<std::unique_ptr<NetServer>> NetServer::Start(
    DirectoryServer* server, const NetServerOptions& options) {
  size_t nreactors = options.reactors;
  if (nreactors == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    nreactors = hw == 0 ? 1 : hw;
  }

  // One SO_REUSEPORT listener per reactor, all on the same port: the
  // option must be set on every socket *before* bind, and with port 0
  // the first bind learns the ephemeral port the rest then join.
  std::vector<int> listen_fds;
  auto fail = [&listen_fds](Status status) {
    for (int fd : listen_fds) ::close(fd);
    return status;
  };
  uint16_t port = options.port;
  for (size_t i = 0; i < nreactors; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return fail(Errno("socket"));
    listen_fds.push_back(fd);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      return fail(Errno("setsockopt(SO_REUSEPORT)"));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      return fail(Status::InvalidArgument("net: bad bind address '" +
                                          options.bind_address + "'"));
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return fail(Errno("bind"));
    }
    if (i == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        return fail(Errno("getsockname"));
      }
      port = ntohs(bound.sin_port);
    }
    if (::listen(fd, 1024) != 0) return fail(Errno("listen"));
  }

  std::unique_ptr<NetServer> net(new NetServer(server, options, port));
  for (size_t i = 0; i < nreactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    r->listen_fd = listen_fds[i];
    r->shed_frame = EncodeShedFrame();
    r->counters = std::make_unique<ReactorCounters>(i);
    net->reactors_.push_back(std::move(r));
  }
  listen_fds.clear();  // owned by the reactors (destructor closes) now
  for (auto& r : net->reactors_) {
    r->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    r->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (r->epoll_fd < 0 || r->wake_fd < 0) {
      return Errno("epoll/eventfd");  // fds closed by the destructor
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->listen_fd;
    if (::epoll_ctl(r->epoll_fd, EPOLL_CTL_ADD, r->listen_fd, &ev) != 0) {
      return Errno("epoll_ctl(listen)");
    }
    epoll_event wake{};
    wake.events = EPOLLIN;
    wake.data.fd = r->wake_fd;
    if (::epoll_ctl(r->epoll_fd, EPOLL_CTL_ADD, r->wake_fd, &wake) != 0) {
      return Errno("epoll_ctl(wake)");
    }
  }

  size_t workers = options.worker_threads == 0 ? 1 : options.worker_threads;
  for (size_t i = 0; i < workers; ++i) {
    net->workers_.emplace_back([raw = net.get()]() { raw->WorkerLoop(); });
  }
  for (auto& r : net->reactors_) {
    r->thread = std::thread(
        [raw = net.get(), reactor = r.get()]() { raw->ReactorLoop(*reactor); });
  }
  return net;
}

NetServer::NetServer(DirectoryServer* server, const NetServerOptions& options,
                     uint16_t port)
    : server_(server),
      options_(options),
      port_(port),
      shared_(std::make_unique<SharedCounters>()) {}

NetServer::~NetServer() {
  Stop();
  for (auto& r : reactors_) {
    if (r->epoll_fd >= 0) ::close(r->epoll_fd);
    if (r->wake_fd >= 0) ::close(r->wake_fd);
    if (r->listen_fd >= 0) ::close(r->listen_fd);
  }
}

void NetServer::Stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  // Workers drain what is queued, post their completions, and exit;
  // joining them first means every reactor's final drain sees everything.
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  for (auto& r : reactors_) {
    if (r->wake_fd >= 0) {
      uint64_t one = 1;
      (void)!::write(r->wake_fd, &one, sizeof(one));
    }
    if (r->thread.joinable()) r->thread.join();
  }
  // Every reactor is gone: drop the cursors so their retained snapshot
  // versions free before the DirectoryServer goes away.
  std::lock_guard<std::mutex> lock(cursors_mu_);
  cursors_.clear();
  shared_->g_cursors_open.Set(0);
}

void NetServer::ReactorLoop(Reactor& r) {
  std::chrono::steady_clock::time_point drain_start{};
  bool draining_out = false;
  const auto drain_grace = std::chrono::milliseconds(options_.drain_grace_ms);
  for (;;) {
    epoll_event events[128];
    int n = ::epoll_wait(r.epoll_fd, events, 128, kEpollTimeoutMs);
    if (n < 0 && errno != EINTR) return;  // epoll fd died: nothing to do
    if (n > 0) {
      r.counters->h_epoll_batch.Observe(static_cast<uint64_t>(n));
    }
    // The workers' answers go out before this turn's inline reads run.
    // Clear the eventfd first, never after the drain: a completion posted
    // once the drain has taken the batch must leave it set, so the next
    // epoll_wait returns at once instead of at its timeout.
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd != r.wake_fd) continue;
      uint64_t drained;
      while (::read(r.wake_fd, &drained, sizeof(drained)) > 0) {
      }
      break;
    }
    DrainCompletions(r);
    r.read_budget = ReadBudget{kInlineReadBudget};
    r.inline_read_ns = 0;
    r.read_inline = false;

    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == r.listen_fd) {
        HandleAccept(r);
        continue;
      }
      if (fd == r.wake_fd) continue;  // cleared and drained above
      auto it = r.conns.find(fd);
      if (it == r.conns.end()) continue;  // closed earlier this batch
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        CloseConn(r, fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!FlushWrites(r, fd, it->second)) {
          CloseConn(r, fd);
          continue;
        }
        // FlushWrites may close a finished connection; re-find.
        it = r.conns.find(fd);
        if (it == r.conns.end()) continue;
        // A drained backlog must disarm EPOLLOUT: level-triggered, it
        // would otherwise fire at once on every wait while the socket
        // stays writable.
        UpdateEpoll(r, fd, it->second);
      }
      if ((events[i].events & EPOLLIN) != 0) {
        HandleReadable(r, fd, it->second);
      }
    }

    if (r.read_inline) r.counters->h_inline_read_ns.Observe(r.inline_read_ns);
    SweepIdle(r);
    // One reactor sweeps the shared cursor table; which one is
    // arbitrary, the table has its own lock.
    if (r.index == 0) ReapIdleCursors();
    if (r.accept_disarmed &&
        std::chrono::steady_clock::now() >= r.accept_rearm_at) {
      ArmAccept(r, true);
    }

    if (stopping_.load(std::memory_order_acquire)) {
      // Workers are joined before the reactors are woken for shutdown,
      // so every completion has been posted by now; let queued responses
      // flush within the grace period, then force-close.
      if (!draining_out) {
        draining_out = true;
        drain_start = std::chrono::steady_clock::now();
      }
      // A conn still owes bytes, or still owes a response a worker has
      // not posted yet (Stop() joins workers before waking the reactors,
      // but a reactor can see stopping_ on its own timeout first).
      bool pending = false;
      for (auto& [fd, conn] : r.conns) {
        if (conn.out_bytes > 0 || conn.inflight > 0) pending = true;
      }
      if (!pending ||
          std::chrono::steady_clock::now() - drain_start > drain_grace) {
        std::vector<int> fds;
        fds.reserve(r.conns.size());
        uint64_t owed = 0;
        for (auto& [fd, conn] : r.conns) {
          owed += conn.out_bytes;
          fds.push_back(fd);
        }
        shared_->m_owed_bytes_at_stop.Increment(owed);
        for (int fd : fds) CloseConn(r, fd);
        return;
      }
    }
  }
}

void NetServer::ArmAccept(Reactor& r, bool on) {
  epoll_event ev{};
  ev.events = on ? static_cast<uint32_t>(EPOLLIN) : 0u;
  ev.data.fd = r.listen_fd;
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, r.listen_fd, &ev);
  r.accept_disarmed = !on;
}

void NetServer::HandleAccept(Reactor& r) {
  for (;;) {
    int fd = ::accept4(r.listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      r.counters->CountAcceptError(errno);
      // Out of fds (or kernel memory): the ready queue stays readable,
      // so re-arming immediately would spin the reactor hot doing
      // nothing. Disarm the listener and retry after a breather —
      // pending connections just wait in the backlog.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        ArmAccept(r, false);
        r.accept_rearm_at = std::chrono::steady_clock::now() + kAcceptBackoff;
      }
      return;
    }
    bool draining =
        stopping_.load(std::memory_order_acquire) ||
        server_->health_state() == HealthState::kDraining;
    if (draining ||
        active_conns_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      // Shed at the door: count it, then a retryable frame, then close.
      // Counting first means a client that has read the frame and the
      // EOF also sees the shed on /metrics. Best-effort send — the client
      // may already be gone, which is fine.
      r.counters->m_shed_conns.Increment();
      (void)!::send(fd, r.shed_frame.data(), r.shed_frame.size(),
                    MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.gen = r.next_gen++;
    conn.last_activity = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    conn.epoll_mask = ev.events;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    r.conns.emplace(fd, std::move(conn));
    active_conns_.fetch_add(1, std::memory_order_relaxed);
    r.counters->m_accepted.Increment();
    r.counters->m_active.Set(static_cast<int64_t>(r.conns.size()));
  }
}

void NetServer::HandleReadable(Reactor& r, int fd, Conn& conn) {
  char buf[16 * 1024];
  size_t budget = kMaxReadBytesPerWake;
  for (;;) {
    size_t want = std::min(sizeof(buf), budget);
    if (want == 0) break;  // budget spent; LT epoll re-fires for the rest
    ssize_t n = ::read(fd, buf, want);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      conn.last_activity = std::chrono::steady_clock::now();
      budget -= static_cast<size_t>(n);
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(r, fd);  // ECONNRESET and friends
      return;
    }
    // EOF: the peer half-closed its send side. Responses still owed (a
    // client may legitimately shutdown(SHUT_WR) after its last request
    // and read the answers) keep the connection; otherwise close now.
    conn.read_closed = true;
    break;
  }
  if (!ParseAndDispatch(r, fd, conn)) {
    // Protocol error: the error frame is queued; stop reading, flush.
    conn.read_closed = true;
  }
  if (!FlushWrites(r, fd, conn)) {
    CloseConn(r, fd);
    return;
  }
  // FlushWrites closes a connection that finished (closing, or EOF with
  // nothing owed); only a still-open one needs its epoll mask refreshed.
  if (r.conns.find(fd) != r.conns.end()) UpdateEpoll(r, fd, conn);
}

bool NetServer::ParseAndDispatch(Reactor& r, int fd, Conn& conn) {
  size_t consumed_total = 0;
  bool ok = true;
  // Answer what the reactor can on the spot, and decode the rest of the
  // readable batch first, then enqueue it under one queue lock with one
  // worker wakeup — per-frame lock/notify was measurable reactor overhead
  // at high pipelining depths.
  std::vector<WorkItem> batch;
  for (;;) {
    WireRequest request;
    size_t consumed = 0;
    std::string_view rest =
        std::string_view(conn.in).substr(consumed_total);
    Result<bool> extracted =
        ExtractFrame(rest, kMaxFramePayload, &request, &consumed);
    if (!extracted.ok()) {
      r.counters->m_protocol_errors.Increment();
      WireResponse error;
      error.op = WireOp::kShed;
      error.request_id = 0;
      error.code = WireCode::kProtocolError;
      error.message = extracted.status().message();
      QueueResponse(r, conn, error);
      conn.closing = true;
      ok = false;
      break;
    }
    if (!*extracted) break;  // partial frame: wait for more bytes
    r.counters->m_frames_in.Increment();
    // request.body points into conn.in, which is erased after the loop.
    consumed_total += consumed;

    if (request.op == WireOp::kPing) {
      WireResponse pong;
      pong.op = WireOp::kPing;
      pong.request_id = request.request_id;
      QueueResponse(r, conn, pong);
      shared_->CountOutcome(true);
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      WireResponse unavailable;
      unavailable.op = request.op;
      unavailable.request_id = request.request_id;
      unavailable.code = WireCode::kUnavailable;
      unavailable.retryable = true;
      unavailable.message = "server is draining";
      QueueResponse(r, conn, unavailable);
      continue;
    }
    RequestStamps record;
    record.Mark(RequestStage::kDecoded);
    record.request_id = request.request_id;
    record.op = WireOpName(request.op);
    // A read runs here while the turn's budget lasts and its connection
    // is under the unsent-bytes cap; past the cap it is dispatched, so
    // the queue bound still sheds a client that pipelines and never reads.
    const bool read = request.op == WireOp::kSearch ||
                      request.op == WireOp::kSearchEntries;
    if (read && conn.out_bytes < kMaxUnsentBytes) {
      if (r.read_budget.left > 0) {
        record.Mark(RequestStage::kExecuteStart);
        std::optional<Reply> reply;
        {
          RequestScope scope(&record);
          reply = Execute(request.op, request.request_id, request.body,
                          r.read_budget);
        }
        // A stopped read's stamps are overwritten by the worker's run.
        record.Mark(RequestStage::kExecuteDone);
        r.inline_read_ns += record.at(RequestStage::kExecuteDone) -
                            record.at(RequestStage::kExecuteStart);
        r.read_inline = true;
        if (reply) {
          CountExecuted(record, reply->code);
          QueueFrame(r, conn, std::move(reply->frame), &record);
          if (reply->code == WireCode::kProtocolError) {
            conn.closing = true;
            ok = false;
            break;
          }
          continue;
        }
      }
      r.counters->m_reads_over_budget.Increment();
    }
    WorkItem item;
    item.reactor = r.index;
    item.fd = fd;
    item.gen = conn.gen;
    item.op = request.op;
    item.body = std::string(request.body);
    item.record = std::move(record);
    batch.push_back(std::move(item));
  }
  if (consumed_total > 0) conn.in.erase(0, consumed_total);

  if (!batch.empty()) {
    std::vector<std::pair<WireOp, uint64_t>> shed;
    size_t enqueued = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      for (WorkItem& item : batch) {
        if (options_.max_pending_ops > 0 &&
            queue_.size() >= options_.max_pending_ops) {
          shed.emplace_back(item.op, item.record.request_id);
          continue;
        }
        item.record.Mark(RequestStage::kEnqueued);
        queue_.push_back(std::move(item));
        ++enqueued;
        conn.inflight++;
      }
      shared_->g_queue_depth.Set(static_cast<int64_t>(queue_.size()));
    }
    if (enqueued == 1) {
      queue_cv_.notify_one();
    } else if (enqueued > 1) {
      queue_cv_.notify_all();
    }
    for (const auto& [op, request_id] : shed) {
      shared_->m_shed_ops.Increment();
      WireResponse overloaded;
      overloaded.op = op;
      overloaded.request_id = request_id;
      overloaded.code = WireCode::kOverloaded;
      overloaded.retryable = true;
      overloaded.message =
          "shed at the wire: dispatch queue is full; retry with backoff";
      QueueResponse(r, conn, overloaded);
    }
  }
  return ok;
}

void NetServer::QueueResponse(Reactor& r, Conn& conn,
                              const WireResponse& response) {
  QueueFrame(r, conn, EncodeResponseFrame(response), nullptr);
}

void NetServer::QueueFrame(Reactor& r, Conn& conn, std::string frame,
                           RequestStamps* record) {
  // Append-only: the caller flushes once after the whole batch. Flushing
  // here could close (and erase) the Conn mid-iteration.
  conn.bytes_queued += frame.size();
  conn.out_bytes += frame.size();
  conn.out_frames.push_back(std::move(frame));
  if (conn.out_bytes > conn.out_hwm) conn.out_hwm = conn.out_bytes;
  if (record != nullptr) {
    record->Mark(RequestStage::kResponseQueued);
    conn.pending_flush.push_back(
        StageRecord{conn.bytes_queued, std::move(*record)});
  }
  r.counters->m_frames_out.Increment();
}

bool NetServer::FlushWrites(Reactor& r, int fd, Conn& conn) {
  while (!conn.out_frames.empty()) {
    // Gather the queued frames into one sendmsg (writev cannot pass
    // MSG_NOSIGNAL) instead of one send() per frame.
    iovec iov[kMaxIovGather];
    size_t cnt = 0;
    size_t front_off = conn.out_off;
    for (std::string& frame : conn.out_frames) {
      if (cnt == kMaxIovGather) break;
      iov[cnt].iov_base = frame.data() + front_off;
      iov[cnt].iov_len = frame.size() - front_off;
      front_off = 0;
      ++cnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        FinalizeFlushed(conn);
        return true;
      }
      return false;  // EPIPE / ECONNRESET: the peer is gone
    }
    conn.bytes_flushed += static_cast<uint64_t>(n);
    conn.out_bytes -= static_cast<size_t>(n);
    conn.last_activity = std::chrono::steady_clock::now();
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      size_t avail = conn.out_frames.front().size() - conn.out_off;
      if (left >= avail) {
        left -= avail;
        conn.out_frames.pop_front();
        conn.out_off = 0;
      } else {
        conn.out_off += left;
        left = 0;
      }
    }
  }
  FinalizeFlushed(conn);
  if (conn.closing || (conn.read_closed && conn.inflight == 0)) {
    CloseConn(r, fd);
    return true;  // closed cleanly, not an error; caller must re-find
  }
  return true;
}

void NetServer::FinalizeFlushed(Conn& conn) {
  while (!conn.pending_flush.empty() &&
         conn.pending_flush.front().end_offset <= conn.bytes_flushed) {
    RequestStamps& record = conn.pending_flush.front().record;
    record.Mark(RequestStage::kBytesFlushed);
    FinishRequest(record, record.at(RequestStage::kBytesFlushed),
                  server_->mutable_slow_ops());
    conn.pending_flush.pop_front();
  }
}

void NetServer::CloseConn(Reactor& r, int fd) {
  auto it = r.conns.find(fd);
  if (it == r.conns.end()) return;
  r.counters->h_out_hwm.Observe(it->second.out_hwm);
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  r.conns.erase(it);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
  r.counters->m_active.Set(static_cast<int64_t>(r.conns.size()));
}

void NetServer::SweepIdle(Reactor& r) {
  if (options_.idle_timeout_ms == 0) return;
  auto now = std::chrono::steady_clock::now();
  auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<int> idle;
  for (auto& [fd, conn] : r.conns) {
    if (conn.inflight == 0 && now - conn.last_activity > limit) {
      idle.push_back(fd);
    }
  }
  for (int fd : idle) {
    r.counters->m_idle_closed.Increment();
    CloseConn(r, fd);
  }
}

void NetServer::ReapIdleCursors() {
  if (options_.cursor_idle_timeout_ms == 0) return;
  auto now = std::chrono::steady_clock::now();
  auto limit = std::chrono::milliseconds(options_.cursor_idle_timeout_ms);
  std::lock_guard<std::mutex> lock(cursors_mu_);
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    if (now - it->second.last_used > limit) {
      it = cursors_.erase(it);
      shared_->m_cursors_expired.Increment();
    } else {
      ++it;
    }
  }
  shared_->g_cursors_open.Set(static_cast<int64_t>(cursors_.size()));
}

void NetServer::DrainCompletions(Reactor& r) {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(r.completions_mu);
    batch.swap(r.completions);
  }
  if (batch.empty()) return;
  r.counters->h_completion_batch.Observe(batch.size());
  // Queue every completion's frame first, then flush each touched
  // connection once: a pipelining client's whole response batch goes out
  // in one sendmsg gather instead of one send() per response.
  std::vector<int> touched;
  for (Completion& completion : batch) {
    auto it = r.conns.find(completion.fd);
    // The fd may have been closed and reused since the request was
    // dispatched; the generation check keeps a stale response from
    // reaching the wrong client. (fds are reactor-local, so a reused fd
    // on another reactor is simply never found here.)
    if (it == r.conns.end() || it->second.gen != completion.gen) continue;
    Conn& conn = it->second;
    conn.inflight--;
    if (completion.reply.code == WireCode::kProtocolError) {
      // A worker-detected protocol error (e.g. a malformed pagination
      // cookie): flush the error frame, then close.
      conn.closing = true;
    }
    QueueFrame(r, conn, std::move(completion.reply.frame),
               &completion.record);
    touched.push_back(completion.fd);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (int fd : touched) {
    auto it = r.conns.find(fd);
    if (it == r.conns.end()) continue;
    if (!FlushWrites(r, fd, it->second)) {
      CloseConn(r, fd);
      continue;
    }
    it = r.conns.find(fd);  // FlushWrites may close a finished conn
    if (it != r.conns.end()) UpdateEpoll(r, fd, it->second);
  }
}

void NetServer::UpdateEpoll(Reactor& r, int fd, Conn& conn) {
  epoll_event ev{};
  ev.events = 0;
  if (!conn.read_closed && !conn.closing &&
      conn.out_bytes < kMaxUnsentBytes) {
    ev.events |= EPOLLIN;
  }
  if (conn.out_bytes > 0) ev.events |= EPOLLOUT;
  if (ev.events == conn.epoll_mask) return;  // armed already: no syscall
  ev.data.fd = fd;
  if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, fd, &ev) == 0) {
    conn.epoll_mask = ev.events;
  }
}

void NetServer::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // stopping and drained
      item = std::move(queue_.front());
      queue_.pop_front();
      shared_->g_queue_depth.Set(static_cast<int64_t>(queue_.size()));
    }
    item.record.Mark(RequestStage::kExecuteStart);
    ReadBudget unbounded;
    std::optional<Reply> reply;
    {
      // The scope lets the layers below (admission, the commit skeleton,
      // group-commit enqueue, WAL durability) stamp this request and the
      // DirectoryServer op annotate it, without plumbing.
      RequestScope scope(&item.record);
      reply = Execute(item.op, item.record.request_id, item.body, unbounded);
    }
    item.record.Mark(RequestStage::kExecuteDone);
    CountExecuted(item.record, reply->code);
    Completion completion;
    completion.fd = item.fd;
    completion.gen = item.gen;
    completion.reply = std::move(*reply);
    completion.record = std::move(item.record);
    PostCompletion(item.reactor, std::move(completion));
  }
}

void NetServer::PostCompletion(size_t reactor, Completion completion) {
  Reactor& r = *reactors_[reactor];
  {
    std::lock_guard<std::mutex> lock(r.completions_mu);
    r.completions.push_back(std::move(completion));
  }
  uint64_t one = 1;
  (void)!::write(r.wake_fd, &one, sizeof(one));
}

void NetServer::CountExecuted(RequestStamps& record, WireCode code) {
  record.outcome = WireOutcomeName(code);
  shared_->CountOutcome(code == WireCode::kOk);
}

NetServer::Reply NetServer::ErrorReply(WireOp op, uint64_t request_id,
                                       WireCode code, bool retryable,
                                       std::string message) {
  WireResponse response;
  response.op = op;
  response.request_id = request_id;
  response.code = code;
  response.retryable = retryable;
  response.message = std::move(message);
  return {EncodeResponseFrame(response), code};
}

NetServer::Reply NetServer::OkReply(std::string frame) {
  FinishResponseFrame(frame);
  return {std::move(frame), WireCode::kOk};
}

std::optional<NetServer::Reply> NetServer::Execute(WireOp op,
                                                   uint64_t request_id,
                                                   std::string_view body,
                                                   ReadBudget& budget) {
  auto fail = [&](const Status& status) {
    return ErrorReply(op, request_id, WireCodeFromStatus(status),
                      status.retryable(), status.ToString());
  };

  switch (op) {
    case WireOp::kSearch: {
      WireCursor cursor(body);
      auto base = cursor.GetString();
      if (!base.ok()) return fail(base.status());
      auto scope = cursor.GetU8();
      if (!scope.ok()) return fail(scope.status());
      auto filter = cursor.GetString();
      if (!filter.ok()) return fail(filter.status());
      PinnedSnapshot snap = server_->PinSnapshot();
      RequestScope::MarkCurrent(RequestStage::kSnapshotPinned);
      auto hits = SnapshotSearchPage(*snap, server_->vocab(), *base, *scope,
                                     *filter, /*from_label=*/0,
                                     /*limit=*/SIZE_MAX, &budget);
      if (budget.exhausted) return std::nullopt;
      if (!hits.ok()) return fail(hits.status());
      std::string frame =
          BeginResponseFrame(op, request_id, 4 + 8 * hits->size());
      PutU32(frame, static_cast<uint32_t>(hits->size()));
      for (const SnapshotPageHit& hit : *hits) PutU64(frame, hit.id);
      return OkReply(std::move(frame));
    }
    case WireOp::kSearchEntries:
      return ExecuteSearchEntries(request_id, body, budget);
    case WireOp::kAdd: {
      WireCursor cursor(body);
      auto dn_text = cursor.GetString();
      if (!dn_text.ok()) return fail(dn_text.status());
      auto dn = DistinguishedName::Parse(*dn_text);
      if (!dn.ok()) return fail(dn.status());
      auto nclasses = cursor.GetU16();
      if (!nclasses.ok()) return fail(nclasses.status());
      EntrySpec spec;
      for (uint16_t i = 0; i < *nclasses; ++i) {
        auto cls = cursor.GetString();
        if (!cls.ok()) return fail(cls.status());
        spec.classes.emplace_back(*cls);
      }
      auto nvalues = cursor.GetU16();
      if (!nvalues.ok()) return fail(nvalues.status());
      for (uint16_t i = 0; i < *nvalues; ++i) {
        auto attr = cursor.GetString();
        if (!attr.ok()) return fail(attr.status());
        auto value = cursor.GetString();
        if (!value.ok()) return fail(value.status());
        spec.values.emplace_back(std::string(*attr), std::string(*value));
      }
      Status status = server_->Add(*dn, std::move(spec));
      if (!status.ok()) return fail(status);
      return OkReply(BeginResponseFrame(op, request_id, 0));
    }
    case WireOp::kDelete: {
      WireCursor cursor(body);
      auto dn_text = cursor.GetString();
      if (!dn_text.ok()) return fail(dn_text.status());
      auto dn = DistinguishedName::Parse(*dn_text);
      if (!dn.ok()) return fail(dn.status());
      Status status = server_->Delete(*dn);
      if (!status.ok()) return fail(status);
      return OkReply(BeginResponseFrame(op, request_id, 0));
    }
    case WireOp::kValidate: {
      PinnedSnapshot snap = server_->PinSnapshot();
      RequestScope::MarkCurrent(RequestStage::kSnapshotPinned);
      LegalityChecker checker(server_->schema(),
                              server_->check_options());
      std::string frame = BeginResponseFrame(op, request_id, 1 + 8 + 8);
      PutU8(frame, checker.CheckStructure(*snap) ? 1 : 0);
      PutU64(frame, snap->num_alive);
      PutU64(frame, snap->version);
      return OkReply(std::move(frame));
    }
    default:
      return fail(Status::InvalidArgument(
          "unknown wire op " + std::to_string(static_cast<unsigned>(op))));
  }
}

std::optional<NetServer::Reply> NetServer::ExecuteSearchEntries(
    uint64_t request_id, std::string_view body, ReadBudget& budget) {
  constexpr WireOp kOp = WireOp::kSearchEntries;
  auto fail = [&](const Status& status) {
    return ErrorReply(kOp, request_id, WireCodeFromStatus(status),
                      status.retryable(), status.ToString());
  };

  WireCursor cursor(body);
  auto base = cursor.GetString();
  if (!base.ok()) return fail(base.status());
  auto scope = cursor.GetU8();
  if (!scope.ok()) return fail(scope.status());
  auto filter = cursor.GetString();
  if (!filter.ok()) return fail(filter.status());
  auto page_size = cursor.GetU32();
  if (!page_size.ok()) return fail(page_size.status());
  auto cookie = cursor.GetString();
  if (!cookie.ok()) return fail(cookie.status());
  if (*page_size == 0) {
    return fail(
        Status::InvalidArgument("search-entries: page_size must be > 0"));
  }
  const size_t limit = std::min(*page_size, kMaxSearchEntriesPage);

  const auto now = std::chrono::steady_clock::now();
  uint64_t cursor_id = 0;
  uint64_t from_label = 0;
  DirectorySnapshot snap;
  if (cookie->empty()) {
    PinnedSnapshot pinned = server_->PinSnapshot();
    RequestScope::MarkCurrent(RequestStage::kSnapshotPinned);
    // Copy the snapshot by value and release the pin immediately: the
    // copy retains exactly this version's COW state through refcounts,
    // while a pin held across pages (worse, across client think time)
    // would stall reclamation for every reader.
    snap = *pinned;
    pinned.Release();
  } else {
    auto decoded = DecodeSearchCookie(*cookie);
    if (!decoded.ok()) {
      // A cookie the server never minted is a protocol error; the
      // reactor closes the connection after this frame flushes.
      return ErrorReply(kOp, request_id, WireCode::kProtocolError,
                        /*retryable=*/false, decoded.status().message());
    }
    cursor_id = decoded->cursor_id;
    from_label = decoded->next_label;
    std::lock_guard<std::mutex> lock(cursors_mu_);
    auto it = cursors_.find(cursor_id);
    if (it == cursors_.end() ||
        it->second.snapshot_version != decoded->snapshot_version) {
      return ErrorReply(kOp, request_id, WireCode::kCursorExpired,
                        /*retryable=*/true,
                        "search-entries: pagination cursor expired (reaped "
                        "or superseded); restart from an empty cookie");
    }
    it->second.last_used = now;
    // Copy out under the lock: the idle reaper may erase this slot the
    // moment we release it, and the copy keeps the version alive.
    snap = it->second.snap;
  }

  auto page = SnapshotSearchPage(snap, server_->vocab(), *base, *scope,
                                 *filter, from_label, limit + 1, &budget);
  // Stopped at the budget: return before the failure branch below, which
  // would erase the cursor the worker's rerun continues.
  if (budget.exhausted) return std::nullopt;
  if (!page.ok()) {
    if (cursor_id != 0) {
      std::lock_guard<std::mutex> lock(cursors_mu_);
      cursors_.erase(cursor_id);
      shared_->g_cursors_open.Set(static_cast<int64_t>(cursors_.size()));
    }
    return fail(page.status());
  }
  const bool has_more = page->size() > limit;
  if (has_more) page->resize(limit);
  if (!budget.Spend(page->size())) return std::nullopt;

  // The entries go straight into the frame, behind a cookie placeholder
  // the cursor id fills in below; a failure drops the frame before the
  // cursor table is touched.
  std::string frame =
      BeginResponseFrame(kOp, request_id, 4 + 1 + 4 + kSearchCookieBytes);
  PutU32(frame, static_cast<uint32_t>(page->size()));
  PutU8(frame, has_more ? 1 : 0);
  PutU32(frame, has_more ? kSearchCookieBytes : 0);
  const size_t cookie_at = frame.size();
  if (has_more) frame.resize(cookie_at + kSearchCookieBytes);
  for (const SnapshotPageHit& hit : *page) {
    auto dn = SnapshotEntryDn(snap, hit.id);
    if (!dn.ok()) return fail(dn.status());
    Status appended = AppendSearchEntry(frame, hit.id, *dn,
                                        snap.Content(hit.id), server_->vocab());
    if (!appended.ok()) return fail(appended);
  }

  if (has_more) {
    std::lock_guard<std::mutex> lock(cursors_mu_);
    if (cursor_id == 0) {
      // First page of a multi-page scan: the cursor slot is what keeps
      // the snapshot version retained between pages. Single-page scans
      // never touch the table.
      cursor_id = next_cursor_id_++;
      PagedCursor cur;
      cur.snap = snap;
      cur.snapshot_version = snap.version;
      cur.last_used = now;
      cursors_.emplace(cursor_id, std::move(cur));
      shared_->g_cursors_open.Set(static_cast<int64_t>(cursors_.size()));
    }
    WireSearchCookie next;
    next.cursor_id = cursor_id;
    next.snapshot_version = snap.version;
    next.next_label = page->back().label + 1;
    frame.replace(cookie_at, kSearchCookieBytes, EncodeSearchCookie(next));
  } else if (cursor_id != 0) {
    std::lock_guard<std::mutex> lock(cursors_mu_);
    cursors_.erase(cursor_id);
    shared_->g_cursors_open.Set(static_cast<int64_t>(cursors_.size()));
  }
  return OkReply(std::move(frame));
}

namespace {

/// A wire search filter resolved against one snapshot: the posting that
/// answers it, or `match_all` for the filters every entry passes.
struct PostingFilter {
  bool match_all = false;
  const EntrySet* members = nullptr;              // (objectClass=C)
  const std::vector<EntryId>* posting = nullptr;  // (attr=value)
  size_t size = 0;  ///< posting length; 0 when nothing can match

  bool Contains(EntryId id) const {
    if (match_all) return true;
    if (members != nullptr) return members->Contains(id);
    return posting != nullptr &&
           std::binary_search(posting->begin(), posting->end(), id);
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (members != nullptr) members->ForEach(fn);
    if (posting != nullptr) std::for_each(posting->begin(), posting->end(), fn);
  }
};

/// Supports the filters a snapshot can answer from postings alone. A name
/// unknown to the schema or a value that does not parse as the
/// attribute's type matches nothing (LDAP filter semantics), it is not an
/// error; only a filter *shape* the snapshot cannot answer is rejected.
Result<PostingFilter> ResolveFilter(const DirectorySnapshot& snapshot,
                                    const Vocabulary& vocab,
                                    std::string_view filter) {
  PostingFilter match;
  std::string_view f = StripWhitespace(filter);
  if (!f.empty() && f.front() == '(' && f.back() == ')') {
    f = f.substr(1, f.size() - 2);
  }
  if (f.empty() || EqualsIgnoreCase(f, "objectClass=*")) {
    match.match_all = true;
    return match;
  }
  // Refused by shape: a compound (&, |, !), an ordering or approximate
  // match (>=, <=, ~=), a presence or substring value, nested parentheses.
  size_t eq = f.find('=');
  if (eq == std::string_view::npos || eq == 0 ||
      std::string_view("&|!").find(f.front()) != std::string_view::npos ||
      std::string_view("<>~").find(f[eq - 1]) != std::string_view::npos ||
      f.find_first_of("()*") != std::string_view::npos) {
    return Status::InvalidArgument(
        "search: unsupported filter '" + std::string(filter) +
        "' (the wire path answers \"\", \"(objectClass=*)\", "
        "\"(objectClass=C)\" and \"(attr=value)\" filters)");
  }
  std::string_view attr = StripWhitespace(f.substr(0, eq));
  std::string_view value = f.substr(eq + 1);
  if (EqualsIgnoreCase(attr, "objectClass")) {
    auto cls = vocab.FindClass(value);
    if (cls.ok()) {
      match.members = snapshot.ClassSet(*cls);
      match.size = snapshot.CountWithClass(*cls);
    }
    return match;
  }
  auto attr_id = vocab.FindAttribute(attr);
  if (!attr_id.ok()) return match;
  auto parsed = Value::Parse(vocab.AttributeType(*attr_id), value);
  if (parsed.ok()) match.posting = snapshot.ValuePosting(*attr_id, *parsed);
  if (match.posting != nullptr) match.size = match.posting->size();
  return match;
}

/// Walks the base DN's RDN chain root-first through the snapshot's
/// sibling-RDN index; "" is the whole forest (kInvalidEntryId).
Result<EntryId> ResolveBase(const DirectorySnapshot& snapshot,
                            std::string_view base_dn, SearchScope scope) {
  if (base_dn.empty()) {
    if (scope == SearchScope::kBase) {
      return Status::InvalidArgument("search: base scope needs a base DN");
    }
    return kInvalidEntryId;
  }
  LDAPBOUND_ASSIGN_OR_RETURN(DistinguishedName dn,
                             DistinguishedName::Parse(base_dn));
  EntryId base = kInvalidEntryId;
  const auto& rdns = dn.rdns();
  for (size_t i = rdns.size(); i-- > 0;) {
    base = snapshot.FindChildByRdn(base, rdns[i]);
    if (base == kInvalidEntryId) {
      return Status::NotFound("search base '" + std::string(base_dn) +
                              "' does not exist");
    }
  }
  return base;
}

}  // namespace

Result<std::vector<EntryId>> SnapshotSearch(const DirectorySnapshot& snapshot,
                                            const Vocabulary& vocab,
                                            std::string_view base_dn,
                                            uint8_t scope,
                                            std::string_view filter) {
  LDAPBOUND_ASSIGN_OR_RETURN(
      std::vector<SnapshotPageHit> hits,
      SnapshotSearchPage(snapshot, vocab, base_dn, scope, filter,
                         /*from_label=*/0, /*limit=*/SIZE_MAX));
  std::vector<EntryId> ids;
  ids.reserve(hits.size());
  for (const SnapshotPageHit& hit : hits) ids.push_back(hit.id);
  return ids;
}

Result<std::vector<SnapshotPageHit>> SnapshotSearchPage(
    const DirectorySnapshot& snapshot, const Vocabulary& vocab,
    std::string_view base_dn, uint8_t scope, std::string_view filter,
    uint64_t from_label, size_t limit, ReadBudget* budget) {
  ReadBudget unbounded;
  ReadBudget& work = budget != nullptr ? *budget : unbounded;
  if (scope > 2) {
    return Status::InvalidArgument("search: bad scope " +
                                   std::to_string(scope));
  }
  const SearchScope search_scope = static_cast<SearchScope>(scope);
  LDAPBOUND_ASSIGN_OR_RETURN(EntryId base,
                             ResolveBase(snapshot, base_dn, search_scope));
  LDAPBOUND_ASSIGN_OR_RETURN(PostingFilter match,
                             ResolveFilter(snapshot, vocab, filter));
  const CowVec<uint64_t>::View& labels = snapshot.index.labels;
  std::vector<SnapshotPageHit> hits;
  const size_t posting = match.match_all ? SIZE_MAX : match.size;
  if (posting == 0 || limit == 0) return hits;

  // Walk the scope in preorder, unless it outgrows the filter's posting:
  // past `posting` visited entries, iterating the posting is cheaper.
  size_t visited = 0;
  snapshot.WalkScope(base, search_scope, from_label, [&](EntryId id) {
    if (++visited > posting || !work.Spend(1)) return false;
    if (match.Contains(id)) hits.push_back(SnapshotPageHit{labels[id], id});
    return hits.size() < limit;
  });
  if (work.exhausted) return std::vector<SnapshotPageHit>{};
  if (visited <= posting) return hits;

  // The posting is the smaller side: label-test its members against the
  // scope, then put the survivors in preorder.
  if (!work.Spend(match.size)) return std::vector<SnapshotPageHit>{};
  hits.clear();
  const uint64_t base_label = base == kInvalidEntryId ? 0 : labels[base];
  const uint64_t base_end =
      base == kInvalidEntryId ? 0 : snapshot.index.end_labels[base];
  auto in_scope = [&](EntryId id, uint64_t label) {
    switch (search_scope) {
      case SearchScope::kBase:
        return id == base;
      case SearchScope::kOneLevel:
        return snapshot.parent(id) == base;
      case SearchScope::kSubtree:
        break;
    }
    return base == kInvalidEntryId || (label >= base_label && label < base_end);
  };
  match.ForEach([&](EntryId id) {
    if (!snapshot.IsAlive(id)) return;
    uint64_t label = labels.Get(id, ForestIndex::kNoLabel);
    if (label >= from_label && in_scope(id, label)) {
      hits.push_back(SnapshotPageHit{label, id});
    }
  });
  auto by_label = [](const SnapshotPageHit& a, const SnapshotPageHit& b) {
    return a.label < b.label;
  };
  if (hits.size() > limit) {
    std::partial_sort(hits.begin(), hits.begin() + limit, hits.end(),
                      by_label);
    hits.resize(limit);
  } else {
    std::sort(hits.begin(), hits.end(), by_label);
  }
  return hits;
}

Result<std::string> SnapshotEntryDn(const DirectorySnapshot& snapshot,
                                    EntryId id) {
  std::string dn;
  dn.reserve(64);  // one allocation for a typical DN
  for (EntryId cur = id; cur != kInvalidEntryId; cur = snapshot.parent(cur)) {
    const EntryContent* content = snapshot.Content(cur);
    if (content == nullptr) {
      return Status::Internal("snapshot holds no content for entry " +
                              std::to_string(cur));
    }
    if (!dn.empty()) dn += ",";
    dn += content->rdn;
  }
  return dn;
}

}  // namespace ldapbound
