// `perfbench_client load`: the wire-protocol load generator. One thread,
// one epoll loop, a fixed set of connections (4 by default) to a running
// `ldapbound serve --port`:
//
//   warmup  open loop at the offered rate, discarded;
//   open    open loop: the seeded schedule (Poisson arrivals at a fixed
//           rate), each request timed from its *scheduled* send time, so
//           a stall is charged to every request queued behind it;
//   closed  one request outstanding per connection, next sent on reply;
//   probe   (optional) a short closed-loop write burst, for the per-layer
//           commit-path metrics of a workload that never writes.
//
// Every answer is checked against the generator's ground truth; the
// result is one JSON object on stdout.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "commands.h"
#include "opstream.h"
#include "server/wire.h"

namespace perfbench {

using namespace ldapbound;

namespace {

constexpr const char* kBaseDn = "o=acme";
constexpr const char* kPersonFilter = "(objectClass=person)";
constexpr uint8_t kSubtree = 2;

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t SelfCpuNs() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/// CPU time of every thread of `pid` (schedstat: ns on CPU).
uint64_t ProcessCpuNs(int pid) {
  std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  uint64_t total = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    uint64_t ns = 0;
    if (in >> ns) total += ns;
  }
  closedir(d);
  return total;
}

uint64_t ProcessRssKb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// The Prometheus series of the server's /metrics page we keep deltas of.
std::map<std::string, double> Scrape(uint16_t port) {
  std::map<std::string, double> series;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return series;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string body;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const char req[] = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
    if (::send(fd, req, sizeof(req) - 1, MSG_NOSIGNAL) > 0) {
      char buf[65536];
      ssize_t n;
      while ((n = ::read(fd, buf, sizeof(buf))) > 0) body.append(buf, n);
    }
  }
  ::close(fd);
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("ldapbound_wire_stage_ns_sum", 0) != 0 &&
        line.rfind("ldapbound_wire_stage_ns_count", 0) != 0 &&
        line.rfind("ldapbound_wal_", 0) != 0) {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string name = line.substr(0, space);
    if (name.find("_bucket") != std::string::npos) continue;
    series[name] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return series;
}

/// Median and highest reportable percentile of `values`, with the count.
std::string Summary(const std::vector<double>& values) {
  double top = HighestReportablePercentile(values.size());
  std::string out = "{\"n\": " + std::to_string(values.size());
  out += ", \"p50\": " + JsonNumber(Percentile(values, 50));
  out += ", \"p90\": " + JsonNumber(values.size() >= 100 ? Percentile(values, 90)
                                                      : 0);
  out += ", \"p95\": " + JsonNumber(values.size() >= 200 ? Percentile(values, 95)
                                                      : 0);
  out += ", \"top_pct\": " + JsonNumber(top);
  out += ", \"top\": " + JsonNumber(top > 0 ? Percentile(values, top) : 0);
  out += ", \"p99\": " + JsonNumber(values.size() >= 1000 ? Percentile(values, 99)
                                                    : 0);
  return out + "}";
}

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  bool want_write = false;
  bool dead = false;
  // The paged scan this connection is in the middle of.
  bool scanning = false;
  std::string cookie;
  uint32_t scan_unit = 0;
  uint32_t scan_no = 0;
  uint64_t scan_seen = 0;
  uint64_t scan_deleted_at_start = 0;
};

struct Record {
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
  uint64_t aux = 0;  ///< scan: deletes acked in its unit when it was sent
  uint8_t phase = 0;
  uint8_t window = 0;  ///< open loop: which sub-window its due time is in
  bool sent = false;
  bool done = false;
  bool ok = false;
  bool deferred = false;
};

enum Phase : uint8_t { kWarmup = 0, kOpen, kClosed, kProbe, kNumPhases };
const char* const kPhaseNames[kNumPhases] = {"warmup", "open", "closed",
                                             "probe"};

struct PhaseStats {
  std::vector<double> latency_us[kNumOpKinds];
  std::vector<double> lateness_us;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t deferred = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t client_cpu_ns = 0;
  uint64_t server_cpu_ns = 0;
  uint64_t server_rss_kb = 0;
  std::map<std::string, double> scrape_delta;
  // Sub-windows (open loop: equal slices of the schedule; closed loop:
  // one second each), so the caller can report medians over them.
  std::vector<std::vector<double>> window_lookup_us;
  std::vector<double> window_server_cpu_s;
  std::vector<uint64_t> window_ops;
};

class LoadRun {
 public:
  LoadRun(const Truth& truth, Workload workload, uint64_t seed,
          uint32_t page_size, bool inject_wrong)
      : truth_(truth),
        workload_(workload),
        seed_(seed),
        page_size_(page_size),
        inject_wrong_(inject_wrong),
        added_sent_(truth.units.size(), 0),
        deleted_acked_(truth.units.size(), 0) {}

  LoadRun(const LoadRun&) = delete;
  LoadRun& operator=(const LoadRun&) = delete;

  ~LoadRun() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (timer_fd_ >= 0) ::close(timer_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  bool Connect(uint16_t port, int count) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (epoll_fd_ < 0 || timer_fd_ < 0) return false;
    epoll_event tev{};
    tev.events = EPOLLIN;
    tev.data.u64 = ~0ull;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &tev);
    conns_.resize(count);
    for (int i = 0; i < count; ++i) {
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 ||
          ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
              0) {
        if (fd >= 0) ::close(fd);
        return false;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_[i].fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = static_cast<uint64_t>(i);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }
    return true;
  }

  /// Runs one open-loop phase over `schedule` (dependency indexes local
  /// to it, due times within `seconds`), then drains its replies. Server
  /// CPU is sampled as the schedule enters each of `windows` slices.
  void RunOpen(Phase phase, std::vector<Op> schedule, double seconds,
               int windows) {
    const int64_t base = static_cast<int64_t>(ops_.size());
    const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9 / windows);
    PhaseStats& stats = stats_[phase];
    stats.window_lookup_us.resize(windows);
    stats.window_ops.assign(windows, 0);
    for (Op& op : schedule) {
      if (op.dep >= 0) op.dep += base;
      Record rec;
      rec.phase = phase;
      rec.window = static_cast<uint8_t>(
          std::min<uint64_t>(op.due_ns / window_ns, windows - 1));
      stats.window_ops[rec.window]++;
      ops_.push_back(std::move(op));
      records_.push_back(rec);
    }
    phase_ = phase;
    closed_ = false;
    BeginPhase(stats);
    std::vector<uint64_t> cpu_marks;
    size_t next = static_cast<size_t>(base);
    const uint64_t start = stats.start_ns;
    while (next < ops_.size()) {
      uint64_t now = NowNs();
      while (next < ops_.size() && start + ops_[next].due_ns <= now) {
        while (cpu_marks.size() <= records_[next].window) {
          cpu_marks.push_back(ProcessCpuNs(server_pid_));
        }
        TrySend(next, now);
        ++next;
      }
      if (next < ops_.size()) Wait(start + ops_[next].due_ns);
    }
    cpu_marks.push_back(ProcessCpuNs(server_pid_));
    for (size_t w = 0; w + 1 < cpu_marks.size(); ++w) {
      stats.window_server_cpu_s.push_back(
          static_cast<double>(cpu_marks[w + 1] - cpu_marks[w]) / 1e9);
    }
    Drain();
    EndPhase(stats);
  }

  /// One request outstanding per connection for `seconds`; server CPU is
  /// sampled at every whole second.
  void RunClosed(Phase phase, Workload mix, double seconds) {
    streams_.clear();
    for (size_t c = 0; c < conns_.size(); ++c) {
      streams_.emplace_back(mix, truth_, seed_, phase,
                            static_cast<uint8_t>(c));
    }
    phase_ = phase;
    closed_ = true;
    PhaseStats& stats = stats_[phase];
    BeginPhase(stats);
    closed_end_ns_ = stats.start_ns + static_cast<uint64_t>(seconds * 1e9);
    const size_t windows = static_cast<size_t>(std::ceil(seconds));
    stats.window_ops.assign(windows, 0);
    uint64_t cpu_mark = ProcessCpuNs(server_pid_);
    for (size_t c = 0; c < conns_.size(); ++c) IssueNext(c);
    for (size_t w = 1; w <= windows; ++w) {
      const uint64_t boundary =
          std::min<uint64_t>(stats.start_ns + w * 1000000000ull, closed_end_ns_);
      while (NowNs() < boundary) Wait(boundary);
      uint64_t now_cpu = ProcessCpuNs(server_pid_);
      stats.window_server_cpu_s.push_back(
          static_cast<double>(now_cpu - cpu_mark) / 1e9);
      cpu_mark = now_cpu;
    }
    stats.end_ns = NowNs();  // the measured window ends here
    Drain();
    uint64_t window_end = stats.end_ns;
    EndPhase(stats);
    stats.end_ns = window_end;
    closed_ = false;
  }

  void ScrapeInto(PhaseStats& stats, bool begin) {
    if (monitor_port_ == 0) return;
    std::map<std::string, double> now = Scrape(monitor_port_);
    if (begin) {
      scrape_begin_ = now;
      return;
    }
    for (const auto& [name, value] : now) {
      auto it = scrape_begin_.find(name);
      stats.scrape_delta[name] =
          value - (it == scrape_begin_.end() ? 0 : it->second);
    }
  }

  void set_server(int pid, uint16_t monitor_port) {
    server_pid_ = pid;
    monitor_port_ = monitor_port;
  }

  std::string ResultJson() const;

  size_t wrong() const { return wrong_; }

 private:
  void BeginPhase(PhaseStats& stats) {
    ScrapeInto(stats, /*begin=*/true);
    stats.server_cpu_ns = server_pid_ > 0 ? ProcessCpuNs(server_pid_) : 0;
    stats.client_cpu_ns = SelfCpuNs();
    stats.start_ns = NowNs();
  }

  void EndPhase(PhaseStats& stats) {
    stats.end_ns = NowNs();
    stats.client_cpu_ns = SelfCpuNs() - stats.client_cpu_ns;
    if (server_pid_ > 0) {
      stats.server_cpu_ns = ProcessCpuNs(server_pid_) - stats.server_cpu_ns;
      stats.server_rss_kb = ProcessRssKb(server_pid_);
    }
    ScrapeInto(stats, /*begin=*/false);
  }

  void IssueNext(size_t c) {
    if (conns_[c].dead || NowNs() >= closed_end_ns_) return;
    int64_t index = static_cast<int64_t>(ops_.size());
    ops_.push_back(streams_[c].Next(index));
    records_.push_back(Record{});
    records_.back().phase = phase_;
    TrySend(static_cast<size_t>(index), NowNs());
  }

  void TrySend(size_t i, uint64_t now) {
    const Op& op = ops_[i];
    stats_[records_[i].phase].attempted++;
    if (op.dep >= 0 && !records_[op.dep].done) {
      records_[i].deferred = true;
      stats_[records_[i].phase].deferred++;
      waiters_[op.dep].push_back(i);
      ++parked_;
      return;
    }
    if (op.dep >= 0 && !records_[op.dep].ok && op.kind != OpKind::kPage) {
      Fail(i);  // its add never landed
      return;
    }
    if (!records_[i].deferred && !closed_) {
      stats_[records_[i].phase].lateness_us.push_back(
          (static_cast<double>(now) -
           static_cast<double>(stats_[records_[i].phase].start_ns +
                               op.due_ns)) /
          1e3);
    }
    Send(i);
  }

  void Send(size_t i) {
    Op& op = ops_[i];
    Conn& conn = conns_[op.conn];
    Record& rec = records_[i];
    if (conn.dead) {
      Fail(i);
      return;
    }
    const uint64_t rid = i + 1;
    std::string frame;
    switch (op.kind) {
      case OpKind::kLookup:
        frame = EncodeSearchRequest(rid, kBaseDn, kSubtree,
                                    "(uid=" + op.uid + ")");
        break;
      case OpKind::kScan:
        rec.aux = deleted_acked_[op.unit];
        frame = EncodeSearchRequest(rid, op.dn, kSubtree, kPersonFilter);
        break;
      case OpKind::kPage:
        if (!conn.scanning) {
          conn.scanning = true;
          conn.cookie.clear();
          conn.scan_seen = 0;
          conn.scan_unit = truth_.leaf_units[MixSeed(
              MixSeed(seed_, op.conn), conn.scan_no++) %
              truth_.leaf_units.size()];
          conn.scan_deleted_at_start = deleted_acked_[conn.scan_unit];
        }
        op.unit = conn.scan_unit;
        frame = EncodeSearchEntriesRequest(rid, truth_.units[op.unit].dn,
                                           kSubtree, kPersonFilter,
                                           page_size_, conn.cookie);
        break;
      case OpKind::kAdd:
      case OpKind::kIllegalAdd: {
        if (op.kind == OpKind::kAdd) added_sent_[op.unit]++;
        AddPayload p = PayloadOf(op);
        frame = EncodeAddRequest(rid, op.dn, p.classes, p.values);
        break;
      }
      case OpKind::kDelete:
        frame = EncodeDeleteRequest(rid, op.dn);
        break;
      case OpKind::kPing:
        frame = EncodePingRequest(rid);
        break;
    }
    rec.sent = true;
    rec.sent_ns = NowNs();
    ++outstanding_;
    conn.out += frame;
    Flush(op.conn);
  }

  void Flush(size_t c) {
    Conn& conn = conns_[c];
    while (!conn.out.empty()) {
      ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                         MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      Kill(c);
      return;
    }
    bool want = !conn.out.empty();
    if (want != conn.want_write) {
      conn.want_write = want;
      epoll_event ev{};
      ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
      ev.data.u64 = c;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
    }
  }

  /// Waits for socket events or `until_ns` (0: a short poll).
  void Wait(uint64_t until_ns) {
    int timeout_ms = 20;
    if (until_ns != 0) {
      uint64_t now = NowNs();
      if (until_ns <= now) return;
      itimerspec spec{};
      spec.it_value.tv_sec = static_cast<time_t>(until_ns / 1000000000ull);
      spec.it_value.tv_nsec = static_cast<long>(until_ns % 1000000000ull);
      ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
      timeout_ms = -1;
    }
    epoll_event events[16];
    int n = ::epoll_wait(epoll_fd_, events, 16, timeout_ms);
    for (int k = 0; k < n; ++k) {
      if (events[k].data.u64 == ~0ull) {
        uint64_t expirations;
        (void)!::read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      size_t c = static_cast<size_t>(events[k].data.u64);
      if (events[k].events & EPOLLOUT) Flush(c);
      if (events[k].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) Read(c);
    }
  }

  void Drain() {
    const uint64_t deadline = NowNs() + 10'000'000'000ull;
    while ((outstanding_ > 0 || parked_ > 0) && NowNs() < deadline) {
      Wait(deadline);
    }
    // Whatever is still unanswered counts as dropped.
    waiters_.clear();
    for (Record& rec : records_) {
      if (!rec.done && (rec.sent || rec.deferred)) {
        rec.done = true;
        stats_[rec.phase].failed++;
      }
    }
    outstanding_ = 0;
    parked_ = 0;
  }

  void Read(size_t c) {
    Conn& conn = conns_[c];
    if (conn.dead) return;
    char buf[65536];
    for (;;) {
      ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        conn.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      Kill(c);
      return;
    }
    size_t pos = 0;
    while (conn.in.size() - pos >= 4) {
      uint32_t len;
      std::memcpy(&len, conn.in.data() + pos, 4);
      if (conn.in.size() - pos - 4 < len) break;
      auto response = DecodeResponsePayload(
          std::string_view(conn.in).substr(pos + 4, len));
      pos += 4 + len;
      if (!response.ok()) {
        Wrong(0, "undecodable response: " + response.status().ToString());
        continue;
      }
      OnResponse(*response);
    }
    conn.in.erase(0, pos);
  }

  void Kill(size_t c) {
    Conn& conn = conns_[c];
    if (conn.dead) return;
    conn.dead = true;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    for (size_t i = 0; i < records_.size(); ++i) {
      if (ops_[i].conn == c && records_[i].sent && !records_[i].done) {
        --outstanding_;
        Fail(i);
      }
    }
  }

  void Fail(size_t i) {
    Record& rec = records_[i];
    if (rec.done) return;
    rec.done = true;
    rec.ok = false;
    rec.done_ns = NowNs();
    stats_[rec.phase].failed++;
    Release(i);
  }

  void Wrong(size_t i, const std::string& why) {
    ++wrong_;
    if (wrong_examples_.size() < 5) {
      std::string what = i < ops_.size()
                             ? std::string(OpKindName(ops_[i].kind)) + " " +
                                   ops_[i].dn + ops_[i].uid + ": "
                             : "";
      wrong_examples_.push_back(what + why);
    }
  }

  /// Sends the ops parked on `i` (or fails them when `i` failed).
  void Release(size_t i) {
    auto it = waiters_.find(static_cast<int64_t>(i));
    if (it != waiters_.end()) {
      std::vector<size_t> waiting = std::move(it->second);
      waiters_.erase(it);
      for (size_t w : waiting) {
        --parked_;
        if (records_[i].ok || ops_[w].kind == OpKind::kPage) {
          Send(w);
        } else {
          Fail(w);
        }
      }
    }
    if (closed_ && records_[i].phase == phase_) IssueNext(ops_[i].conn);
  }

  void OnResponse(const WireResponse& response) {
    size_t i = static_cast<size_t>(response.request_id - 1);
    if (response.request_id == 0 || i >= ops_.size() || !records_[i].sent ||
        records_[i].done) {
      Wrong(ops_.size(), "reply to an unknown request id");
      return;
    }
    --outstanding_;
    Record& rec = records_[i];
    rec.done = true;
    rec.done_ns = NowNs();
    Verdict verdict = Check(i, response);
    PhaseStats& stats = stats_[rec.phase];
    if (verdict == Verdict::kCorrect) {
      rec.ok = true;
      stats.completed++;
      uint64_t from = rec.phase == kClosed || rec.phase == kProbe
                          ? rec.sent_ns
                          : stats.start_ns + ops_[i].due_ns;
      double us =
          (static_cast<double>(rec.done_ns) - static_cast<double>(from)) / 1e3;
      stats.latency_us[static_cast<int>(ops_[i].kind)].push_back(us);
      if (!stats.window_lookup_us.empty() && ops_[i].kind == OpKind::kLookup) {
        stats.window_lookup_us[rec.window].push_back(us);
      }
      if (closed_ && rec.done_ns < closed_end_ns_) {
        stats.window_ops[(rec.done_ns - stats.start_ns) / 1000000000ull]++;
      }
    } else {
      stats.failed++;
    }
    Release(i);
  }

  enum class Verdict { kCorrect, kShed, kWrong };

  Verdict Check(size_t i, const WireResponse& r) {
    const Op& op = ops_[i];
    Conn& conn = conns_[op.conn];
    static const WireOp kWireOp[kNumOpKinds] = {
        WireOp::kSearch, WireOp::kSearch, WireOp::kSearchEntries,
        WireOp::kAdd,    WireOp::kDelete, WireOp::kAdd,
        WireOp::kPing};
    if (r.op != kWireOp[static_cast<int>(op.kind)]) {
      Wrong(i, "reply carries the wrong op");
      return Verdict::kWrong;
    }
    if (op.kind == OpKind::kIllegalAdd) {
      ++planted_illegal_;
      if (r.code == WireCode::kIllegal && !r.retryable) {
        ++illegal_rejected_;
        return Verdict::kCorrect;
      }
      Wrong(i, "planted illegal add answered code " +
                   std::to_string(static_cast<int>(r.code)));
      return Verdict::kWrong;
    }
    if (!r.ok()) {
      if (op.kind == OpKind::kPage) conn.scanning = false;
      if (r.retryable) return Verdict::kShed;
      Wrong(i, "code " + std::to_string(static_cast<int>(r.code)) + ": " +
                   r.message.substr(0, 200));
      return Verdict::kWrong;
    }
    switch (op.kind) {
      case OpKind::kPing:
        return Verdict::kCorrect;
      case OpKind::kLookup: {
        auto ids = DecodeSearchResponseBody(r.body);
        int64_t expect = op.expect;
        if (inject_wrong_ && !injected_) {
          injected_ = true;
          expect = 1 - expect;  // a deliberately wrong expectation
        }
        if (!ids.ok() || static_cast<int64_t>(ids->size()) != expect) {
          Wrong(i, "lookup expected " + std::to_string(expect) + " ids");
          return Verdict::kWrong;
        }
        return Verdict::kCorrect;
      }
      case OpKind::kScan: {
        auto ids = DecodeSearchResponseBody(r.body);
        uint64_t lo = truth_.units[op.unit].persons;
        uint64_t hi = lo + added_sent_[op.unit] - records_[i].aux;
        if (!ids.ok() || ids->size() < lo || ids->size() > hi) {
          Wrong(i, "scan of " + truth_.units[op.unit].dn + " returned " +
                       (ids.ok() ? std::to_string(ids->size()) : "garbage") +
                       ", expected " + std::to_string(lo) + ".." +
                       std::to_string(hi));
          return Verdict::kWrong;
        }
        return Verdict::kCorrect;
      }
      case OpKind::kPage: {
        auto page = DecodeSearchEntriesResponseBody(r.body);
        const std::string suffix = "," + truth_.units[op.unit].dn;
        bool good = page.ok() && page->entries.size() <= page_size_;
        if (good) {
          for (const WireEntry& e : page->entries) {
            bool person = false;
            for (const std::string& c : e.classes) person |= c == "person";
            if (!person || e.dn.rfind("uid=", 0) != 0 ||
                e.dn.size() <= suffix.size() ||
                e.dn.compare(e.dn.size() - suffix.size(), suffix.size(),
                             suffix) != 0) {
              good = false;
            }
          }
        }
        if (!good) {
          conn.scanning = false;
          Wrong(i, "page of " + truth_.units[op.unit].dn + " is malformed");
          return Verdict::kWrong;
        }
        conn.scan_seen += page->entries.size();
        if (page->has_more) {
          conn.cookie = page->cookie;
          return Verdict::kCorrect;
        }
        conn.scanning = false;
        uint64_t lo = truth_.units[op.unit].persons;
        uint64_t hi = lo + added_sent_[op.unit] - conn.scan_deleted_at_start;
        if (conn.scan_seen < lo || conn.scan_seen > hi) {
          Wrong(i, "paged scan of " + truth_.units[op.unit].dn + " saw " +
                       std::to_string(conn.scan_seen) + " persons");
          return Verdict::kWrong;
        }
        return Verdict::kCorrect;
      }
      case OpKind::kAdd:
        ++acked_adds_;
        return Verdict::kCorrect;
      case OpKind::kDelete:
        ++acked_deletes_;
        deleted_acked_[op.unit]++;
        return Verdict::kCorrect;
      case OpKind::kIllegalAdd:
        break;
    }
    return Verdict::kWrong;
  }

  const Truth& truth_;
  Workload workload_;
  uint64_t seed_;
  uint32_t page_size_;
  bool inject_wrong_;
  bool injected_ = false;

  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<Op> ops_;
  std::vector<Record> records_;
  std::unordered_map<int64_t, std::vector<size_t>> waiters_;
  std::vector<ConnStream> streams_;
  size_t outstanding_ = 0;
  size_t parked_ = 0;
  Phase phase_ = kWarmup;
  bool closed_ = false;
  uint64_t closed_end_ns_ = 0;

  int server_pid_ = 0;
  uint16_t monitor_port_ = 0;
  std::map<std::string, double> scrape_begin_;

  std::vector<uint64_t> added_sent_;
  std::vector<uint64_t> deleted_acked_;
  uint64_t acked_adds_ = 0;
  uint64_t acked_deletes_ = 0;
  uint64_t planted_illegal_ = 0;
  uint64_t illegal_rejected_ = 0;
  size_t wrong_ = 0;
  std::vector<std::string> wrong_examples_;

 public:
  PhaseStats stats_[kNumPhases];
};

std::string LoadRun::ResultJson() const {
  std::string out = "{\"workload\": " + JsonString(WorkloadName(workload_));
  out += ", \"wrong\": " + std::to_string(wrong_);
  out += ", \"wrong_examples\": [";
  for (size_t k = 0; k < wrong_examples_.size(); ++k) {
    out += (k ? ", " : "") + JsonString(wrong_examples_[k]);
  }
  out += "], \"acked_adds\": " + std::to_string(acked_adds_);
  out += ", \"acked_deletes\": " + std::to_string(acked_deletes_);
  out += ", \"planted_illegal\": " + std::to_string(planted_illegal_);
  out += ", \"illegal_rejected\": " + std::to_string(illegal_rejected_);
  out += ", \"phases\": {";
  bool first = true;
  for (int p = 0; p < kNumPhases; ++p) {
    const PhaseStats& s = stats_[p];
    if (s.start_ns == 0) continue;
    out += first ? "" : ", ";
    first = false;
    out += JsonString(kPhaseNames[p]) + ": {";
    out += "\"attempted\": " + std::to_string(s.attempted);
    out += ", \"completed\": " + std::to_string(s.completed);
    out += ", \"failed\": " + std::to_string(s.failed);
    out += ", \"deferred\": " + std::to_string(s.deferred);
    out += ", \"window_s\": " + JsonNumber((s.end_ns - s.start_ns) / 1e9);
    out += ", \"client_cpu_s\": " + JsonNumber(s.client_cpu_ns / 1e9);
    out += ", \"server_cpu_s\": " + JsonNumber(s.server_cpu_ns / 1e9);
    out += ", \"server_rss_kb\": " + std::to_string(s.server_rss_kb);
    out += ", \"lateness_us\": " + Summary(s.lateness_us);
    out += ", \"latency_us\": {";
    for (int k = 0; k < kNumOpKinds; ++k) {
      out += (k ? ", " : "") +
             JsonString(OpKindName(static_cast<OpKind>(k))) + ": " +
             Summary(s.latency_us[k]);
    }
    out += "}, \"window_lookup_us\": [";
    for (size_t w = 0; w < s.window_lookup_us.size(); ++w) {
      out += (w ? ", " : "") + Summary(s.window_lookup_us[w]);
    }
    out += "], \"window_server_cpu_s\": [";
    for (size_t w = 0; w < s.window_server_cpu_s.size(); ++w) {
      out += (w ? ", " : "") + JsonNumber(s.window_server_cpu_s[w]);
    }
    out += "], \"window_ops\": [";
    for (size_t w = 0; w < s.window_ops.size(); ++w) {
      out += (w ? ", " : "") + std::to_string(s.window_ops[w]);
    }
    out += "], \"scrape\": {";
    bool first_series = true;
    for (const auto& [name, delta] : s.scrape_delta) {
      out += (first_series ? "" : ", ") + JsonString(name) + ": " + JsonNumber(delta);
      first_series = false;
    }
    out += "}}";
  }
  return out + "}}";
}

}  // namespace

int RunLoad(const Flags& flags) {
  std::string text;
  Truth truth;
  Workload workload;
  if (!ReadWholeFile(flags.Get("truth"), &text) || !truth.Parse(text) ||
      !ParseWorkload(flags.Get("workload"), &workload)) {
    std::fprintf(stderr, "load: bad --truth or --workload\n");
    return 2;
  }
  const uint64_t seed = flags.GetU64("seed");
  const double rate = flags.GetDouble("rate");
  const int conns = static_cast<int>(flags.GetU64("connections", 4));
  LoadRun run(truth, workload, seed,
              static_cast<uint32_t>(flags.GetU64("page-size", 100)),
              flags.Get("inject-wrong", "0") == "1");
  run.set_server(static_cast<int>(flags.GetU64("server-pid")),
                 static_cast<uint16_t>(flags.GetU64("monitor-port")));
  if (rate <= 0 ||
      !run.Connect(static_cast<uint16_t>(flags.GetU64("port")), conns)) {
    std::fprintf(stderr, "load: cannot connect (or no --rate)\n");
    return 2;
  }
  const double warmup = flags.GetDouble("warmup");
  const double open = flags.GetDouble("open");
  run.RunOpen(kWarmup,
              BuildSchedule(workload, truth, seed, kWarmup, rate, warmup, conns),
              warmup, 1);
  std::vector<Op> schedule =
      BuildSchedule(workload, truth, seed, kOpen, rate, open, conns);
  // Sub-windows of about --window-lookups lookups each (at most 20).
  size_t lookups = 0;
  bool writes = false;
  for (const Op& op : schedule) {
    lookups += op.kind == OpKind::kLookup;
    writes |= op.kind == OpKind::kAdd;
  }
  const size_t per_window = std::max<uint64_t>(flags.GetU64("window-lookups", 1200), 1);
  const int windows = static_cast<int>(
      std::clamp<size_t>(lookups / per_window, 1, 20));
  run.RunOpen(kOpen, std::move(schedule), open, windows);
  run.RunClosed(kClosed, workload, flags.GetDouble("closed"));
  // A workload that never writes gets a short write burst afterwards, so
  // the commit-path stages (commit wait, group batches) have samples.
  if (!writes && flags.GetDouble("probe") > 0) {
    run.RunClosed(kProbe, Workload::kChurn, flags.GetDouble("probe"));
  }
  std::printf("%s\n", run.ResultJson().c_str());
  return run.wrong() == 0 ? 0 : 3;
}

}  // namespace perfbench
