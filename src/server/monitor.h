#ifndef LDAPBOUND_SERVER_MONITOR_H_
#define LDAPBOUND_SERVER_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "util/result.h"

namespace ldapbound {

class DirectoryServer;
class FlightRecorder;
class NetServer;

/// Where the monitor listens. The default binds the loopback interface on
/// an ephemeral port (port 0); read the bound port back via port().
struct MonitorOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;

  /// Per-connection socket I/O timeouts (SO_RCVTIMEO / SO_SNDTIMEO on the
  /// accepted fd): the monitor serves from a single accept thread, so a
  /// silent client — connects, sends nothing — or a stalled reader must
  /// not park it forever and starve every later scrape. 0 disables.
  uint32_t io_timeout_ms = 5000;
};

/// Embedded HTTP monitor endpoint — the operational surface of a
/// DirectoryServer, on plain POSIX sockets (no dependencies):
///
///   GET /metrics  Prometheus text exposition of the process-wide metric
///                 registry (legality pipeline, server ops, WAL, tracer)
///   GET /healthz  "ok" while the health state machine reports healthy;
///                 503 with the state name and degradation reason in any
///                 other state (degraded / draining / recovering)
///   GET /statusz  JSON summary: schema shape, entry count, health,
///                 admission, WAL, MVCC and wire state, operation counts,
///                 slow-op log configuration. Every count is read from the
///                 metric registry, so it is process-wide, never reset and
///                 equal to its /metrics series by construction; levels
///                 (queue depths, live readers) come from their owners
///   GET /slowz    the slow-op diagnostics ring as JSON (slowest first)
///   GET /timeseries  the flight recorder's 1 Hz metric history as JSON
///                 (?window=SECONDS keeps only the most recent span)
///
/// One accept thread serves one request per connection (scrapes are rare
/// and tiny; no keep-alive). /metrics, /healthz and /slowz read only
/// internally synchronized state and are safe at any time. /statusz reads
/// directory and WAL state, so it obeys the DirectoryServer read contract:
/// its numbers may be mid-commit approximations, which scrapes tolerate.
class MonitorServer {
 public:
  /// Binds and starts the accept thread. `server` must outlive the
  /// returned monitor.
  static Result<std::unique_ptr<MonitorServer>> Start(
      const DirectoryServer* server, const MonitorOptions& options = {});

  /// Stops accepting, closes the socket, joins the thread. Idempotent.
  void Stop();
  ~MonitorServer();

  MonitorServer(const MonitorServer&) = delete;
  MonitorServer& operator=(const MonitorServer&) = delete;

  /// The bound port (the actual one when options.port was 0).
  uint16_t port() const { return port_; }

  /// Attaches (or detaches, with nullptr) the wire front end so /statusz
  /// reports a `net` section. The net server must
  /// stay alive until detached or until this monitor has stopped.
  void SetNetServer(const NetServer* net) {
    net_.store(net, std::memory_order_release);
  }

  /// Attaches (or detaches, with nullptr) the flight recorder backing
  /// /timeseries. Same lifetime contract as SetNetServer.
  void SetFlightRecorder(const FlightRecorder* recorder) {
    flight_.store(recorder, std::memory_order_release);
  }

  /// The response body one endpoint would serve right now (no socket
  /// involved; tests and the CLI's `status` command use this).
  std::string RenderStatusz() const;
  std::string RenderSlowz() const;
  /// The /timeseries body; window_seconds 0 = everything retained.
  std::string RenderTimeseries(uint64_t window_seconds = 0) const;
  /// The /healthz body; `*http_code` (when non-null) gets 200 or 503.
  std::string RenderHealthz(int* http_code = nullptr) const;

 private:
  MonitorServer(const DirectoryServer* server, int listen_fd, uint16_t port,
                uint32_t io_timeout_ms);
  void AcceptLoop();
  void HandleConnection(int fd);

  const DirectoryServer* server_;
  std::atomic<const NetServer*> net_{nullptr};
  std::atomic<const FlightRecorder*> flight_{nullptr};
  int listen_fd_;
  uint16_t port_;
  uint32_t io_timeout_ms_;
  std::thread thread_;
  bool stopped_ = false;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_MONITOR_H_
