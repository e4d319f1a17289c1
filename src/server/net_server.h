#ifndef LDAPBOUND_SERVER_NET_SERVER_H_
#define LDAPBOUND_SERVER_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "model/directory_snapshot.h"
#include "server/request_stages.h"
#include "server/wire.h"
#include "util/result.h"

namespace ldapbound {

class DirectoryServer;

/// Where and how the wire front end listens.
struct NetServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read back via port()

  /// Reactor threads. Each owns its own epoll instance and its own
  /// SO_REUSEPORT listening socket: the kernel steers accepted
  /// connections across the listeners, and a connection lives its whole
  /// life on one reactor, so connection state needs no cross-reactor
  /// locking. 0 = hardware_concurrency.
  size_t reactors = 0;

  /// Accepted connections (across all reactors) beyond this are shed at
  /// the door: a kShed frame with a retryable kOverloaded code, then
  /// close. Protects the fd budget the way admission control protects
  /// the commit queue.
  size_t max_connections = 4096;

  /// Decoded requests waiting for a worker. When the dispatch queue is
  /// at this bound a new request is answered kOverloaded (retryable)
  /// immediately instead of queueing unboundedly behind a stalled commit
  /// path. 0 = unbounded.
  size_t max_pending_ops = 1024;

  /// Threads executing requests against the DirectoryServer. Writes
  /// block on WAL durability, so more than one keeps searches flowing
  /// while a commit group holds its fsync.
  size_t worker_threads = 2;

  /// Connections with no traffic for this long are closed by the
  /// reactor's sweep. 0 = never.
  uint32_t idle_timeout_ms = 60000;

  /// How long Stop() lets queued responses flush before force-closing;
  /// bytes still owed at the force-close are counted in
  /// ldapbound_net_owed_bytes_at_stop_total.
  uint32_t drain_grace_ms = 500;

  /// Paged-search cursors (kSearchEntries) idle longer than this are
  /// reaped and their retained snapshot version released; continuing a
  /// reaped cursor gets a retryable kCursorExpired. 0 = never reap.
  uint32_t cursor_idle_timeout_ms = 30000;
};

/// Async wire-level front end for a DirectoryServer (DESIGN.md §12/§15):
/// N reactor threads, each owning its own epoll instance, its own
/// SO_REUSEPORT listening socket and the full lifetime of every
/// connection the kernel steers to it — nonblocking accept with
/// EMFILE/ENFILE backoff, bounded batched reads per wakeup,
/// per-connection frame queues flushed with one sendmsg gather, idle
/// reaping. A shared worker pool executes decoded requests so a commit
/// blocked on fsync never stalls any event loop; each completion is
/// posted back to the owning reactor's eventfd. All socket writes use
/// MSG_NOSIGNAL: a client disconnecting mid-response is an EPIPE that
/// closes that one connection, never a SIGPIPE that kills the process.
///
/// Overload and lifecycle semantics:
///  - the connection limit (global across reactors) and the
///    dispatch-queue bound shed with retryable kOverloaded frames at the
///    wire; per-op admission control (queue depth, deadlines, health) is
///    the DirectoryServer's own and its verdicts are relayed with their
///    retryable flag intact;
///  - while the health state machine reports kDraining the reactors
///    stop accepting new connections (existing ones keep flushing and
///    reads keep serving — writes already get retryable kUnavailable
///    from the server);
///  - Stop() drains gracefully: no new connections, workers finish the
///    queued requests, pending responses flush (bounded by
///    drain_grace_ms), then everything closes.
///
/// Reads (search/validate) run against pinned MVCC snapshots, never the
/// live directory — every server publishes them from construction on, so
/// any number of workers may read while writers commit. Paged
/// kSearchEntries scans retain their snapshot *version* by value (COW
/// refcounts), never by epoch pin: a pin held across client think time
/// would stall reclamation for every reader (DESIGN.md §15).
///
/// Every wire event is counted once, in an ldapbound_net_* series of the
/// process-wide metric registry (reactor-owned series carry a `reactor`
/// label); levels — open connections, queued requests, open cursors —
/// are gauges each owner sets from its own state. /statusz reads both.
class NetServer {
 public:
  /// Binds, starts the reactor and worker threads. `server` must
  /// outlive the returned NetServer and must not be moved afterwards.
  static Result<std::unique_ptr<NetServer>> Start(
      DirectoryServer* server, const NetServerOptions& options = {});

  /// Graceful drain + shutdown; idempotent.
  void Stop();
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (the actual one when options.port was 0).
  uint16_t port() const { return port_; }

  const NetServerOptions& options() const { return options_; }

  /// Reactor threads running (options().reactors with 0 resolved).
  size_t reactors() const { return reactors_.size(); }

 private:
  struct ReactorCounters;
  struct SharedCounters;

  NetServer(DirectoryServer* server, const NetServerOptions& options,
            uint16_t port);

  /// A dispatched response waiting for its bytes to clear the socket:
  /// once the connection's flushed-byte counter passes `end_offset`, the
  /// request's kBytesFlushed stamp lands and its record is finished
  /// (FinishRequest: stage histograms, slow-op ring, trace).
  struct StageRecord {
    uint64_t end_offset = 0;  ///< conn bytes_queued after this response
    RequestStamps record;
  };

  struct Conn {
    uint64_t gen = 0;
    std::string in;        ///< unparsed request bytes
    /// Encoded response frames not yet fully written; flushed with one
    /// sendmsg gather across up to kMaxIovGather frames per call.
    std::deque<std::string> out_frames;
    size_t out_off = 0;    ///< sent bytes of out_frames.front()
    size_t out_bytes = 0;  ///< unsent bytes across out_frames
    uint32_t inflight = 0; ///< dispatched requests, response pending
    bool read_closed = false;  ///< peer half-closed (EOF seen)
    bool closing = false;      ///< close once out drains and inflight==0
    uint32_t epoll_mask = 0;   ///< events last armed (UpdateEpoll)
    std::chrono::steady_clock::time_point last_activity;
    uint64_t bytes_queued = 0;   ///< lifetime response bytes queued
    uint64_t bytes_flushed = 0;  ///< lifetime response bytes sent
    uint64_t out_hwm = 0;        ///< out-buffer high-watermark (bytes)
    std::deque<StageRecord> pending_flush;  ///< FIFO by end_offset
  };

  struct WorkItem {
    size_t reactor = 0;  ///< owning reactor; completions route back here
    int fd = -1;
    uint64_t gen = 0;
    WireOp op = WireOp::kPing;
    std::string body;
    RequestStamps record;  ///< carries the request id
  };

  struct Completion {
    int fd = -1;
    uint64_t gen = 0;
    std::string bytes;
    WireCode code = WireCode::kOk;
    RequestStamps record;
  };

  /// One reactor shard: its listener, its epoll/eventfd, its
  /// connections. Only its own thread touches conns/next_gen/accept
  /// state; completions is the one cross-thread mailbox (workers post,
  /// the reactor drains).
  struct Reactor {
    size_t index = 0;
    int listen_fd = -1;
    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd: completions posted / stop requested
    std::thread thread;
    std::unordered_map<int, Conn> conns;
    uint64_t next_gen = 1;
    std::mutex completions_mu;
    std::vector<Completion> completions;
    std::string shed_frame;  ///< pre-encoded once per reactor
    bool accept_disarmed = false;  ///< EPOLLIN off after fd exhaustion
    std::chrono::steady_clock::time_point accept_rearm_at{};
    std::unique_ptr<ReactorCounters> counters;
  };

  /// A paged kSearchEntries scan in flight. The by-value snapshot copy
  /// retains exactly the COW state of its version through shared_ptr
  /// refcounts — deliberately NOT an epoch pin, which is thread-affine
  /// and would stall all reclamation while a client paginates.
  struct PagedCursor {
    DirectorySnapshot snap;
    uint64_t snapshot_version = 0;
    std::chrono::steady_clock::time_point last_used;
  };

  void ReactorLoop(Reactor& r);
  void WorkerLoop();

  void HandleAccept(Reactor& r);
  void HandleReadable(Reactor& r, int fd, Conn& conn);
  bool FlushWrites(Reactor& r, int fd, Conn& conn);  ///< false = conn died
  void CloseConn(Reactor& r, int fd);
  void SweepIdle(Reactor& r);
  void ReapIdleCursors();
  void DrainCompletions(Reactor& r);
  /// Re-arms `fd` for what `conn` now waits on: EPOLLIN while it still
  /// reads, EPOLLOUT while bytes are owed. Calls epoll_ctl only when that
  /// mask differs from the one last armed.
  void UpdateEpoll(Reactor& r, int fd, Conn& conn);
  /// Arms (on) or disarms (off, EMFILE/ENFILE backoff) the listener's
  /// EPOLLIN interest.
  void ArmAccept(Reactor& r, bool on);

  /// Parses complete frames out of conn.in, dispatching the whole batch
  /// under one queue lock. Returns false on protocol error (error
  /// response queued, conn marked closing).
  bool ParseAndDispatch(Reactor& r, int fd, Conn& conn);

  /// Queues `response` for `conn` (owning reactor thread only).
  void QueueResponse(Reactor& r, Conn& conn, const WireResponse& response);

  /// Retires every pending_flush record whose bytes have cleared the
  /// socket: stamps kBytesFlushed and finishes the record (reactor
  /// thread).
  void FinalizeFlushed(Conn& conn);

  /// Executes one request against the DirectoryServer (worker threads).
  WireResponse Execute(const WorkItem& item);
  WireResponse ExecuteSearchEntries(const WorkItem& item);

  void PostCompletion(size_t reactor, Completion completion);

  DirectoryServer* server_;
  const NetServerOptions options_;
  uint16_t port_;

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> active_conns_{0};  ///< across reactors (shed bound)

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;

  std::mutex cursors_mu_;
  std::unordered_map<uint64_t, PagedCursor> cursors_;
  uint64_t next_cursor_id_ = 1;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  std::unique_ptr<SharedCounters> shared_;
};

/// Filtered, scoped search against a pinned MVCC snapshot — the wire
/// kSearch implementation, exposed for tests. Supports the filters a
/// snapshot can answer from postings alone: "" and "(objectClass=*)"
/// (match everything), "(objectClass=C)" (class membership) and
/// "(attr=value)" (equality). Every other shape is kInvalidArgument: a
/// compound ("(&...)", "(|...)", "(!...)"), an ">=", "<=" or "~="
/// operator, and a value holding '*', '(' or ')' (presence, substrings,
/// nesting). A name the schema does not know matches nothing, as in
/// LDAP; it is not an error. `base_dn` "" = the whole forest
/// (kSubtree/kOneLevel only). Returns matching alive entry ids in
/// preorder (ascending label order, the order live SearchFrom returns).
///
/// Cost O(min(scope, posting)): the scope is walked over the snapshot's
/// tree links with a budget of the filter's posting length (a value
/// posting's size, a class's population); a scope that outgrows it is
/// answered from the posting instead, label-tested against the scope
/// and sorted into preorder.
Result<std::vector<EntryId>> SnapshotSearch(const DirectorySnapshot& snapshot,
                                            const Vocabulary& vocab,
                                            std::string_view base_dn,
                                            uint8_t scope,
                                            std::string_view filter);

/// One hit of a paged snapshot scan: the entry and the order-maintenance
/// label that gives the scan its stable preorder position.
struct SnapshotPageHit {
  uint64_t label = 0;
  EntryId id = kInvalidEntryId;
};

/// Paged variant of SnapshotSearch — the wire kSearchEntries scan,
/// exposed for tests. Hits come back in preorder (ascending label
/// order, stable within the snapshot), restricted to labels >=
/// from_label, at most `limit` of them; resuming with from_label = last
/// label + 1 continues exactly where the previous page stopped. The walk
/// descends straight to the first label >= from_label and stops after
/// `limit` hits, so a page costs O(depth × fanout + limit) — not the
/// whole scan — unless the filter's posting is the smaller side (as in
/// SnapshotSearch).
Result<std::vector<SnapshotPageHit>> SnapshotSearchPage(
    const DirectorySnapshot& snapshot, const Vocabulary& vocab,
    std::string_view base_dn, uint8_t scope, std::string_view filter,
    uint64_t from_label, size_t limit);

/// Reconstructs entry `id`'s DN at `snapshot`'s version by walking the
/// parent chain and reading each ancestor's RDN out of its payload blob
/// — never touches the live Directory or the Vocabulary.
Result<std::string> SnapshotEntryDn(const DirectorySnapshot& snapshot,
                                    EntryId id);

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_NET_SERVER_H_
