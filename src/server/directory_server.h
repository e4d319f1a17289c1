#ifndef LDAPBOUND_SERVER_DIRECTORY_SERVER_H_
#define LDAPBOUND_SERVER_DIRECTORY_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/legality_checker.h"
#include "ldap/search.h"
#include "schema/directory_schema.h"
#include "server/admission.h"
#include "server/changelog.h"
#include "server/group_commit.h"
#include "server/health.h"
#include "server/modification.h"
#include "server/slow_ops.h"
#include "server/wal.h"
#include "update/transaction.h"
#include "util/deadline.h"

namespace ldapbound {

/// One operation kind's process-wide metric series (directory_server.cc):
/// the only count of its outcomes.
struct OpMetrics;

/// An embeddable, schema-guarded directory: the facade a directory
/// application would link against. It owns a Directory and its
/// bounding-schema and guarantees the invariant the paper is after —
/// *every externally visible state is a legal instance*:
///
///  - construction verifies the schema is well-formed AND consistent
///    (an inconsistent schema would make every mutation fail, §5);
///  - Add / Delete / Apply run as transactions with the Theorem 4.1
///    discipline (subtree normalization, incremental Figure 5 checks,
///    rollback on violation);
///  - Modify applies value/class mutations to one entry, re-checks
///    incrementally, and undoes them on violation;
///  - ImportLdif bulk-loads into the live directory, checks the result,
///    and deletes what it loaded if the data set is refused;
///  - with EnableWal, committed mutations are fsync'd to a write-ahead
///    changelog before being acknowledged, and Recover() rebuilds the
///    exact acknowledged state after a crash (see server/wal.h).
///
/// Concurrency contract (serialized writers, many readers): the mutating
/// operations (Add, Delete, Apply, Modify, ModifyDn, ImportLdif, Compact)
/// are serialized internally on a write mutex, so any number of threads
/// may issue them concurrently — they commit one at a time, in mutex
/// order. With a WAL, every commit reaches the log through the group-
/// commit queue: a committer enqueues under the write mutex and releases
/// it before blocking on its group's fsync, so the next writer's
/// in-memory commit overlaps the previous one's durability wait (at
/// group_commit_max_batch 1 each group is one commit; larger batches also
/// share the fsync). The setup calls (EnableChangelog, EnableWal,
/// EnableSlowOps, set_check_options) must happen before traffic, from one
/// thread.
///
/// Every op counts its outcome once, in the process-wide metric registry
/// (ldapbound_server_ops_total{op,outcome}); /statusz reads its `stats`
/// section from there.
///
/// Reads come in two flavors:
///  - the live const reads — Search, ExportLdif, IsLegal — are safe to
///    call concurrently with each other, but NOT concurrently with a
///    mutation of the directory itself: callers who interleave writes and
///    live reads across threads must serialize them externally (e.g. a
///    shared_mutex held shared around reads);
///  - PinSnapshot() hands out an immutable epoch-pinned snapshot of the
///    last committed state (DESIGN.md §10). Pinning and reading a snapshot
///    is lock-free and safe from any thread, fully concurrent with the
///    writers — no external serialization needed. Every successful commit
///    and import publishes the next snapshot before it blocks on
///    durability, so a pin taken after a mutation returned OK sees that
///    mutation.
class DirectoryServer {
 public:
  /// Parses `schema_text`, checks consistency, starts with an empty
  /// (trivially... only if Cr = ∅) directory. When the schema requires
  /// classes, the instance is illegal-until-populated: bulk-load via
  /// ImportLdif or build up with transactions; reads are always allowed.
  static Result<DirectoryServer> Create(std::string_view schema_text);

  /// Adopts an existing schema (validated + consistency-checked). Its
  /// vocabulary is frozen from here on: nothing may define names in it.
  static Result<DirectoryServer> Create(DirectorySchema schema);

  DirectoryServer(DirectoryServer&&) = default;
  DirectoryServer& operator=(DirectoryServer&&) = default;

  const DirectorySchema& schema() const { return *schema_; }
  const Directory& directory() const { return *directory_; }

  /// The schema's names, frozen: the directory is built over them const,
  /// so a write naming a class or attribute they lack is refused before
  /// it allocates anything (kIllegal, in the content check's words), and
  /// any thread may read them without a lock. The same object as
  /// directory().vocab().
  const Vocabulary& vocab() const { return *vocab_; }

  /// One modification of a Modify request (see server/modification.h).
  using Modification = ldapbound::Modification;

  /// Adds one entry (a single-insert transaction).
  ///
  /// Every mutating op takes an optional deadline — a cancellation budget,
  /// not an execution bound (util/deadline.h): it is checked at admission
  /// and once more after the write mutex is acquired, before any side
  /// effect; past those points the op always runs to durability. A
  /// default-constructed (infinite) deadline is replaced by the admission
  /// controller's configured default, when EnableResilience set one.
  Status Add(const DistinguishedName& dn, EntrySpec spec,
             Deadline deadline = Deadline());

  /// Deletes one leaf entry (a single-delete transaction).
  Status Delete(const DistinguishedName& dn, Deadline deadline = Deadline());

  /// Applies a multi-operation transaction atomically.
  Status Apply(const UpdateTransaction& txn, CommitStats* stats = nullptr,
               Deadline deadline = Deadline());

  /// Applies `mods` to the entry named `dn`, re-checks legality, and rolls
  /// the entry back if the result would be illegal. Value-only mods re-check
  /// the entry's content plus key uniqueness; class mods additionally
  /// re-check the structure schema (class membership participates in
  /// structural relationships).
  Status Modify(const DistinguishedName& dn,
                const std::vector<Modification>& mods,
                Deadline deadline = Deadline());

  /// The LDAP ModDN operation: moves the subtree named `dn` under
  /// `new_parent_dn` (empty DN = make it a root), optionally renaming its
  /// RDN to `new_rdn`. Incrementally re-checked (IncrementalValidator::
  /// CheckAfterMove); moved back on violation.
  Status ModifyDn(const DistinguishedName& dn,
                  const DistinguishedName& new_parent_dn,
                  std::string new_rdn = "", Deadline deadline = Deadline());

  /// Filtered, scoped search (read-only; no legality interaction). The
  /// deadline is checked before the scan starts — an expired budget gets
  /// kDeadlineExceeded without touching the index.
  Result<std::vector<EntryId>> Search(const SearchRequest& request,
                                      Deadline deadline = Deadline()) const;

  /// Parses an RFC-1960 filter string and searches under `base_dn` with
  /// subtree scope.
  Result<std::vector<EntryId>> Search(std::string_view base_dn,
                                      std::string_view filter) const;

  /// Bulk-loads LDIF into the directory and checks the whole result; on
  /// any error or violation it deletes exactly the entries it created, so
  /// the directory is left unchanged and nothing is published or logged.
  /// Returns entries created.
  /// NOTE: bulk imports are NOT recorded in the changelog — replication
  /// setups should seed primary and replicas from the same LDIF before
  /// enabling the log.
  Result<size_t> ImportLdif(std::string_view text);

  /// The directory as LDIF.
  std::string ExportLdif() const;

  /// True if the current instance is legal (an empty directory is legal
  /// iff the schema requires no classes).
  bool IsLegal() const;

  /// Does nothing: every server publishes snapshots from construction
  /// on. Its only caller is perfbench/src/replay.cc, which the next
  /// benchmark change updates; this shim goes with that call.
  void EnableMvcc() {}

  /// Pins the latest published snapshot. Lock-free; safe from any thread
  /// concurrently with writers.
  PinnedSnapshot PinSnapshot() const { return directory_->PinSnapshot(); }

  /// Starts recording committed mutations as ChangeRecords (for
  /// replication and audit; see server/changelog.h). Idempotent.
  void EnableChangelog() {
    if (changelog_ == nullptr) changelog_ = std::make_unique<Changelog>();
  }

  /// The change log, or nullptr when not enabled.
  const Changelog* changelog() const { return changelog_.get(); }

  /// Makes commits durable: every subsequent committed mutation is
  /// serialized into the write-ahead changelog under `dir` and fsync'd
  /// before the mutating call returns OK. `dir` must be fresh (no
  /// segments or snapshots) — restarting over an existing log goes
  /// through Recover() instead. Writes the canonical schema text to
  /// `dir/schema.lbs` and, when the directory is already populated, an
  /// initial snapshot, so the WAL directory alone reconstructs the state.
  Status EnableWal(const std::string& dir, const WalOptions& options = {});

  /// Rebuilds a server from a WAL directory: parses `schema.lbs`, loads
  /// the newest snapshot, replays the log (truncating a torn tail,
  /// rejecting mid-log corruption — see server/wal.h), re-verifies that
  /// the recovered instance is legal, and re-attaches the log for further
  /// commits. `report`, when non-null, receives what recovery found.
  static Result<DirectoryServer> Recover(const std::string& dir,
                                         const WalOptions& options = {},
                                         WalRecoveryReport* report = nullptr);

  /// Log-truncation compaction: snapshots the current state into the WAL
  /// directory and deletes the log segments the snapshot supersedes.
  /// Requires EnableWal.
  Status Compact();

  /// The write-ahead log, or nullptr when not enabled.
  const WriteAheadLog* wal() const { return wal_.get(); }

  /// The group-commit queue every WAL commit goes through; nullptr
  /// exactly when there is no WAL.
  const GroupCommitQueue* group_commit() const { return group_commit_.get(); }

  /// Overload & fault resilience (DESIGN.md §11): admission control,
  /// default deadlines, degraded-mode escalation and — when auto_recover
  /// is set — the supervised recovery probe that returns a degraded
  /// server to healthy without an operator.
  struct ResilienceOptions {
    AdmissionOptions admission;

    /// Start the recovery probe: after a WAL failure the server degrades
    /// to read-only as always, and the probe then drains the commit path,
    /// resyncs the WAL from a snapshot of the in-memory state, and
    /// restores writability, retrying with exponential backoff while the
    /// fault persists. Off by default: without it a degraded server stays
    /// read-only until restarted via Recover() (the pre-§11 behavior).
    bool auto_recover = false;
    ExponentialBackoff::Options recovery_backoff;
  };

  /// Turns the resilience layer on. Call after EnableWal, before traffic,
  /// from one thread. With auto_recover the probe thread captures `this`,
  /// so — like a served MonitorServer — the server must not be moved
  /// afterwards.
  void EnableResilience(const ResilienceOptions& options);

  /// Health state machine (never null). healthy → degraded(read-only) →
  /// draining → recovering; see server/health.h.
  const HealthManager* health() const { return health_.get(); }
  HealthState health_state() const { return health_->state(); }

  /// The admission controller, or nullptr before EnableResilience.
  const AdmissionController* admission() const { return admission_.get(); }

  /// Runs one recovery attempt right now (drain + WAL resync), regardless
  /// of whether the probe is armed. Returns kFailedPrecondition when the
  /// server is not degraded. What an operator endpoint or a test calls
  /// instead of waiting out the probe's backoff.
  Status TryRecoverNow();

  /// True when the server is refusing writes (any non-healthy state).
  /// Kept under its historical name: before the §11 state machine this
  /// was a bool flipped by a WAL append failure.
  bool wal_failed() const { return !health_->healthy(); }

  /// Starts slow-op diagnostics: every request — a wire request or a
  /// library call — is offered to a bounded keep-the-slowest log when it
  /// finishes; a retained record carries the request's stage spans
  /// (write-mutex wait, validation, publish, commit wait and, for wire
  /// requests, the wire pipeline), its wire request id and, for
  /// rejections, the detail and the per-violation "detected by" summary.
  /// Served by the monitor endpoint's /slowz. Call before traffic, from
  /// the writer thread.
  void EnableSlowOps(size_t capacity = 32, uint64_t min_duration_ns = 0) {
    if (slow_ops_ == nullptr) {
      slow_ops_ = std::make_unique<SlowOpLog>(capacity, min_duration_ns);
    }
  }

  /// The slow-op log, or nullptr when not enabled. The log is internally
  /// synchronized: reading it is safe concurrently with any operation.
  const SlowOpLog* slow_ops() const { return slow_ops_.get(); }

  /// Mutable access for the wire front end, which finishes its requests'
  /// records on its reactors (DESIGN.md §13); same synchronization
  /// contract as slow_ops().
  SlowOpLog* mutable_slow_ops() { return slow_ops_.get(); }

  /// Worker configuration for the legality passes this server runs
  /// (ImportLdif validation, IsLegal, Modify's key recheck, and the
  /// transaction validators). Defaults to hardware concurrency; set
  /// num_threads = 1 to force serial checking. Violation output is
  /// identical for every configuration.
  void set_check_options(const CheckOptions& options) {
    check_options_ = options;
  }
  const CheckOptions& check_options() const { return check_options_; }

 private:
  explicit DirectoryServer(DirectorySchema schema);

  Status ApplyOneModification(EntryId id, const Modification& mod,
                              std::vector<Modification>* undo);
  static Modification Inverse(const Modification& mod);

  /// Refuses mutations while the server is not healthy (degraded /
  /// draining / recovering) with a retryable kUnavailable.
  Status CheckWritable() const;

  /// Admission + default-deadline resolution for one write op. On OK,
  /// `*deadline` holds the effective deadline to thread through the
  /// commit path.
  Status AdmitWrite(Deadline* deadline);

  /// The commit skeleton every mutation runs (DESIGN.md §7). `body(records,
  /// violations)` mutates and validates the head under the write mutex and
  /// undoes its own change when it fails; on success it appends its
  /// change records to `records` (null when nothing records changes), on
  /// a schema refusal it leaves the violations behind it in `violations`,
  /// whose "detected by" lines the request record keeps as `explain`
  /// (named once the mutex is released).
  /// Each non-OK return counts once as `rejected` in `op`. The request
  /// record is stamped when the write mutex is acquired, when the body
  /// returns and when the snapshot is published (server/request_stages.h).
  template <typename Body>
  Status Write(OpMetrics& op, std::string target, Deadline deadline,
               Body&& body);

  /// Commits `txn` through Write as op `op` on `target`: Apply's body,
  /// which Add and Delete run as one-op transactions in their own
  /// families.
  Status CommitTxn(OpMetrics& op, std::string target,
                   const UpdateTransaction& txn, CommitStats* stats,
                   Deadline deadline);

  /// The validator configuration every write checks with.
  IncrementalValidator::Options ValidatorOptions() const;

  /// The recovery probe's body: takes the write mutex, drains the commit
  /// queue (every queued commit fails out through the poisoned queue),
  /// resyncs the WAL from a snapshot of the in-memory state, and re-arms
  /// the queue.
  Status DrainAndResync();

  /// Compact() body; `write_mu_` must be held (EnableWal and ImportLdif
  /// call it with the mutex already taken).
  Status CompactLocked();

  /// The acknowledgement gate of every commit: makes `payload` (the
  /// serialized change records; ignored when the WAL is off) durable.
  /// Enqueues under the held write mutex `lock` (queue order = commit
  /// order), releases it, and blocks on the group's fsync — so the next
  /// writer's in-memory commit overlaps this one's durability wait. On
  /// failure the server becomes read-only.
  Status WalPersist(std::string payload, const Deadline& deadline,
                    std::unique_lock<std::mutex>& lock);

  /// Txn-id source for change records when no Changelog is attached.
  uint64_t NextRecordTxnId() {
    return changelog_ != nullptr ? changelog_->NextTxnId() : next_txn_++;
  }

  /// The server's atomics, behind a pointer to keep the server movable.
  struct Atomics {
    /// Operation-id source for slow-op records and JSON op-log lines
    /// (advanced by const reads too).
    std::atomic<uint64_t> next_op_id{1};
    /// Set on WAL append failure, cleared by a successful resync: tells
    /// the recovery probe whether the log actually needs re-basing (an
    /// overload-triggered degrade has nothing to repair).
    std::atomic<bool> wal_resync_needed{false};
  };

  std::shared_ptr<const Vocabulary> vocab_;
  std::unique_ptr<DirectorySchema> schema_;
  std::unique_ptr<Directory> directory_;
  std::unique_ptr<Changelog> changelog_;
  std::unique_ptr<WriteAheadLog> wal_;
  /// Declared after wal_ so it is destroyed first (it holds a raw pointer
  /// to the log).
  std::unique_ptr<GroupCommitQueue> group_commit_;
  std::unique_ptr<SlowOpLog> slow_ops_;
  /// Serializes the mutating operations (heap-held for movability).
  std::unique_ptr<std::mutex> write_mu_;
  uint64_t next_txn_ = 1;
  CheckOptions check_options_;
  std::unique_ptr<Atomics> atomics_;
  std::unique_ptr<AdmissionController> admission_;
  /// Declared last so it is destroyed first: its probe thread (when
  /// armed) touches wal_, group_commit_ and write_mu_ and must be joined
  /// before they die.
  std::unique_ptr<HealthManager> health_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_SERVER_DIRECTORY_SERVER_H_
