#include "server/directory_server.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "consistency/inference.h"
#include "core/legality_checker.h"
#include "ldap/filter.h"
#include "ldap/ldif.h"
#include "schema/schema_format.h"
#include "server/request_stages.h"
#include "update/incremental.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ldapbound {

// One operation kind's ldapbound_server_* series, the only count of its
// outcomes (process-wide, never reset). `rejected` counts every refused
// call — admission, read-only, an expired deadline, the schema, the WAL.
struct OpMetrics {
  const char* name;
  Counter& ok;
  Counter& rejected;
  Histogram& latency_ns;
};

namespace {

OpMetrics MakeOpMetrics(const char* op) {
  MetricRegistry& r = MetricRegistry::Default();
  std::string prefix = "op=\"" + std::string(op) + "\"";
  return OpMetrics{
      op,
      r.GetCounter("ldapbound_server_ops_total",
                   "DirectoryServer operations by outcome",
                   prefix + ",outcome=\"ok\""),
      r.GetCounter("ldapbound_server_ops_total",
                   "DirectoryServer operations by outcome",
                   prefix + ",outcome=\"rejected\""),
      r.GetHistogram("ldapbound_server_op_ns",
                     "Wall nanoseconds of one DirectoryServer operation",
                     prefix),
  };
}

struct ServerMetrics {
  OpMetrics add;
  OpMetrics del;
  OpMetrics apply;
  OpMetrics modify;
  OpMetrics modify_dn;
  OpMetrics search;
  OpMetrics import;
};

ServerMetrics& GetServerMetrics() {
  // Registered once, leaked with the registry (see util/metrics.h).
  static ServerMetrics* metrics = new ServerMetrics{
      MakeOpMetrics("add"),       MakeOpMetrics("delete"),
      MakeOpMetrics("apply"),     MakeOpMetrics("modify"),
      MakeOpMetrics("modify_dn"), MakeOpMetrics("search"),
      MakeOpMetrics("import"),
  };
  return *metrics;
}

constexpr size_t kMaxDetailChars = 512;

/// Deadline check at the last cancellation-safe point: the write mutex is
/// held but no side effect has happened yet. Past this point the commit
/// always runs to durability (util/deadline.h).
Status CheckQueuedDeadline(AdmissionController* admission,
                           const Deadline& deadline) {
  if (!deadline.expired()) return Status::OK();
  if (admission != nullptr) admission->RecordQueuedDeadlineShed();
  return Status::DeadlineExceeded(
      "commit cancelled while queued for the write mutex: op deadline "
      "expired before any work (safe to retry with a fresh budget)");
}

/// The bookkeeping of one DirectoryServer op, the one place its outcome
/// is recorded. The op annotates the request record current on its thread
/// — installing one for a library call, which has no wire record — with
/// its name, target, outcome and refusal detail; counts its outcome and
/// latency in its family at return; and writes its JSON op-log line. A
/// record it installed it also finishes (FinishRequest): a wire request's
/// record is finished by the reactor once its response is flushed. No op
/// runs inside another, so a request counts once, in the family of the op
/// the caller invoked.
class OpTracker {
 public:
  OpTracker(OpMetrics& op, SlowOpLog* log, std::atomic<uint64_t>& next_op_id,
            std::string target)
      : op_(op), log_(log), record_(RequestScope::current()) {
    if (record_ == nullptr) {
      record_ = &own_.emplace();
      scope_.emplace(record_);
    }
    record_->op_start_ns = Tracer::NowNs();
    if (record_->op == nullptr) record_->op = op.name;
    record_->target = std::move(target);
    if (log != nullptr || JsonLog::Default().enabled()) {
      record_->op_id = next_op_id.fetch_add(1, std::memory_order_relaxed);
    }
  }
  OpTracker(const OpTracker&) = delete;
  OpTracker& operator=(const OpTracker&) = delete;

  /// Counts `status` once as the operation's outcome (`ok` or `rejected`)
  /// and returns it; `explain` is a rejection's "detected by" summary.
  /// The record keeps at most kMaxDetailChars of each.
  Status Finish(Status status, std::string explain = "") {
    (status.ok() ? op_.ok : op_.rejected).Increment();
    record_->outcome = status.ok() ? "ok" : "rejected";
    if (!status.ok()) {
      record_->detail =
          std::string_view(status.message()).substr(0, kMaxDetailChars);
      explain.resize(std::min(explain.size(), kMaxDetailChars));
      record_->explain = std::move(explain);
    }
    return status;
  }

  ~OpTracker() {
    const uint64_t end_ns = Tracer::NowNs();
    const uint64_t duration_ns = end_ns - record_->op_start_ns;
    op_.latency_ns.Observe(duration_ns);
    JsonLog& json = JsonLog::Default();
    if (json.enabled()) {
      LogEvent event("op");
      event.Num("op_id", record_->op_id)
          .Str("op", op_.name)
          .Str("target", record_->target)
          .Str("outcome", record_->outcome)
          .Num("duration_ns", duration_ns);
      if (!record_->detail.empty()) event.Str("detail", record_->detail);
      json.Write(event);
    }
    if (own_.has_value()) FinishRequest(*own_, end_ns, log_);
  }

 private:
  OpMetrics& op_;
  SlowOpLog* log_;
  RequestStamps* record_;
  std::optional<RequestStamps> own_;  ///< a library call's record
  std::optional<RequestScope> scope_;
};

/// A write body's schema refusal: the Illegal status naming `what`.
Status SchemaRefusal(const std::string& what,
                     const std::vector<Violation>& violations,
                     const Vocabulary& vocab) {
  return Status::Illegal(what + " violates the schema:\n" +
                         DescribeViolations(violations, vocab));
}

/// One "detected by" line per violation: the constraint-level summary the
/// slow-op record keeps alongside a refusal's human-readable detail. A
/// write naming a class or attribute the frozen vocabulary lacks leaves
/// no violation: the directory refused the name before any check ran, in
/// the words of the content pass that reports it, so that pass's line.
std::string ExplainRefusal(const Status& status,
                           const std::vector<Violation>& violations,
                           const Vocabulary& vocab) {
  if (violations.empty() && status.code() == StatusCode::kIllegal) {
    std::string_view message = status.message();
    Violation refused;
    if (message.ends_with(Directory::kUnknownClassRefusal)) {
      refused.kind = ViolationKind::kUnknownClass;
      return refused.DetectedBy(vocab);
    }
    if (message.ends_with(Directory::kUnknownAttributeRefusal)) {
      refused.kind = ViolationKind::kDisallowedAttribute;
      return refused.DetectedBy(vocab);
    }
  }
  std::string explain;
  for (const Violation& v : violations) {
    if (!explain.empty()) explain += '\n';
    explain += v.DetectedBy(vocab);
  }
  return explain;
}

}  // namespace

DirectoryServer::DirectoryServer(DirectorySchema schema)
    : vocab_(schema.vocab_ptr()),
      schema_(std::make_unique<DirectorySchema>(std::move(schema))),
      directory_(std::make_unique<Directory>(vocab_)),
      write_mu_(std::make_unique<std::mutex>()),
      atomics_(std::make_unique<Atomics>()),
      health_(std::make_unique<HealthManager>()) {}

Result<DirectoryServer> DirectoryServer::Create(
    std::string_view schema_text) {
  // The parse is the last step that defines names.
  LDAPBOUND_ASSIGN_OR_RETURN(
      DirectorySchema schema,
      ParseDirectorySchema(schema_text, std::make_shared<Vocabulary>()));
  return Create(std::move(schema));
}

Result<DirectoryServer> DirectoryServer::Create(DirectorySchema schema) {
  LDAPBOUND_RETURN_IF_ERROR(schema.Validate());
  ConsistencyChecker consistency(schema);
  LDAPBOUND_RETURN_IF_ERROR(consistency.EnsureConsistent());
  return DirectoryServer(std::move(schema));
}

// Add and Delete commit one-op transactions through Apply's body, counted
// and timed as add or delete.
Status DirectoryServer::Add(const DistinguishedName& dn, EntrySpec spec,
                            Deadline deadline) {
  UpdateTransaction txn;
  txn.Insert(dn, std::move(spec));
  return CommitTxn(GetServerMetrics().add, dn.ToString(), txn, nullptr,
                   deadline);
}

Status DirectoryServer::Delete(const DistinguishedName& dn,
                               Deadline deadline) {
  UpdateTransaction txn;
  txn.Delete(dn);
  return CommitTxn(GetServerMetrics().del, dn.ToString(), txn, nullptr,
                   deadline);
}

Status DirectoryServer::CheckWritable() const {
  HealthState state = health_->state();
  if (state == HealthState::kHealthy) return Status::OK();
  std::string reason = health_->reason();
  return Status::Unavailable(
      "server is read-only (" + std::string(HealthStateName(state)) +
      (reason.empty() ? "" : ": " + reason) +
      ") — reads stay available; retry writes once the server recovers");
}

Status DirectoryServer::AdmitWrite(Deadline* deadline) {
  if (admission_ == nullptr) {
    // No admission control configured; explicit deadlines still hold.
    if (deadline->expired()) {
      return Status::DeadlineExceeded(
          "op deadline expired before admission (no work was done; safe to "
          "retry with a fresh budget)");
    }
    RequestScope::MarkCurrent(RequestStage::kAdmitted);
    return Status::OK();
  }
  if (deadline->infinite()) *deadline = admission_->DefaultDeadline();
  Status status = admission_->AdmitWrite(*deadline);
  if (!status.ok() && admission_->TakeDegradeSignal()) {
    health_->ReportOverload(admission_->shed_streak());
  }
  if (status.ok()) RequestScope::MarkCurrent(RequestStage::kAdmitted);
  return status;
}

Status DirectoryServer::WalPersist(std::string payload,
                                   const Deadline& deadline,
                                   std::unique_lock<std::mutex>& lock) {
  if (wal_ == nullptr) return Status::OK();
  GroupCommitQueue::Ticket* ticket = nullptr;
  Status status = [&]() -> Status {
    // Mid-commit crash point: the in-memory commit is applied but nothing
    // has reached the log — after recovery the commit must be absent (it
    // was never acknowledged).
    LDAPBOUND_FAILPOINT("server.commit");
    // The deadline only clamps the leader's hold window; it cannot cancel
    // this commit any more (it is snapshot-visible).
    ticket = group_commit_->Enqueue(std::move(payload), deadline);
    return Status::OK();
  }();
  if (status.ok()) {
    lock.unlock();
    status = group_commit_->Wait(ticket);
  }
  if (!status.ok()) {
    // The in-memory state is now ahead of the durable state and cannot be
    // trusted as a replication source; degrade to read-only. A failed
    // enqueue still holds the write mutex, so the next writer sees the
    // unhealthy state; after a failed flush a racing writer may already
    // be past CheckWritable, and the poisoned queue fails its flush
    // without touching the log. The recovery probe (EnableResilience)
    // repairs this automatically via a snapshot resync; without it,
    // restart via Recover().
    atomics_->wal_resync_needed.store(true, std::memory_order_release);
    health_->ReportWalFailure(status);
    return Status(status.code(),
                  "write-ahead log append failed (server is now read-only; "
                  "recover from '" + wal_->dir() + "'): " + status.message());
  }
  RequestScope::MarkCurrent(RequestStage::kCommitDurable);
  return status;
}

IncrementalValidator::Options DirectoryServer::ValidatorOptions() const {
  IncrementalValidator::Options options;
  options.check = check_options_;
  // The serving path wants commit cost O(|Δ|), not O(|D|): walk the delta
  // directly for insert checks and test only the doomed subtrees' surviving
  // ancestors for delete checks (both property-tested equivalent to the
  // paper-faithful Δ-queries).
  options.delta_driven_insert = true;
  options.ancestor_path_optimization = true;
  return options;
}

template <typename Body>
Status DirectoryServer::Write(OpMetrics& op, std::string target,
                              Deadline deadline, Body&& body) {
  OpTracker tracker(op, slow_ops_.get(), atomics_->next_op_id,
                    std::move(target));
  std::vector<Violation> violations;
  Status status = [&]() -> Status {
    LDAPBOUND_RETURN_IF_ERROR(AdmitWrite(&deadline));
    std::unique_lock<std::mutex> lock(*write_mu_);
    RequestScope::MarkCurrent(RequestStage::kLocked);
    LDAPBOUND_RETURN_IF_ERROR(CheckWritable());
    LDAPBOUND_RETURN_IF_ERROR(CheckQueuedDeadline(admission_.get(), deadline));
    std::vector<ChangeRecord> records;
    const bool recorded = changelog_ != nullptr || wal_ != nullptr;
    Status applied = body(recorded ? &records : nullptr, &violations);
    RequestScope::MarkCurrent(RequestStage::kBodyDone);
    if (!applied.ok()) return applied;
    // Snapshot readers must see this commit once the call returns OK:
    // publish under the mutex, before the durability wait.
    directory_->PublishSnapshot();
    RequestScope::MarkCurrent(RequestStage::kPublished);
    if (records.empty()) return Status::OK();
    const uint64_t txn_id = NextRecordTxnId();
    for (ChangeRecord& record : records) record.txn = txn_id;
    std::string payload;
    if (wal_ != nullptr) payload = ChangeRecordsToLdif(records, *vocab_);
    // The changelog mirrors the in-memory commit order, so it is appended
    // under the write mutex, before the durability wait — concurrent
    // writers cannot interleave its records out of commit order. (Should
    // the WAL append then fail, the server goes read-only and the extra
    // record still describes the in-memory state.)
    if (changelog_ != nullptr) {
      for (ChangeRecord& record : records) {
        changelog_->Append(std::move(record));
      }
    }
    // Durability before acknowledgement: the commit only returns OK once
    // its group's log frames are on disk.
    return WalPersist(std::move(payload), deadline, lock);
  }();
  // Past the write mutex: the vocabulary naming the violations is frozen.
  std::string explain = ExplainRefusal(status, violations, *vocab_);
  return tracker.Finish(std::move(status), std::move(explain));
}

Status DirectoryServer::Apply(const UpdateTransaction& txn,
                              CommitStats* stats, Deadline deadline) {
  return CommitTxn(GetServerMetrics().apply,
                   "txn(" + std::to_string(txn.ops().size()) + " ops)", txn,
                   stats, deadline);
}

Status DirectoryServer::CommitTxn(OpMetrics& op, std::string target,
                                  const UpdateTransaction& txn,
                                  CommitStats* stats, Deadline deadline) {
  return Write(
      op, std::move(target), deadline,
      [&](std::vector<ChangeRecord>* records,
          std::vector<Violation>* violations) -> Status {
        TransactionExecutor executor(directory_.get(), *schema_,
                                     ValidatorOptions());
        LDAPBOUND_RETURN_IF_ERROR(executor.Commit(txn, stats, violations));
        if (records == nullptr) return Status::OK();
        records->reserve(txn.ops().size());
        for (const UpdateOp& op : txn.ops()) {
          ChangeRecord record;
          record.dn = op.dn.ToString();
          if (op.kind == UpdateOp::Kind::kInsert) {
            record.kind = ChangeRecord::Kind::kAdd;
            record.spec = op.spec;
          } else {
            record.kind = ChangeRecord::Kind::kDelete;
          }
          records->push_back(std::move(record));
        }
        return Status::OK();
      });
}

DirectoryServer::Modification DirectoryServer::Inverse(
    const Modification& mod) {
  Modification inverse = mod;
  switch (mod.kind) {
    case Modification::Kind::kAddValue:
      inverse.kind = Modification::Kind::kRemoveValue;
      break;
    case Modification::Kind::kRemoveValue:
      inverse.kind = Modification::Kind::kAddValue;
      break;
    case Modification::Kind::kAddClass:
      inverse.kind = Modification::Kind::kRemoveClass;
      break;
    case Modification::Kind::kRemoveClass:
      inverse.kind = Modification::Kind::kAddClass;
      break;
  }
  return inverse;
}

Status DirectoryServer::ApplyOneModification(EntryId id,
                                             const Modification& mod,
                                             std::vector<Modification>* undo) {
  const Entry& entry = directory_->entry(id);
  switch (mod.kind) {
    case Modification::Kind::kAddValue:
      if (entry.HasValue(mod.attr, mod.value)) return Status::OK();  // no-op
      LDAPBOUND_RETURN_IF_ERROR(
          directory_->AddValue(id, mod.attr, mod.value));
      break;
    case Modification::Kind::kRemoveValue:
      if (!entry.HasValue(mod.attr, mod.value)) return Status::OK();
      LDAPBOUND_RETURN_IF_ERROR(
          directory_->RemoveValue(id, mod.attr, mod.value));
      break;
    case Modification::Kind::kAddClass:
      if (entry.HasClass(mod.cls)) return Status::OK();
      LDAPBOUND_RETURN_IF_ERROR(directory_->AddClass(id, mod.cls));
      break;
    case Modification::Kind::kRemoveClass:
      if (!entry.HasClass(mod.cls)) return Status::OK();
      LDAPBOUND_RETURN_IF_ERROR(directory_->RemoveClass(id, mod.cls));
      break;
  }
  undo->push_back(Inverse(mod));
  return Status::OK();
}

Status DirectoryServer::Modify(const DistinguishedName& dn,
                               const std::vector<Modification>& mods,
                               Deadline deadline) {
  return Write(
      GetServerMetrics().modify, dn.ToString(), deadline,
      [&](std::vector<ChangeRecord>* records,
          std::vector<Violation>* violations) -> Status {
        LDAPBOUND_ASSIGN_OR_RETURN(EntryId id, ResolveDn(*directory_, dn));
        std::vector<Modification> undo;
        auto rollback = [&]() {
          for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
            std::vector<Modification> ignored;
            (void)ApplyOneModification(id, *it, &ignored);
          }
        };
        for (const Modification& mod : mods) {
          Status applied = ApplyOneModification(id, mod, &undo);
          if (!applied.ok()) {
            rollback();
            // The directory's one kIllegal: a class the schema lacks.
            if (applied.code() != StatusCode::kIllegal) return applied;
            return Status::Illegal("modify of '" + dn.ToString() +
                                   "': " + applied.message());
          }
        }

        // Which class memberships actually changed (derived from the undo
        // log: it records only effective mutations).
        std::vector<ClassId> added_classes;
        std::vector<ClassId> removed_classes;
        for (const Modification& inverse : undo) {
          if (inverse.kind == Modification::Kind::kRemoveClass) {
            added_classes.push_back(inverse.cls);  // inverse of an add
          } else if (inverse.kind == Modification::Kind::kAddClass) {
            removed_classes.push_back(inverse.cls);
          }
        }

        // Re-check. Value-only modifies need the entry's content plus key
        // uniqueness; class changes run the reclassification validator,
        // which covers the entry's content and exactly the entries whose
        // structural requirements can be affected.
        LegalityChecker checker(*schema_, check_options_);
        bool ok;
        if (added_classes.empty() && removed_classes.empty()) {
          ok = checker.CheckEntryContent(*directory_, id, violations);
        } else {
          IncrementalValidator validator(*schema_, ValidatorOptions());
          ok = validator.CheckAfterReclassify(*directory_, id, added_classes,
                                              removed_classes, violations);
        }
        ok = checker.CheckKeys(*directory_, violations) && ok;
        if (!ok) {
          rollback();
          return SchemaRefusal("modify of '" + dn.ToString() + "'",
                               *violations, *vocab_);
        }
        if (records != nullptr) {
          ChangeRecord record;
          record.kind = ChangeRecord::Kind::kModify;
          record.dn = dn.ToString();
          record.mods = mods;
          records->push_back(std::move(record));
        }
        return Status::OK();
      });
}

Status DirectoryServer::ModifyDn(const DistinguishedName& dn,
                                 const DistinguishedName& new_parent_dn,
                                 std::string new_rdn, Deadline deadline) {
  return Write(
      GetServerMetrics().modify_dn, dn.ToString(), deadline,
      [&](std::vector<ChangeRecord>* records,
          std::vector<Violation>* violations) -> Status {
        LDAPBOUND_ASSIGN_OR_RETURN(EntryId entry, ResolveDn(*directory_, dn));
        EntryId new_parent = kInvalidEntryId;
        if (!new_parent_dn.IsEmpty()) {
          LDAPBOUND_ASSIGN_OR_RETURN(new_parent,
                                     ResolveDn(*directory_, new_parent_dn));
        }
        EntryId old_parent = directory_->entry(entry).parent();
        std::string old_rdn = directory_->entry(entry).rdn();

        LDAPBOUND_RETURN_IF_ERROR(directory_->MoveSubtree(entry, new_parent));
        if (!new_rdn.empty()) {
          Status renamed = directory_->Rename(entry, new_rdn);
          if (!renamed.ok()) {
            (void)directory_->MoveSubtree(entry, old_parent);
            return renamed;
          }
        }

        IncrementalValidator validator(*schema_, ValidatorOptions());
        if (!validator.CheckAfterMove(*directory_, entry, old_parent,
                                      violations)) {
          (void)directory_->Rename(entry, old_rdn);
          (void)directory_->MoveSubtree(entry, old_parent);
          return SchemaRefusal("moving '" + dn.ToString() + "'", *violations,
                               *vocab_);
        }
        if (records != nullptr) {
          ChangeRecord record;
          record.kind = ChangeRecord::Kind::kModifyDn;
          record.dn = dn.ToString();
          record.new_parent_dn = new_parent_dn.ToString();
          record.new_rdn = directory_->entry(entry).rdn();
          records->push_back(std::move(record));
        }
        return Status::OK();
      });
}

Result<std::vector<EntryId>> DirectoryServer::Search(
    const SearchRequest& request, Deadline deadline) const {
  OpTracker tracker(GetServerMetrics().search, slow_ops_.get(),
                    atomics_->next_op_id, request.base.ToString());
  if (deadline.expired()) {
    return tracker.Finish(Status::DeadlineExceeded(
        "search cancelled: deadline expired before the scan started"));
  }
  Result<std::vector<EntryId>> hits = ldapbound::Search(*directory_, request);
  tracker.Finish(hits.status());
  return hits;
}

Result<std::vector<EntryId>> DirectoryServer::Search(
    std::string_view base_dn, std::string_view filter) const {
  SearchRequest request;
  LDAPBOUND_ASSIGN_OR_RETURN(request.base,
                             DistinguishedName::Parse(base_dn));
  request.scope = SearchScope::kSubtree;
  LDAPBOUND_ASSIGN_OR_RETURN(request.filter, ParseFilter(filter, *vocab_));
  return Search(request);
}

Result<size_t> DirectoryServer::ImportLdif(std::string_view text) {
  OpTracker tracker(GetServerMetrics().import, slow_ops_.get(),
                    atomics_->next_op_id,
                    "ldif(" + std::to_string(text.size()) + " bytes)");
  std::vector<Violation> violations;
  auto imported = [&]() -> Result<size_t> {
    std::lock_guard<std::mutex> lock(*write_mu_);
    LDAPBOUND_RETURN_IF_ERROR(CheckWritable());
    // Load into the head and check the whole result. Ids are never
    // reused, so everything this load created sits at or above `first`;
    // deleting those newest first (a parent is created before its
    // children) restores the directory. Nothing is published or logged
    // before the import is legal.
    const EntryId first = static_cast<EntryId>(directory_->IdCapacity());
    Result<size_t> created = LoadLdif(text, directory_.get());
    Status status = created.status();
    if (status.ok() && !LegalityChecker(*schema_, check_options_)
                            .CheckLegal(*directory_, &violations)) {
      status = Status::Illegal(DescribeViolations(violations, *vocab_));
    }
    if (!status.ok()) {
      for (auto id = static_cast<EntryId>(directory_->IdCapacity());
           id-- > first;) {
        if (directory_->IsAlive(id)) (void)directory_->DeleteLeaf(id);
      }
      return status;
    }
    directory_->PublishSnapshot();
    // Bulk imports bypass the changelog, so they must reach the WAL as a
    // snapshot or the durable state would silently diverge.
    if (wal_ != nullptr) {
      status = CompactLocked();
      if (!status.ok()) {
        atomics_->wal_resync_needed.store(true, std::memory_order_release);
        health_->ReportWalFailure(status);
        return status;
      }
    }
    return created;
  }();
  tracker.Finish(imported.status(),
                 ExplainRefusal(imported.status(), violations, *vocab_));
  return imported;
}

std::string DirectoryServer::ExportLdif() const {
  return WriteLdif(*directory_);
}

bool DirectoryServer::IsLegal() const {
  LegalityChecker checker(*schema_, check_options_);
  return checker.CheckLegal(*directory_);
}

Status DirectoryServer::EnableWal(const std::string& dir,
                                  const WalOptions& options) {
  std::lock_guard<std::mutex> lock(*write_mu_);
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("WAL already enabled");
  }
  LDAPBOUND_RETURN_IF_ERROR(CheckWritable());
  LDAPBOUND_ASSIGN_OR_RETURN(WalDirListing listing, ListWalDir(dir));
  if (!listing.segments.empty() || listing.snapshot.has_value()) {
    return Status::FailedPrecondition(
        "WAL directory '" + dir +
        "' already contains a log; restart it via DirectoryServer::Recover");
  }
  // The schema is part of the durable state: Recover() must be able to
  // rebuild the server from the directory alone. It goes down before the
  // first segment so no crash window leaves a log without its schema.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("create WAL directory '" + dir +
                            "': " + ec.message());
  }
  LDAPBOUND_RETURN_IF_ERROR(
      AtomicWriteFile(dir + "/" + WriteAheadLog::kSchemaFileName,
                      FormatDirectorySchema(*schema_)));
  LDAPBOUND_ASSIGN_OR_RETURN(std::unique_ptr<WriteAheadLog> wal,
                             WriteAheadLog::Open(dir, options, /*next_seq=*/1));
  wal_ = std::move(wal);
  group_commit_ = std::make_unique<GroupCommitQueue>(wal_.get());
  // Pre-existing entries (e.g. a bulk-loaded seed) predate the log; write
  // them down as the initial snapshot.
  if (directory_->NumEntries() > 0) {
    Status status = CompactLocked();
    if (!status.ok()) {
      group_commit_ = nullptr;
      wal_ = nullptr;
      return status;
    }
  }
  return Status::OK();
}

Status DirectoryServer::Compact() {
  std::lock_guard<std::mutex> lock(*write_mu_);
  return CompactLocked();
}

Status DirectoryServer::CompactLocked() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("WAL not enabled");
  }
  LDAPBOUND_RETURN_IF_ERROR(CheckWritable());
  // The snapshot must cover every queued commit and no frame may land
  // after it with a sequence the snapshot already contains — otherwise
  // recovery would apply that commit twice. The write mutex is held, so
  // nothing new can enqueue behind the drain.
  group_commit_->Drain();
  return wal_->Compact([this](const SnapshotSink& sink) {
    return WriteLdif(*directory_, sink);
  });
}

Result<DirectoryServer> DirectoryServer::Recover(const std::string& dir,
                                                 const WalOptions& options,
                                                 WalRecoveryReport* report) {
  LDAPBOUND_ASSIGN_OR_RETURN(WalDirListing listing, ListWalDir(dir));
  if (listing.schema_text.empty()) {
    return Status::NotFound("WAL directory '" + dir + "' has no " +
                            WriteAheadLog::kSchemaFileName +
                            " — nothing to recover");
  }
  LDAPBOUND_ASSIGN_OR_RETURN(DirectoryServer server,
                             Create(listing.schema_text));

  WalRecoveryReport local_report;
  if (report == nullptr) report = &local_report;
  *report = WalRecoveryReport{};

  uint64_t after_seq = 0;
  if (listing.snapshot.has_value()) {
    std::ifstream in(listing.snapshot->first, std::ios::binary);
    if (!in) {
      return Status::NotFound("cannot open snapshot '" +
                              listing.snapshot->first + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto loaded = server.ImportLdif(buffer.str());
    if (!loaded.ok()) {
      return Status(loaded.status().code(),
                    "snapshot '" + listing.snapshot->first +
                        "' does not load: " + loaded.status().message());
    }
    after_seq = listing.snapshot->second;
    report->snapshot_seq = after_seq;
    report->snapshot_entries = *loaded;
  }

  Status replayed = ReplayWal(
      listing, after_seq,
      [&server](uint64_t seq, std::string_view payload) -> Status {
        auto applied = ApplyChangeLdif(payload, &server);
        if (!applied.ok()) {
          return Status(applied.status().code(),
                        "WAL frame seq " + std::to_string(seq) +
                            " does not replay: " + applied.status().message());
        }
        return Status::OK();
      },
      report);
  LDAPBOUND_RETURN_IF_ERROR(replayed);

  // The log only ever recorded committed-and-checked mutations, so the
  // replayed instance must be legal; anything else means the directory
  // was tampered with (or a bug) — refuse it.
  if (!server.IsLegal()) {
    return Status::Illegal(
        "recovered directory is not a legal instance of its schema "
        "(replayed " + std::to_string(report->frames_replayed) +
        " frames up to seq " + std::to_string(report->last_seq) + ")");
  }

  LDAPBOUND_ASSIGN_OR_RETURN(
      server.wal_,
      WriteAheadLog::Open(dir, options, report->last_seq + 1));
  server.group_commit_ =
      std::make_unique<GroupCommitQueue>(server.wal_.get());
  return server;
}

void DirectoryServer::EnableResilience(const ResilienceOptions& options) {
  std::lock_guard<std::mutex> lock(*write_mu_);
  admission_ = std::make_unique<AdmissionController>(options.admission,
                                                     group_commit_.get());
  if (options.auto_recover) {
    health_->StartProbe([this] { return DrainAndResync(); },
                        options.recovery_backoff);
  }
}

Status DirectoryServer::DrainAndResync() {
  std::lock_guard<std::mutex> lock(*write_mu_);
  // With the write mutex held no new commit can enter; draining lets
  // every already-queued commit fail out through the poisoned queue, so
  // nothing is in flight when the log is re-based.
  if (group_commit_ != nullptr) group_commit_->Drain();
  health_->EnterRecovering();
  if (wal_ != nullptr &&
      atomics_->wal_resync_needed.load(std::memory_order_acquire)) {
    // Re-base the log on the in-memory state: it is the acknowledged
    // history plus possibly a suffix of unacknowledged-but-applied
    // commits, which is exactly what the server must continue from (MVCC
    // readers have seen them).
    LDAPBOUND_RETURN_IF_ERROR(
        wal_->ResyncFromSnapshot([this](const SnapshotSink& sink) {
          return WriteLdif(*directory_, sink);
        }));
    group_commit_->ResetAfterResync();
    atomics_->wal_resync_needed.store(false, std::memory_order_release);
  }
  return Status::OK();
}

Status DirectoryServer::TryRecoverNow() {
  return health_->AttemptRecovery([this] { return DrainAndResync(); });
}

}  // namespace ldapbound
