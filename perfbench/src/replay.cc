// `perfbench_client replay`: the traced mode. Replays the workload's
// seeded open-loop op stream sequentially, in process, against the
// library's public calls, with a span (wall and thread-CPU time) around
// every call into a layer:
//
//   setup    DirectoryServer::Create, LoadLdif, LegalityChecker::Check*,
//            ImportLdif, EnableWal, EnableMvcc
//   reads    PinSnapshot, SnapshotSearch, SnapshotSearchPage +
//            SnapshotEntryDn — on the server's published snapshots
//   writes   decomposed on a second directory in the same state:
//            TransactionExecutor::Commit, Directory::PublishSnapshot,
//            ChangeRecordsToLdif, WriteAheadLog::AppendGroup — and whole
//            through DirectoryServer::Add/Delete, whose CPU time beyond
//            the in-memory parts is the facade's own overhead
//
// Op kinds the workload lacks are then measured by a short probe stream
// (so every layer reports on every workload), followed by the steady-state
// commit-drift sweep and a WAL recovery. Every answer is checked as in
// the wire run. Prints one JSON object; spans go to --spans-out.

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "commands.h"
#include "core/legality_checker.h"
#include "ldap/dn.h"
#include "ldap/ldif.h"
#include "opstream.h"
#include "server/changelog.h"
#include "server/directory_server.h"
#include "server/net_server.h"
#include "server/wal.h"
#include "update/transaction.h"

namespace perfbench {

using namespace ldapbound;

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

enum SpanPhase : uint8_t { kSetup, kWorkload, kProbe, kDrift };

/// In-memory span log: name, request, parent, wall interval and thread
/// CPU. Written out once, at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t request;
    int64_t parent;
    SpanPhase phase;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t cpu_ns;
  };

  /// Runs `fn` inside a span; returns its wall duration in ns.
  template <typename Fn>
  uint64_t Time(const char* name, Fn&& fn) {
    int64_t index = static_cast<int64_t>(spans_.size());
    spans_.push_back({name, request_, open_.empty() ? -1 : open_.back(),
                      phase_, 0, 0, 0});
    open_.push_back(index);
    uint64_t cpu = ClockNs(CLOCK_THREAD_CPUTIME_ID);
    uint64_t start = ClockNs(CLOCK_MONOTONIC);
    fn();
    uint64_t end = ClockNs(CLOCK_MONOTONIC);
    Span& s = spans_[index];
    s.start_ns = start;
    s.end_ns = end;
    s.cpu_ns = ClockNs(CLOCK_THREAD_CPUTIME_ID) - cpu;
    if (phase_ == kWorkload || phase_ == kProbe) ++counts_[s.name];
    open_.pop_back();
    last_ = index;
    return end - start;
  }

  /// Thread-CPU time of the span that closed last.
  uint64_t last_cpu_ns() const { return spans_[last_].cpu_ns; }

  void set_request(uint64_t request) { request_ = request; }
  void set_phase(SpanPhase phase) { phase_ = phase; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (in `unit_ns` units) of the workload's and the probe's
  /// spans named `name`.
  std::vector<double> Durations(const std::string& name,
                                double unit_ns) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && (s.phase == kWorkload || s.phase == kProbe)) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / unit_ns);
      }
    }
    return out;
  }

  /// Spans named `name` in the workload and probe phases.
  size_t Count(const std::string& name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "name\trequest\tparent\tphase\tstart_ns\tend_ns\tcpu_ns\n";
    for (const Span& s : spans_) {
      out << s.name << '\t' << s.request << '\t' << s.parent << '\t'
          << static_cast<int>(s.phase) << '\t' << s.start_ns << '\t'
          << s.end_ns << '\t' << s.cpu_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  std::map<std::string, size_t> counts_;
  int64_t last_ = 0;
  uint64_t request_ = 0;
  SpanPhase phase_ = kSetup;
};

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// Sum of the regular files' sizes under `dir`.
uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

class Replay {
 public:
  Replay(const Truth& truth, uint64_t seed, const std::string& dir,
         uint32_t page_size)
      : truth_(truth),
        seed_(seed),
        dir_(dir),
        page_size_(page_size),
        live_(truth.units.size(), 0),
        adds_(truth.units.size(), 0) {}

  Status Setup(const std::string& schema_text, const std::string& ldif);
  void Execute(const Op& op, uint64_t request);
  Status Drift(size_t pairs, double* ratio);
  Status RecoverFacade(double* us_per_frame);

  SpanLog& log() { return log_; }
  Directory& decomposed() { return *decomposed_; }
  uint64_t wal_commits() const { return wal_commits_; }
  std::string wal_dir() const { return dir_ + "/decomposed"; }
  size_t wrong() const { return wrong_; }
  const std::vector<std::string>& wrong_examples() const { return examples_; }

  std::map<std::string, double> setup_ms;
  std::vector<double> facade_overhead_us;

 private:
  struct PageState {
    bool scanning = false;
    uint32_t unit = 0;
    uint32_t scan_no = 0;
    uint64_t next_label = 0;
    uint64_t seen = 0;
    uint64_t live_at_start = 0;
    uint64_t adds_at_start = 0;
  };

  void Wrong(const Op& op, const std::string& why) {
    ++wrong_;
    if (examples_.size() < 5) {
      examples_.push_back(std::string(OpKindName(op.kind)) + " " + op.dn +
                          op.uid + ": " + why);
    }
  }

  void Read(const Op& op);
  void Write(const Op& op);

  const Truth& truth_;
  uint64_t seed_;
  std::string dir_;
  uint32_t page_size_;
  SpanLog log_;
  std::unique_ptr<DirectoryServer> server_;
  std::unique_ptr<Directory> decomposed_;
  std::unique_ptr<TransactionExecutor> executor_;
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t wal_commits_ = 0;
  uint64_t next_txn_ = 1;
  std::vector<uint64_t> live_;  ///< added-not-deleted persons per unit
  std::vector<uint64_t> adds_;  ///< adds per unit, ever
  PageState pages_[256];
  size_t wrong_ = 0;
  std::vector<std::string> examples_;
};

WalOptions ServingWalOptions() {
  WalOptions options;
  options.group_commit_max_batch = 4;
  // A lone sequential writer never has followers to wait for.
  options.group_commit_hold_us = 0;
  return options;
}

/// The facade's log skips the per-commit fsync: its overhead is measured
/// in thread-CPU time, and an fsync's CPU varies by more than that
/// overhead (the decomposed log keeps the fsync for wal_append_us).
/// Snapshots, EnableWal's included, stay durable either way.
WalOptions FacadeWalOptions() {
  WalOptions options = ServingWalOptions();
  options.sync = false;
  return options;
}

IncrementalValidator::Options ServingValidatorOptions() {
  // What DirectoryServer::Apply configures for the serving path.
  IncrementalValidator::Options options;
  options.delta_driven_insert = true;
  options.ancestor_path_optimization = true;
  return options;
}

Status Replay::Setup(const std::string& schema_text, const std::string& ldif) {
  log_.set_phase(kSetup);
  auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  Result<DirectoryServer> created = Status::Internal("not run");
  setup_ms["create_ms"] = ms(log_.Time("consistency.create", [&] {
    created = DirectoryServer::Create(schema_text);
  }));
  LDAPBOUND_RETURN_IF_ERROR(created.status());
  server_ = std::make_unique<DirectoryServer>(std::move(*created));

  decomposed_ = std::make_unique<Directory>(server_->directory().vocab_ptr());
  Result<size_t> loaded = Status::Internal("not run");
  setup_ms["load_ldif_ms"] = ms(log_.Time("ldap.load_ldif", [&] {
    loaded = LoadLdif(ldif, decomposed_.get());
  }));
  LDAPBOUND_RETURN_IF_ERROR(loaded.status());

  LegalityChecker checker(server_->schema());
  bool legal = true;
  setup_ms["check_content_ms"] = ms(log_.Time("core.check_content", [&] {
    legal &= checker.CheckContent(*decomposed_);
  }));
  setup_ms["check_structure_ms"] = ms(log_.Time("core.check_structure", [&] {
    legal &= checker.CheckStructure(*decomposed_);
  }));
  setup_ms["check_keys_ms"] = ms(log_.Time("core.check_keys", [&] {
    legal &= checker.CheckKeys(*decomposed_);
  }));
  if (!legal) return Status::Illegal("generated directory is not legal");

  Result<size_t> imported = Status::Internal("not run");
  setup_ms["import_ms"] = ms(log_.Time("server.import", [&] {
    imported = server_->ImportLdif(ldif);
  }));
  LDAPBOUND_RETURN_IF_ERROR(imported.status());
  Status wal;
  setup_ms["enable_wal_ms"] = ms(log_.Time("server.enable_wal", [&] {
    wal = server_->EnableWal(dir_ + "/facade", FacadeWalOptions());
  }));
  LDAPBOUND_RETURN_IF_ERROR(wal);
  setup_ms["enable_snapshots_ms"] = ms(log_.Time(
      "model.enable_snapshots", [&] { server_->EnableMvcc(); }));

  // The decomposed write path: the same state, its own executor and log.
  decomposed_->EnableSnapshots();
  executor_ = std::make_unique<TransactionExecutor>(
      decomposed_.get(), server_->schema(), ServingValidatorOptions());
  LDAPBOUND_ASSIGN_OR_RETURN(
      wal_, WriteAheadLog::Open(wal_dir(), ServingWalOptions(), 1));
  return Status::OK();
}

void Replay::Execute(const Op& op, uint64_t request) {
  log_.set_request(request);
  switch (op.kind) {
    case OpKind::kLookup:
    case OpKind::kScan:
    case OpKind::kPage:
      Read(op);
      break;
    case OpKind::kAdd:
    case OpKind::kDelete:
    case OpKind::kIllegalAdd:
      Write(op);
      break;
    case OpKind::kPing:
      break;
  }
}

void Replay::Read(const Op& op) {
  PinnedSnapshot pin;
  log_.Time("model.pin", [&] { pin = server_->PinSnapshot(); });
  const Vocabulary& vocab = server_->vocab();
  if (op.kind == OpKind::kLookup) {
    Result<std::vector<EntryId>> hits = Status::Internal("not run");
    log_.Time("query.lookup", [&] {
      hits = SnapshotSearch(*pin, vocab, "o=acme", 2, "(uid=" + op.uid + ")");
    });
    if (!hits.ok() || static_cast<int64_t>(hits->size()) != op.expect) {
      Wrong(op, "lookup expected " + std::to_string(op.expect) + " ids");
    }
    return;
  }
  if (op.kind == OpKind::kScan) {
    Result<std::vector<EntryId>> hits = Status::Internal("not run");
    log_.Time("query.scan", [&] {
      hits = SnapshotSearch(*pin, vocab, op.dn, 2, "(objectClass=person)");
    });
    uint64_t expect = truth_.units[op.unit].persons + live_[op.unit];
    if (!hits.ok() || hits->size() != expect) {
      Wrong(op, "scan expected " + std::to_string(expect) + " hits");
    }
    return;
  }
  PageState& page = pages_[op.conn];
  if (!page.scanning) {
    page = PageState{true, 0, page.scan_no, 0, 0, 0, 0};
    // The same unit sequence the wire client walks on this connection.
    page.unit = truth_.leaf_units[MixSeed(MixSeed(seed_, op.conn), page.scan_no++) %
                                  truth_.leaf_units.size()];
    page.live_at_start = live_[page.unit];
    page.adds_at_start = adds_[page.unit];
  }
  const std::string& unit_dn = truth_.units[page.unit].dn;
  Result<std::vector<SnapshotPageHit>> hits = Status::Internal("not run");
  std::vector<std::string> dns;
  log_.Time("query.page", [&] {
    hits = SnapshotSearchPage(*pin, vocab, unit_dn, 2, "(objectClass=person)",
                              page.next_label, page_size_ + 1);
    if (!hits.ok()) return;
    size_t n = std::min<size_t>(hits->size(), page_size_);
    for (size_t k = 0; k < n; ++k) {
      auto dn = SnapshotEntryDn(*pin, (*hits)[k].id);
      dns.push_back(dn.ok() ? *dn : "");
    }
  });
  if (!hits.ok()) {
    Wrong(op, "page failed: " + hits.status().ToString());
    page.scanning = false;
    return;
  }
  for (const std::string& dn : dns) {
    if (dn.size() <= unit_dn.size() ||
        dn.compare(dn.size() - unit_dn.size(), unit_dn.size(), unit_dn) != 0) {
      Wrong(op, "page entry '" + dn + "' outside " + unit_dn);
    }
  }
  page.seen += dns.size();
  if (hits->size() > page_size_) {
    page.next_label = (*hits)[page_size_ - 1].label + 1;
    return;
  }
  page.scanning = false;
  uint64_t lo = truth_.units[page.unit].persons;
  uint64_t hi = lo + page.live_at_start + adds_[page.unit] - page.adds_at_start;
  if (page.seen < lo || page.seen > hi) {
    Wrong(op, "paged scan saw " + std::to_string(page.seen) + " persons");
  }
}

void Replay::Write(const Op& op) {
  auto dn = DistinguishedName::Parse(op.dn);
  if (!dn.ok()) {
    Wrong(op, "bad DN");
    return;
  }
  UpdateTransaction txn;
  EntrySpec spec;
  if (op.kind == OpKind::kDelete) {
    txn.Delete(*dn);
  } else {
    AddPayload p = PayloadOf(op);
    spec.classes = p.classes;
    spec.values = p.values;
    txn.Insert(*dn, spec);
  }

  // The facade's overhead: its thread-CPU time beyond the decomposed
  // Commit, publish and encode (it keeps its own log write, not fsync'd).
  Status committed;
  const char* commit_span = op.kind == OpKind::kAdd      ? "update.commit_add"
                            : op.kind == OpKind::kDelete ? "update.commit_delete"
                                                         : "update.reject";
  log_.Time(commit_span, [&] { committed = executor_->Commit(txn); });
  uint64_t parts = log_.last_cpu_ns();
  Status facade;
  if (op.kind == OpKind::kIllegalAdd) {
    if (committed.code() != StatusCode::kIllegal) {
      Wrong(op, "planted illegal add was not refused as illegal");
    }
    log_.Time("server.facade_reject",
              [&] { facade = server_->Add(*dn, spec); });
    if (facade.code() != StatusCode::kIllegal) {
      Wrong(op, "server accepted a planted illegal add");
    }
    return;
  }
  if (!committed.ok()) {
    Wrong(op, "commit refused: " + committed.ToString().substr(0, 200));
    return;
  }
  log_.Time("model.publish", [&] { decomposed_->PublishSnapshot(); });
  parts += log_.last_cpu_ns();
  ChangeRecord record;
  record.kind = op.kind == OpKind::kAdd ? ChangeRecord::Kind::kAdd
                                        : ChangeRecord::Kind::kDelete;
  record.txn = next_txn_++;
  record.dn = dn->ToString();
  record.spec = spec;
  std::string payload;
  log_.Time("server.changelog_encode", [&] {
    payload = ChangeRecordsToLdif({record}, server_->vocab());
  });
  parts += log_.last_cpu_ns();
  Status appended;
  log_.Time("server.wal_append", [&] {
    appended = wal_->AppendGroup({std::string_view(payload)});
  });
  if (!appended.ok()) Wrong(op, "WAL append failed");
  ++wal_commits_;

  log_.Time(
      op.kind == OpKind::kAdd ? "server.facade_add" : "server.facade_delete",
      [&] {
        facade = op.kind == OpKind::kAdd ? server_->Add(*dn, spec)
                                         : server_->Delete(*dn);
      });
  uint64_t whole = log_.last_cpu_ns();
  if (!facade.ok()) {
    Wrong(op, "server refused: " + facade.ToString().substr(0, 200));
    return;
  }
  facade_overhead_us.push_back((static_cast<double>(whole) -
                                static_cast<double>(parts)) / 1e3);
  if (op.kind == OpKind::kAdd) {
    ++live_[op.unit];
    ++adds_[op.unit];
  } else {
    --live_[op.unit];
  }
}

/// Marginal Commit cost at fixed |D|: `pairs` add/delete pairs through
/// the decomposed executor; returns last-decile ÷ first-decile mean.
Status Replay::Drift(size_t pairs, double* ratio) {
  log_.set_phase(kDrift);
  std::vector<double> decile_ns(10, 0);
  const size_t per_decile = std::max<size_t>(pairs / 10, 1);
  for (size_t k = 0; k < per_decile * 10; ++k) {
    const Unit& unit = truth_.units[k % truth_.units.size()];
    LDAPBOUND_ASSIGN_OR_RETURN(
        DistinguishedName dn,
        DistinguishedName::Parse("uid=drift" + std::to_string(k) + "," +
                                 unit.dn));
    EntrySpec spec;
    spec.classes = {"person", "top"};
    spec.values = {{"uid", "drift" + std::to_string(k)},
                   {"name", "drift " + std::to_string(k)}};
    UpdateTransaction add;
    add.Insert(dn, spec);
    UpdateTransaction del;
    del.Delete(dn);
    Status a, d;
    uint64_t ns = log_.Time("update.commit_add", [&] { a = executor_->Commit(add); });
    decomposed_->PublishSnapshot();
    ns += log_.Time("update.commit_delete", [&] { d = executor_->Commit(del); });
    decomposed_->PublishSnapshot();
    LDAPBOUND_RETURN_IF_ERROR(a);
    LDAPBOUND_RETURN_IF_ERROR(d);
    decile_ns[k / per_decile] += static_cast<double>(ns);
  }
  *ratio = decile_ns[9] / decile_ns[0];
  return Status::OK();
}

Status Replay::RecoverFacade(double* us_per_frame) {
  server_.reset();  // closes the facade's log
  WalRecoveryReport report;
  Result<DirectoryServer> recovered = Status::Internal("not run");
  uint64_t ns = log_.Time("server.recover", [&] {
    recovered = DirectoryServer::Recover(dir_ + "/facade", WalOptions{},
                                         &report);
  });
  LDAPBOUND_RETURN_IF_ERROR(recovered.status());
  *us_per_frame = static_cast<double>(ns) / 1e3 /
                  static_cast<double>(std::max<size_t>(report.frames_replayed, 1));
  return Status::OK();
}

/// Cost of one span (both clocks read twice), for the overhead estimate.
double SpanCostNs() {
  SpanLog scratch;
  const int n = 20000;
  uint64_t start = ClockNs(CLOCK_MONOTONIC);
  for (int i = 0; i < n; ++i) scratch.Time("calibrate", [] {});
  return static_cast<double>(ClockNs(CLOCK_MONOTONIC) - start) / n;
}

}  // namespace

int RunReplay(const Flags& flags) {
  std::string schema_text, ldif, truth_text;
  Truth truth;
  Workload workload;
  if (!ReadWholeFile(flags.Get("schema"), &schema_text) ||
      !ReadWholeFile(flags.Get("ldif"), &ldif) ||
      !ReadWholeFile(flags.Get("truth"), &truth_text) ||
      !truth.Parse(truth_text) ||
      !ParseWorkload(flags.Get("workload"), &workload)) {
    std::fprintf(stderr, "replay: bad --schema, --ldif, --truth or --workload\n");
    return 2;
  }
  const std::string dir = flags.Get("dir");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  const uint64_t seed = flags.GetU64("seed");

  Replay replay(truth, seed, dir,
                static_cast<uint32_t>(flags.GetU64("page-size", 100)));
  Status setup = replay.Setup(schema_text, ldif);
  if (!setup.ok()) {
    std::fprintf(stderr, "replay: setup: %s\n", setup.ToString().c_str());
    return 2;
  }

  // The workload's own stream: the wire run's open-loop schedule.
  SpanLog& log = replay.log();
  log.set_phase(kWorkload);
  std::vector<Op> ops = BuildSchedule(workload, truth, seed, /*phase=*/1,
                                      flags.GetDouble("rate"),
                                      flags.GetDouble("open"), 4);
  const uint64_t start = ClockNs(CLOCK_MONOTONIC);
  const uint64_t budget_ns =
      static_cast<uint64_t>(flags.GetDouble("budget", 60) * 1e9);
  size_t replayed = 0;
  for (const Op& op : ops) {
    if (ClockNs(CLOCK_MONOTONIC) - start > budget_ns) break;
    replay.Execute(op, ++replayed);
  }
  const double workload_wall_ns =
      static_cast<double>(ClockNs(CLOCK_MONOTONIC) - start);
  size_t workload_spans = 0;
  double query_cpu = 0, layer_cpu = 0;
  for (const auto& s : log.spans()) {
    if (s.phase != kWorkload) continue;
    ++workload_spans;
    if (s.name.rfind("server.facade", 0) == 0) continue;  // the whole, again
    layer_cpu += static_cast<double>(s.cpu_ns);
    if (s.name.rfind("query.", 0) == 0) query_cpu += static_cast<double>(s.cpu_ns);
  }

  // Probe the op kinds the stream lacked, so every layer reports.
  log.set_phase(kProbe);
  const size_t kMinSamples = 200;
  struct ProbeNeed {
    Workload stream;
    std::vector<const char*> spans;
  };
  const ProbeNeed needs[] = {
      {Workload::kChurn,
       {"update.commit_add", "update.commit_delete", "update.reject"}},
      {Workload::kBrowse, {"query.lookup", "query.scan", "query.page"}},
  };
  uint32_t probe_phase = 3;
  for (const ProbeNeed& need : needs) {
    ConnStream stream(need.stream, truth, seed, probe_phase++, 200);
    for (int64_t k = 0; k < 50000; ++k) {
      bool lacking = false;
      for (const char* span : need.spans) {
        lacking |= log.Count(span) < kMinSamples;
      }
      if (!lacking) break;
      Op op = stream.Next(k);
      op.conn = 200;
      replay.Execute(op, ++replayed);
    }
  }

  std::map<std::string, double> layers = replay.setup_ms;
  layers["id_capacity_ratio"] =
      static_cast<double>(replay.decomposed().IdCapacity()) /
      static_cast<double>(replay.decomposed().NumEntries());
  layers["wal_bytes_per_commit"] =
      static_cast<double>(DirBytes(replay.wal_dir())) /
      static_cast<double>(std::max<uint64_t>(replay.wal_commits(), 1));
  const std::vector<double> pins = log.Durations("model.pin", 1);
  // A mean: a median of a ~100 ns call can repeat to the nanosecond.
  layers["pin_ns"] = std::accumulate(pins.begin(), pins.end(), 0.0) /
                     static_cast<double>(std::max<size_t>(pins.size(), 1));
  layers["lookup_us"] = Median(log.Durations("query.lookup", 1e3));
  layers["scan_us"] = Median(log.Durations("query.scan", 1e3));
  layers["page_us"] = Median(log.Durations("query.page", 1e3));
  layers["query_cpu_share"] = layer_cpu > 0 ? query_cpu / layer_cpu : 0;
  layers["commit_add_us"] = Median(log.Durations("update.commit_add", 1e3));
  layers["commit_delete_us"] = Median(log.Durations("update.commit_delete", 1e3));
  layers["reject_us"] = Median(log.Durations("update.reject", 1e3));
  layers["publish_us"] = Median(log.Durations("model.publish", 1e3));
  layers["changelog_encode_us"] =
      Median(log.Durations("server.changelog_encode", 1e3));
  layers["wal_append_us"] = Median(log.Durations("server.wal_append", 1e3));
  layers["facade_overhead_us"] = Median(replay.facade_overhead_us);
  layers["overhead_frac"] =
      SpanCostNs() * static_cast<double>(workload_spans) / workload_wall_ns;

  double drift = 0, recover_us = 0;
  Status drifted =
      replay.Drift(static_cast<size_t>(flags.GetU64("drift-pairs", 20000)),
                   &drift);
  Status recovered = replay.RecoverFacade(&recover_us);
  if (!drifted.ok() || !recovered.ok()) {
    std::fprintf(stderr, "replay: %s\n",
                 (!drifted.ok() ? drifted : recovered).ToString().c_str());
    return 2;
  }
  layers["commit_drift"] = drift;
  layers["recover_us_per_frame"] = recover_us;
  if (flags.Has("spans-out")) log.Write(flags.Get("spans-out"));

  std::string out = "{\"wrong\": " + std::to_string(replay.wrong());
  out += ", \"wrong_examples\": [";
  for (size_t k = 0; k < replay.wrong_examples().size(); ++k) {
    out += (k ? ", " : "") + JsonString(replay.wrong_examples()[k]);
  }
  out += "], \"replayed\": " + std::to_string(replayed);
  out += ", \"workload_ops\": " + std::to_string(ops.size());
  out += ", \"layers\": {";
  bool first = true;
  for (const auto& [name, value] : layers) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  std::filesystem::remove_all(dir, ec);
  return replay.wrong() == 0 ? 0 : 3;
}

}  // namespace perfbench
