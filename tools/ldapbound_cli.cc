// ldapbound command-line tool: validate, diagnose and query directories
// from schema/LDIF files.
//
//   ldapbound check <schema> <ldif>            legality verdict + violations
//   ldapbound consistency <schema>             Section 5 verdict (+ trace)
//   ldapbound witness <schema>                 emit a legal instance as LDIF
//   ldapbound format <schema>                  canonicalize a schema file
//   ldapbound search <schema> <ldif> <base-dn> <filter>
//   ldapbound query <schema> <ldif> <hier-query>   (the §3.2 s-expressions)
//   ldapbound stats <schema> <ldif>            human-readable shape stats
//   ldapbound stats <schema> <ldif> --metrics  Prometheus text exposition
//   ldapbound explain <schema> <ldif>          EXPLAIN every structure-schema
//                                              constraint's query plan
//   ldapbound serve <schema> <ldif> --monitor-port <p> [--port <p>]
//                                              serve + monitor endpoint (+ the
//                                              wire-protocol front end)
//   ldapbound recover <wal-dir>                replay WAL, print the directory
//   ldapbound compact <wal-dir>                recover + snapshot + truncate
//
// Global flags:
//   --metrics            (stats) run the legality pipeline and emit the
//                        process metrics in Prometheus text format
//   --json               (explain) emit the plans as JSON instead of text
//   --monitor-port <p>   (serve) monitor endpoint port (0 = ephemeral)
//   --slow-ops <n>       (serve) slow-op log capacity (default 32)
//   --log-json <file|->  (serve) structured JSON op log ("-" = stderr)
//   --wal-dir <d>        (serve) durable commits via a write-ahead log
//   --group-commit-batch <n>, --group-commit-hold-us <us>
//                        (serve) WAL group commit tuning (see server/wal.h)
//   --trace-out <file>   record spans and write Chrome trace JSON
//                        (chrome://tracing / Perfetto) on exit
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "consistency/inference.h"
#include "consistency/witness.h"
#include "core/legality_checker.h"
#include "ldap/filter.h"
#include "ldap/ldif.h"
#include "ldap/query_parser.h"
#include "ldap/search.h"
#include "query/evaluator.h"
#include "schema/schema_format.h"
#include "server/directory_server.h"
#include "server/flight_recorder.h"
#include "server/monitor.h"
#include "server/net_server.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace {

using namespace ldapbound;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ldapbound check <schema> <ldif>\n"
               "  ldapbound consistency <schema>\n"
               "  ldapbound witness <schema>\n"
               "  ldapbound format <schema>\n"
               "  ldapbound search <schema> <ldif> <base-dn> <filter>\n"
               "  ldapbound query <schema> <ldif> <hier-query>\n"
               "  ldapbound stats <schema> <ldif> [--metrics]\n"
               "  ldapbound explain <schema> <ldif> [--json]\n"
               "  ldapbound serve <schema> <ldif> --monitor-port <port>\n"
               "      [--port <p>] [--slow-ops <n>] [--log-json <file|->]\n"
               "      [--wal-dir <d>] [--group-commit-batch <n>] "
               "[--group-commit-hold-us <us>]\n"
               "  ldapbound recover <wal-dir>\n"
               "  ldapbound compact <wal-dir>\n"
               "flags:\n"
               "  --metrics            stats: exercise the legality pipeline "
               "and print\n"
               "                       Prometheus text exposition\n"
               "  --json               explain: emit plans as JSON\n"
               "  --monitor-port <p>   serve: monitor port (0 = ephemeral)\n"
               "  --slow-ops <n>       serve: slow-op log capacity\n"
               "  --log-json <file|->  serve: JSON op log sink\n"
               "  --wal-dir <d>        serve: fsync commits to a write-ahead "
               "log in <d>\n"
               "  --group-commit-batch <n>\n"
               "                       serve: batch up to n commits per WAL "
               "fsync (default 1:\n"
               "                       each commit is a group of one in the "
               "commit queue)\n"
               "  --group-commit-hold-us <us>\n"
               "                       serve: leader hold window for group "
               "commit (default 200)\n"
               "  --max-queue-depth <n>\n"
               "                       serve: shed writes (retryable "
               "Overloaded) while the\n"
               "                       group-commit queue holds n commits "
               "(default 0 = unbounded)\n"
               "  --default-deadline-ms <ms>\n"
               "                       serve: cancellation budget for ops "
               "without an explicit\n"
               "                       deadline (default 0 = none)\n"
               "  --recovery-backoff-ms <ms>\n"
               "                       serve: auto-recover from WAL faults, "
               "probing with\n"
               "                       exponential backoff from ms (default 0 "
               "= stay read-only)\n"
               "  --port <p>           serve: wire-protocol front end port "
               "(0 = ephemeral;\n"
               "                       omit the flag to serve the monitor "
               "only)\n"
               "  --max-connections <n>\n"
               "                       serve: wire connection limit; beyond "
               "it connections\n"
               "                       are shed retryable (default 4096)\n"
               "  --max-pending-ops <n>\n"
               "                       serve: wire dispatch-queue bound "
               "(default 1024)\n"
               "  --net-workers <n>    serve: wire worker threads (default "
               "2)\n"
               "  --net-reactors <n>   serve: reactor threads, each with its "
               "own epoll and\n"
               "                       SO_REUSEPORT listener (default 0 = one "
               "per core)\n"
               "  --drain-grace-ms <ms>\n"
               "                       serve: how long Stop() lets queued "
               "responses flush\n"
               "                       before force-closing (default 500)\n"
               "  --cursor-idle-ms <ms>\n"
               "                       serve: reap idle paged-search cursors "
               "(default 30000,\n"
               "                       0 = never)\n"
               "  --idle-timeout-ms <ms>\n"
               "                       serve: reap idle wire connections "
               "(default 60000,\n"
               "                       0 = never)\n"
               "  --flight-interval-ms <ms>\n"
               "                       serve: flight-recorder sampling period "
               "(default 1000)\n"
               "  --flight-capacity <n>\n"
               "                       serve: flight-recorder retained "
               "samples (default 300;\n"
               "                       0 disables /timeseries)\n"
               "  --trace-out <file>   write Chrome trace JSON of the run\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<DirectorySchema> LoadSchema(const std::string& path,
                                   std::shared_ptr<Vocabulary> vocab) {
  LDAPBOUND_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseDirectorySchema(text, std::move(vocab));
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

int RunCheck(const std::string& schema_path, const std::string& ldif_path) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = LoadSchema(schema_path, vocab);
  if (!schema.ok()) return Fail(schema.status());
  auto ldif = ReadFile(ldif_path);
  if (!ldif.ok()) return Fail(ldif.status());
  Directory directory(vocab);
  auto loaded = LoadLdif(*ldif, &directory);
  if (!loaded.ok()) return Fail(loaded.status());

  LegalityChecker checker(*schema);
  std::vector<Violation> violations;
  if (checker.CheckLegal(directory, &violations)) {
    std::printf("LEGAL (%zu entries)\n", directory.NumEntries());
    return 0;
  }
  std::printf("ILLEGAL (%zu entries, %zu violations)\n%s",
              directory.NumEntries(), violations.size(),
              DescribeViolations(violations, *vocab).c_str());
  return 1;
}

int RunConsistency(const std::string& schema_path) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = LoadSchema(schema_path, vocab);
  if (!schema.ok()) return Fail(schema.status());
  ConsistencyChecker checker(*schema);
  if (checker.IsConsistent()) {
    std::printf("CONSISTENT\n");
    for (ClassId c : checker.engine().ImpossibleClasses()) {
      std::printf("note: class '%s' can never be populated\n",
                  vocab->ClassName(c).c_str());
    }
    for (const SchemaElement& e : FindRedundantElements(*schema)) {
      std::printf("lint: redundant element: %s\n",
                  e.ToString(*vocab).c_str());
    }
    return 0;
  }
  std::printf("INCONSISTENT\n%s",
              checker.engine().Explain(SchemaElement::Bottom()).c_str());
  return 1;
}

int RunWitness(const std::string& schema_path) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = LoadSchema(schema_path, vocab);
  if (!schema.ok()) return Fail(schema.status());
  auto witness = WitnessBuilder(*schema).Build();
  if (!witness.ok()) return Fail(witness.status());
  std::printf("%s", WriteLdif(*witness).c_str());
  return 0;
}

int RunFormat(const std::string& schema_path) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = LoadSchema(schema_path, vocab);
  if (!schema.ok()) return Fail(schema.status());
  std::printf("%s", FormatDirectorySchema(*schema).c_str());
  return 0;
}

int RunSearch(const std::string& schema_path, const std::string& ldif_path,
              const std::string& base, const std::string& filter_text) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = LoadSchema(schema_path, vocab);
  if (!schema.ok()) return Fail(schema.status());
  auto ldif = ReadFile(ldif_path);
  if (!ldif.ok()) return Fail(ldif.status());
  Directory directory(vocab);
  auto loaded = LoadLdif(*ldif, &directory);
  if (!loaded.ok()) return Fail(loaded.status());

  SearchRequest request;
  auto dn = DistinguishedName::Parse(base);
  if (!dn.ok()) return Fail(dn.status());
  request.base = *dn;
  request.scope = SearchScope::kSubtree;
  auto filter = ParseFilter(filter_text, *vocab);
  if (!filter.ok()) return Fail(filter.status());
  request.filter = *filter;

  auto hits = Search(directory, request);
  if (!hits.ok()) return Fail(hits.status());
  for (EntryId id : *hits) {
    std::printf("%s\n", DnOf(directory, id)->ToString().c_str());
  }
  std::fprintf(stderr, "%zu entries matched\n", hits->size());
  return 0;
}

int RunQuery(const std::string& schema_path, const std::string& ldif_path,
             const std::string& query_text) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = LoadSchema(schema_path, vocab);
  if (!schema.ok()) return Fail(schema.status());
  auto ldif = ReadFile(ldif_path);
  if (!ldif.ok()) return Fail(ldif.status());
  Directory directory(vocab);
  auto loaded = LoadLdif(*ldif, &directory);
  if (!loaded.ok()) return Fail(loaded.status());

  auto query = ParseQuery(query_text, *vocab);
  if (!query.ok()) return Fail(query.status());
  QueryEvaluator evaluator(directory);
  EntrySet result = evaluator.Evaluate(*query);
  result.ForEach([&](EntryId id) {
    std::printf("%s\n", DnOf(directory, id)->ToString().c_str());
  });
  std::fprintf(stderr, "%zu entries matched\n", result.Count());
  return 0;
}

// Drives the full pipeline over the given schema + LDIF so every metric
// family has live data, then prints the registry in Prometheus text
// format. The server/WAL exercise runs in a throwaway WAL directory.
int RunMetrics(const std::string& schema_path, const std::string& ldif_path) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = LoadSchema(schema_path, vocab);
  if (!schema.ok()) return Fail(schema.status());
  auto schema_text = ReadFile(schema_path);
  if (!schema_text.ok()) return Fail(schema_text.status());
  auto ldif = ReadFile(ldif_path);
  if (!ldif.ok()) return Fail(ldif.status());
  Directory directory(vocab);
  auto loaded = LoadLdif(*ldif, &directory);
  if (!loaded.ok()) return Fail(loaded.status());

  // Checker + query + pool families: one full legality run.
  LegalityChecker checker(*schema);
  std::vector<Violation> violations;
  checker.CheckLegal(directory, &violations);

  // Server + WAL families: import the same data into a WAL-backed server
  // (consistency or legality failures still count — as rejections).
  std::error_code ec;
  std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path(ec) /
      ("ldapbound-metrics-" + std::to_string(::getpid()));
  std::filesystem::remove_all(wal_dir, ec);
  auto server = DirectoryServer::Create(*schema_text);
  if (server.ok()) {
    WalOptions wal_options;
    Status wal_enabled = server->EnableWal(wal_dir.string(), wal_options);
    (void)server->ImportLdif(*ldif);
    if (wal_enabled.ok()) (void)server->Compact();
  }
  std::filesystem::remove_all(wal_dir, ec);

  std::fputs(MetricRegistry::Default().RenderPrometheus().c_str(), stdout);
  return 0;
}

int RunStats(const std::string& schema_path, const std::string& ldif_path) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = LoadSchema(schema_path, vocab);
  if (!schema.ok()) return Fail(schema.status());
  auto ldif = ReadFile(ldif_path);
  if (!ldif.ok()) return Fail(ldif.status());
  Directory directory(vocab);
  auto loaded = LoadLdif(*ldif, &directory);
  if (!loaded.ok()) return Fail(loaded.status());

  DirectoryStats stats = directory.ComputeStats();
  std::printf("entries:        %zu\n", stats.num_entries);
  std::printf("roots:          %zu\n", stats.num_roots);
  std::printf("leaves:         %zu\n", stats.num_leaves);
  std::printf("max depth:      %zu\n", stats.max_depth);
  std::printf("avg depth:      %.2f\n", stats.avg_depth);
  std::printf("max fanout:     %zu\n", stats.max_fanout);
  std::printf("values:         %zu\n", stats.total_values);
  std::printf("class memberships: %zu\n", stats.total_classes);
  std::printf("depth histogram:\n");
  for (size_t depth = 0; depth < stats.depth_histogram.size(); ++depth) {
    std::printf("  depth %zu: %zu\n", depth, stats.depth_histogram[depth]);
  }
  std::printf("entries per class:\n");
  for (ClassId c = 0; c < vocab->num_classes(); ++c) {
    size_t count = directory.CountWithClass(c);
    if (count > 0) {
      std::printf("  %s: %zu\n", vocab->ClassName(c).c_str(), count);
    }
  }
  return 0;
}

// EXPLAIN for the legality pipeline: profiles the translated query of
// every structure-schema constraint (required classes via their witness
// query, required/forbidden relationships via their violation query) and
// prints each plan tree with per-node cardinalities, strategies and
// latencies; then reports the verdict, annotating every violation with
// the constraint/query that detected it.
int RunExplain(const std::string& schema_path, const std::string& ldif_path,
               bool as_json) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = LoadSchema(schema_path, vocab);
  if (!schema.ok()) return Fail(schema.status());
  auto ldif = ReadFile(ldif_path);
  if (!ldif.ok()) return Fail(ldif.status());
  Directory directory(vocab);
  auto loaded = LoadLdif(*ldif, &directory);
  if (!loaded.ok()) return Fail(loaded.status());

  LegalityChecker checker(*schema);
  std::vector<ConstraintExplain> plans = checker.ExplainStructure(directory);
  std::vector<Violation> violations;
  bool legal = checker.CheckLegal(directory, &violations);

  if (as_json) {
    std::string out = "{\"constraints\":[";
    for (size_t i = 0; i < plans.size(); ++i) {
      if (i > 0) out += ',';
      out += plans[i].RenderJson();
    }
    out += "],\"legal\":";
    out += legal ? "true" : "false";
    out += ",\"violations\":[";
    for (size_t i = 0; i < violations.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"description\":";
      out += JsonQuote(violations[i].Describe(*vocab));
      out += ",\"detected_by\":";
      out += JsonQuote(violations[i].DetectedBy(*vocab));
      out += '}';
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return legal ? 0 : 1;
  }

  if (plans.empty()) {
    std::printf("schema has no structure constraints\n");
  }
  for (const ConstraintExplain& plan : plans) {
    std::printf("%s\n", plan.RenderText().c_str());
  }
  if (legal) {
    std::printf("LEGAL (%zu entries)\n", directory.NumEntries());
    return 0;
  }
  std::printf("ILLEGAL (%zu entries, %zu violations)\n",
              directory.NumEntries(), violations.size());
  for (const Violation& v : violations) {
    std::printf("  %s\n    detected by: %s\n", v.Describe(*vocab).c_str(),
                v.DetectedBy(*vocab).c_str());
  }
  return 1;
}

struct ServeOptions {
  int monitor_port = -1;        // required; 0 = ephemeral
  int wire_port = -1;           // wire front end (-1 = off, 0 = ephemeral)
  size_t slow_ops = 32;         // slow-op log capacity
  std::string log_json;         // JSON op log sink ("" = off, "-" = stderr)
  std::string wal_dir;          // durable commits ("" = no WAL)
  size_t group_commit_batch = 1;     // WAL group commit: max commits/fsync
  uint32_t group_commit_hold_us = 200;  // leader hold window
  size_t max_queue_depth = 0;        // admission bound (0 = unbounded)
  uint64_t default_deadline_ms = 0;  // default op deadline (0 = none)
  uint64_t recovery_backoff_ms = 0;  // auto-recovery probe (0 = off)
  size_t max_connections = 4096;     // wire connection limit
  size_t max_pending_ops = 1024;     // wire dispatch-queue bound
  size_t net_workers = 2;            // wire worker threads
  size_t net_reactors = 0;           // reactor threads (0 = one per core)
  uint32_t drain_grace_ms = 500;     // Stop() response-flush grace
  uint32_t cursor_idle_ms = 30000;   // paged-cursor reap (0 = never)
  uint32_t idle_timeout_ms = 60000;  // wire idle-connection reap (0 = off)
  uint32_t flight_interval_ms = 1000;  // flight-recorder sampling period
  size_t flight_capacity = 300;      // retained samples (0 = recorder off)
};

// Loads the data into a schema-guarded server, starts the monitor
// endpoint, and serves a line-oriented command loop on stdin until
// `quit`/EOF. The bound monitor port is the first stdout line, so a
// wrapper can scrape /metrics, /statusz, /slowz and /healthz while
// issuing commands.
int RunServe(const std::string& schema_path, const std::string& ldif_path,
             const ServeOptions& options) {
  auto schema_text = ReadFile(schema_path);
  if (!schema_text.ok()) return Fail(schema_text.status());
  auto ldif = ReadFile(ldif_path);
  if (!ldif.ok()) return Fail(ldif.status());
  auto server = DirectoryServer::Create(*schema_text);
  if (!server.ok()) return Fail(server.status());
  server->EnableSlowOps(options.slow_ops);

  std::FILE* log_file = nullptr;
  if (!options.log_json.empty()) {
    if (options.log_json == "-") {
      JsonLog::Default().SetSink(stderr);
    } else {
      log_file = std::fopen(options.log_json.c_str(), "w");
      if (log_file == nullptr) {
        return Fail(Status::NotFound("cannot open log file '" +
                                     options.log_json + "'"));
      }
      JsonLog::Default().SetSink(log_file);
    }
  }

  auto imported = server->ImportLdif(*ldif);
  if (!imported.ok()) return Fail(imported.status());
  // The directory holds the data now: release the text before serving.
  std::string().swap(*ldif);

  // WAL after the import: EnableWal snapshots the populated directory, so
  // the WAL dir alone reconstructs the serving state.
  if (!options.wal_dir.empty()) {
    WalOptions wal_options;
    wal_options.group_commit_max_batch = options.group_commit_batch;
    wal_options.group_commit_hold_us = options.group_commit_hold_us;
    Status wal = server->EnableWal(options.wal_dir, wal_options);
    if (!wal.ok()) return Fail(wal);
  } else if (options.group_commit_batch > 1) {
    std::fprintf(stderr,
                 "error: --group-commit-batch needs --wal-dir (group commit "
                 "batches WAL fsyncs)\n");
    return Usage();
  }

  // Resilience layer (DESIGN.md §11): queue-bounded admission, default
  // deadlines, and — when a backoff is given — the WAL recovery probe.
  // After EnableWal so the admission controller sees the commit queue;
  // the probe thread pins the server's address, as Start below does too.
  if (options.max_queue_depth > 0 || options.default_deadline_ms > 0 ||
      options.recovery_backoff_ms > 0) {
    DirectoryServer::ResilienceOptions resilience;
    resilience.admission.max_queue_depth = options.max_queue_depth;
    resilience.admission.default_deadline_ms = options.default_deadline_ms;
    if (options.recovery_backoff_ms > 0) {
      resilience.auto_recover = true;
      resilience.recovery_backoff.initial_ms = options.recovery_backoff_ms;
    }
    server->EnableResilience(resilience);
  }

  MonitorOptions monitor_options;
  monitor_options.port = static_cast<uint16_t>(options.monitor_port);
  auto monitor = MonitorServer::Start(&*server, monitor_options);
  if (!monitor.ok()) return Fail(monitor.status());

  // Always-on flight recorder (DESIGN.md §13): 1 Hz metric history for
  // /timeseries, so a spike is diagnosable after the fact.
  std::unique_ptr<FlightRecorder> flight;
  if (options.flight_capacity > 0) {
    FlightRecorderOptions flight_options;
    flight_options.interval_ms =
        options.flight_interval_ms == 0 ? 1000 : options.flight_interval_ms;
    flight_options.capacity = options.flight_capacity;
    flight = FlightRecorder::Start(flight_options);
    (*monitor)->SetFlightRecorder(flight.get());
  }

  std::printf("monitor listening on 127.0.0.1:%u\n", (*monitor)->port());

  // Wire front end (DESIGN.md §12): the binary-protocol reactor. Its
  // port is the second stdout line, so wrappers (tools/bench_serving.sh,
  // the load driver) can scrape both.
  std::unique_ptr<NetServer> net;
  if (options.wire_port >= 0) {
    NetServerOptions net_options;
    net_options.port = static_cast<uint16_t>(options.wire_port);
    net_options.max_connections = options.max_connections;
    net_options.max_pending_ops = options.max_pending_ops;
    net_options.worker_threads = options.net_workers;
    net_options.idle_timeout_ms = options.idle_timeout_ms;
    net_options.reactors = options.net_reactors;
    net_options.drain_grace_ms = options.drain_grace_ms;
    net_options.cursor_idle_timeout_ms = options.cursor_idle_ms;
    auto started = NetServer::Start(&*server, net_options);
    if (!started.ok()) return Fail(started.status());
    net = std::move(*started);
    (*monitor)->SetNetServer(net.get());  // /statusz "net" section
    std::printf("wire listening on 127.0.0.1:%u\n", net->port());
  }
  std::fflush(stdout);
  std::fprintf(stderr,
               "commands: search <base-dn> [(objectClass=C) | (attr=value)]"
               " | status | quit\n");

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream words(line);
    std::string command;
    words >> command;
    if (command.empty()) continue;
    if (command == "quit") break;
    if (command == "status") {
      std::printf("%s\n", (*monitor)->RenderStatusz().c_str());
    } else if (command == "search") {
      std::string base, filter;
      words >> base;
      std::getline(words, filter);
      while (!filter.empty() && filter.front() == ' ') filter.erase(0, 1);
      // A pinned snapshot: with --port, wire workers commit concurrently,
      // and the live directory must not be read during a mutation.
      PinnedSnapshot snap = server->PinSnapshot();
      auto hits = SnapshotSearch(*snap, server->vocab(), base,
                                 static_cast<uint8_t>(SearchScope::kSubtree),
                                 filter);
      if (!hits.ok()) {
        std::printf("error: %s\n", hits.status().ToString().c_str());
      } else {
        for (EntryId id : *hits) {
          auto dn = SnapshotEntryDn(*snap, id);
          std::printf("%s\n", dn.ok() ? dn->c_str()
                                      : dn.status().ToString().c_str());
        }
        std::printf("matched %zu\n", hits->size());
      }
    } else {
      std::printf("error: unknown command '%s'\n", command.c_str());
    }
    std::fflush(stdout);
  }

  if (net != nullptr) {
    (*monitor)->SetNetServer(nullptr);
    net->Stop();  // drain before the monitor goes away
  }
  if (flight != nullptr) {
    (*monitor)->SetFlightRecorder(nullptr);
    flight->Stop();
  }
  (*monitor)->Stop();
  if (log_file != nullptr) {
    JsonLog::Default().SetSink(nullptr);
    std::fclose(log_file);
  }
  return 0;
}

// Replays a write-ahead changelog directory and reports what was
// recovered; with `compact_after` also snapshots the recovered state and
// truncates the log (the offline equivalent of DirectoryServer::Compact).
int RunRecover(const std::string& wal_dir, bool compact_after) {
  WalRecoveryReport report;
  auto server = DirectoryServer::Recover(wal_dir, WalOptions{}, &report);
  if (!server.ok()) return Fail(server.status());
  if (report.snapshot_seq > 0) {
    std::fprintf(stderr, "snapshot:    seq %llu (%zu entries)\n",
                 static_cast<unsigned long long>(report.snapshot_seq),
                 report.snapshot_entries);
  }
  std::fprintf(stderr, "segments:    %zu scanned\n", report.segments_scanned);
  std::fprintf(stderr, "frames:      %zu replayed\n", report.frames_replayed);
  std::fprintf(stderr, "last commit: seq %llu\n",
               static_cast<unsigned long long>(report.last_seq));
  if (report.torn_tail_truncated) {
    std::fprintf(stderr,
                 "torn tail:   '%s' truncated to %zu bytes (interrupted "
                 "append discarded)\n",
                 report.torn_tail_segment.c_str(), report.torn_tail_offset);
  }
  std::fprintf(stderr, "entries:     %zu, legal\n",
               server->directory().NumEntries());
  if (compact_after) {
    Status compacted = server->Compact();
    if (!compacted.ok()) return Fail(compacted);
    std::fprintf(stderr, "compacted:   snapshot through seq %llu\n",
                 static_cast<unsigned long long>(report.last_seq));
    return 0;
  }
  std::printf("%s", server->ExportLdif().c_str());
  return 0;
}

}  // namespace

namespace {

struct GlobalFlags {
  bool metrics = false;
  bool json = false;
  ServeOptions serve;
};

int Dispatch(const std::vector<std::string>& args, const GlobalFlags& flags) {
  const bool metrics = flags.metrics;
  const size_t n = args.size();
  if (n < 1) return Usage();
  const std::string& command = args[0];
  if (command == "check" && n == 3) return RunCheck(args[1], args[2]);
  if (command == "consistency" && n == 2) return RunConsistency(args[1]);
  if (command == "witness" && n == 2) return RunWitness(args[1]);
  if (command == "format" && n == 2) return RunFormat(args[1]);
  if (command == "search" && n == 5) {
    return RunSearch(args[1], args[2], args[3], args[4]);
  }
  if (command == "query" && n == 4) {
    return RunQuery(args[1], args[2], args[3]);
  }
  if (command == "stats" && n == 3) {
    return metrics ? RunMetrics(args[1], args[2]) : RunStats(args[1], args[2]);
  }
  if (command == "explain" && n == 3) {
    return RunExplain(args[1], args[2], flags.json);
  }
  if (command == "serve" && n == 3) {
    if (flags.serve.monitor_port < 0) {
      std::fprintf(stderr, "error: serve requires --monitor-port\n");
      return Usage();
    }
    return RunServe(args[1], args[2], flags.serve);
  }
  if (command == "recover" && n == 2) {
    return RunRecover(args[1], /*compact_after=*/false);
  }
  if (command == "compact" && n == 2) {
    return RunRecover(args[1], /*compact_after=*/true);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Global flags may appear anywhere; everything else is positional.
  GlobalFlags flags;
  std::string trace_out;
  std::vector<std::string> args;
  auto next_value = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  // Strict numeric flag parsing (util/string_util.h): non-numeric text,
  // a sign, or an out-of-range value is a usage error, never a silent 0
  // or a negative cast to a huge unsigned bound.
  bool flag_error = false;
  auto uint_flag = [&](const std::string& flag, int& i, uint64_t max,
                       auto* out) {
    const char* v = next_value(i);
    if (v == nullptr) {
      std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
      flag_error = true;
      return;
    }
    auto parsed = ParseUint(v, max);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", flag.c_str(),
                   parsed.status().message().c_str());
      flag_error = true;
      return;
    }
    *out = static_cast<std::remove_pointer_t<decltype(out)>>(*parsed);
  };
  auto port_flag = [&](const std::string& flag, int& i, auto* out) {
    uint_flag(flag, i, 65535, out);
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--metrics") {
      flags.metrics = true;
    } else if (arg == "--json") {
      flags.json = true;
    } else if (arg == "--monitor-port") {
      uint16_t port = 0;
      port_flag(arg, i, &port);
      if (!flag_error) flags.serve.monitor_port = port;
    } else if (arg == "--port") {
      uint16_t port = 0;
      port_flag(arg, i, &port);
      if (!flag_error) flags.serve.wire_port = port;
    } else if (arg == "--slow-ops") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.slow_ops);
    } else if (arg == "--log-json") {
      const char* v = next_value(i);
      if (v == nullptr) return Usage();
      flags.serve.log_json = v;
    } else if (arg == "--wal-dir") {
      const char* v = next_value(i);
      if (v == nullptr) return Usage();
      flags.serve.wal_dir = v;
    } else if (arg == "--group-commit-batch") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.group_commit_batch);
    } else if (arg == "--group-commit-hold-us") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.group_commit_hold_us);
    } else if (arg == "--max-queue-depth") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.max_queue_depth);
    } else if (arg == "--default-deadline-ms") {
      uint_flag(arg, i, UINT64_MAX, &flags.serve.default_deadline_ms);
    } else if (arg == "--recovery-backoff-ms") {
      uint_flag(arg, i, UINT64_MAX, &flags.serve.recovery_backoff_ms);
    } else if (arg == "--max-connections") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.max_connections);
    } else if (arg == "--max-pending-ops") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.max_pending_ops);
    } else if (arg == "--net-workers") {
      uint_flag(arg, i, 256, &flags.serve.net_workers);
    } else if (arg == "--net-reactors") {
      uint_flag(arg, i, 256, &flags.serve.net_reactors);
    } else if (arg == "--drain-grace-ms") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.drain_grace_ms);
    } else if (arg == "--cursor-idle-ms") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.cursor_idle_ms);
    } else if (arg == "--idle-timeout-ms") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.idle_timeout_ms);
    } else if (arg == "--flight-interval-ms") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.flight_interval_ms);
    } else if (arg == "--flight-capacity") {
      uint_flag(arg, i, UINT32_MAX, &flags.serve.flight_capacity);
    } else if (arg == "--trace-out") {
      const char* v = next_value(i);
      if (v == nullptr) return Usage();
      trace_out = v;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(sizeof("--trace-out=") - 1);
    } else {
      args.push_back(std::move(arg));
    }
    if (flag_error) return Usage();
  }
  if (!trace_out.empty()) Tracer::Default().Enable();

  int rc = Dispatch(args, flags);

  if (!trace_out.empty()) {
    std::string json = Tracer::Default().ExportChromeTraceJson();
    std::ofstream out(trace_out, std::ios::binary | std::ios::trunc);
    if (!out || !(out << json)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   trace_out.c_str());
      if (rc == 0) rc = 2;
    } else {
      std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
    }
    // The dropped counter is the process-wide monotonic mirror, so it still
    // counts spans the ring evicted during the export's final drain.
    uint64_t dropped = MetricRegistry::Default()
                           .GetCounter("ldapbound_trace_dropped_spans_total",
                                       "Trace spans evicted from the ring "
                                       "before export (ring overflow)")
                           .Value();
    if (dropped > 0) {
      std::fprintf(stderr,
                   "warning: %llu trace spans were dropped (ring overflow); "
                   "the trace is incomplete\n",
                   static_cast<unsigned long long>(dropped));
    }
  }
  return rc;
}
