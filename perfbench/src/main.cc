// perfbench_client: the compiled half of the repository benchmark
// (perfbench/run.py drives it).
//
//   perfbench_client gen --schema <file> --seed <n> --out <dir>
//       write <dir>/directory.ldif and <dir>/truth.tsv
//   perfbench_client schedule --truth <file> --workload <w> --seed <n>
//       --rate <ops/s> --seconds <s>
//       print the open-loop request schedule (one op per line)
//   perfbench_client load --truth <file> --workload <w> --seed <n>
//       --port <p> --monitor-port <p> --server-pid <pid> --rate <ops/s>
//       --warmup <s> --open <s> --closed <s> ...
//       drive a running `ldapbound serve` over the wire; print one JSON
//       object of raw results
//   perfbench_client replay --schema <file> --ldif <file> --truth <file>
//       --workload <w> --seed <n> --rate <ops/s> --open <s> --dir <d>
//       replay the same op stream in process with per-layer spans; print
//       one JSON object of per-layer results
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "commands.h"
#include "opstream.h"

namespace perfbench {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// A fixed CPU and memory workload independent of ldapbound's code: the
/// host-speed reference a run records next to its measurements.
int RunCalibrate(const Flags&) {
  auto start = std::chrono::steady_clock::now();
  Rng rng(12345);
  std::vector<uint64_t> values(1 << 19);
  for (uint64_t& v : values) v = rng.Next();
  std::sort(values.begin(), values.end());
  std::unordered_map<uint64_t, uint64_t> table;
  for (size_t i = 0; i < values.size(); i += 2) table[values[i] >> 7] += i;
  uint64_t sum = 0;
  for (size_t i = 1; i < values.size(); i += 2) {
    auto it = table.find(values[i] >> 7);
    if (it != table.end()) sum += it->second;
  }
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  std::printf("{\"calibrate_s\": %s, \"checksum\": %llu}\n",
              JsonNumber(seconds).c_str(),
              static_cast<unsigned long long>(sum % 1000));
  return 0;
}

int RunSchedule(const Flags& flags) {
  std::string text;
  Truth truth;
  Workload workload;
  if (!ReadWholeFile(flags.Get("truth"), &text) || !truth.Parse(text) ||
      !ParseWorkload(flags.Get("workload"), &workload)) {
    std::fprintf(stderr, "schedule: bad --truth or --workload\n");
    return 2;
  }
  std::vector<Op> ops =
      BuildSchedule(workload, truth, flags.GetU64("seed"), /*phase=*/1,
                    flags.GetDouble("rate"), flags.GetDouble("seconds"), 4);
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    std::printf("%zu\t%llu\t%u\t%s\t%lld\t%u\t%d\t%s\t%s\n", i,
                static_cast<unsigned long long>(op.due_ns), op.conn,
                OpKindName(op.kind), static_cast<long long>(op.dep), op.unit,
                op.expect, op.uid.c_str(), op.dn.c_str());
  }
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_client gen|schedule|load|replay --flag "
                 "value...\n");
    return 2;
  }
  Flags flags;
  if (!flags.Parse(argc, argv, 2)) {
    std::fprintf(stderr, "perfbench_client: flags are --name value pairs\n");
    return 2;
  }
  std::string command = argv[1];
  if (command == "gen") return RunGen(flags);
  if (command == "schedule") return RunSchedule(flags);
  if (command == "calibrate") return RunCalibrate(flags);
  if (command == "load") return RunLoad(flags);
  if (command == "replay") return RunReplay(flags);
  std::fprintf(stderr, "perfbench_client: unknown command '%s'\n",
               command.c_str());
  return 2;
}
