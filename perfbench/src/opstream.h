#ifndef PERFBENCH_OPSTREAM_H_
#define PERFBENCH_OPSTREAM_H_

// The benchmark's seeded inputs: the ground truth of the generated
// white-pages directory and the per-connection request streams of the
// three workloads. Everything here is a pure function of (workload,
// seed, phase, connection), so the wire load generator and the traced
// in-process replay issue exactly the same requests.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a tiny, platform-independent seeded stream (the standard
/// library's distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();            ///< [0, 1)
  uint64_t Below(uint64_t n);  ///< [0, n), n > 0
 private:
  uint64_t state_;
};

uint64_t MixSeed(uint64_t a, uint64_t b);

/// One orgUnit of the generated directory.
struct Unit {
  std::string dn;
  uint32_t persons = 0;       ///< person children at generation time
  uint32_t first_person = 0;  ///< persons are uid=p<first>..p<first+persons-1>
  bool leaf = false;          ///< no orgUnit below it
};

/// What the generator knows about the directory it wrote.
struct Truth {
  std::vector<Unit> units;
  std::vector<uint32_t> leaf_units;  ///< indexes into units
  uint32_t num_persons = 0;
  uint64_t num_entries = 0;

  uint32_t UnitOfPerson(uint32_t person) const;
  std::string PersonDn(uint32_t person) const;

  std::string Serialize() const;
  /// Parses Serialize() output; returns false on malformed text.
  bool Parse(const std::string& text);
};

enum class OpKind : uint8_t {
  kLookup = 0,   ///< kSearch (uid=...) under o=acme, subtree
  kScan,         ///< kSearch (objectClass=person) over one leaf orgUnit
  kPage,         ///< one kSearchEntries page, cookie carried per connection
  kAdd,          ///< durable add of a person
  kDelete,       ///< durable delete of a person this connection added
  kIllegalAdd,   ///< planted add the schema must refuse (kIllegal)
  kPing,
};
constexpr int kNumOpKinds = 7;
const char* OpKindName(OpKind kind);

enum class Workload : uint8_t { kBrowse, kChurn, kMixed };
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// One request of a stream.
struct Op {
  OpKind kind = OpKind::kPing;
  uint8_t conn = 0;
  /// Index of the op that must have completed before this one is sent
  /// (-1: none): a delete waits for its add and for every read-your-write
  /// lookup of it, a lookup of a fresh entry for its add, a page for the
  /// previous page of the same connection.
  int64_t dep = -1;
  uint64_t due_ns = 0;  ///< open loop: scheduled send, from phase start
  uint32_t unit = 0;    ///< scan / add / delete / illegal add: target unit
  int32_t expect = 0;   ///< lookup: ids the answer must hold (0 or 1)
  std::string dn;       ///< add / delete / illegal add: entry DN
  std::string uid;      ///< lookup: the uid searched for
};

/// Classes and values of the person an Op adds (illegal adds included).
struct AddPayload {
  std::vector<std::string> classes;
  std::vector<std::pair<std::string, std::string>> values;
};
AddPayload PayloadOf(const Op& op);

/// The seeded request stream of one connection in one phase.
class ConnStream {
 public:
  ConnStream(Workload workload, const Truth& truth, uint64_t seed,
             uint32_t phase, uint8_t conn);

  /// The next op; `index` is the position the caller stores it at (the
  /// handle later ops name as their dependency).
  Op Next(int64_t index);

 private:
  struct Live {
    std::string uid;
    std::string dn;
    uint32_t unit;
    int64_t tail;  ///< last op touching this entry
  };

  Op Lookup(int64_t index);
  Op Write(int64_t index);

  Workload workload_;
  const Truth& truth_;
  Rng rng_;
  uint32_t phase_;
  uint8_t conn_;
  uint64_t serial_ = 0;
  std::vector<Live> live_;  ///< entries added and not yet deleted, oldest first
  int64_t last_page_ = -1;
};

/// The open-loop schedule of one phase: Poisson arrivals at `rate` ops/s
/// for `duration_s`, op i on connection i % conns.
std::vector<Op> BuildSchedule(Workload workload, const Truth& truth,
                              uint64_t seed, uint32_t phase, double rate,
                              double duration_s, int conns);

/// Samples: exact percentiles over recorded values.
double Percentile(std::vector<double> values, double q);
/// The highest of {50, 90, 99, 99.9} that keeps at least ten samples
/// strictly beyond it for `n` samples (0 when not even the median does).
double HighestReportablePercentile(size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_OPSTREAM_H_
