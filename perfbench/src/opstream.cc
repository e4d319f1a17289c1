#include "opstream.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) { return Next() % n; }

uint64_t MixSeed(uint64_t a, uint64_t b) {
  Rng rng(a * 0x100000001b3ull ^ (b + 0x632be59bd9b4e019ull));
  return rng.Next();
}

uint32_t Truth::UnitOfPerson(uint32_t person) const {
  for (size_t u = 0; u < units.size(); ++u) {
    const Unit& unit = units[u];
    if (person >= unit.first_person &&
        person < unit.first_person + unit.persons) {
      return static_cast<uint32_t>(u);
    }
  }
  return 0;
}

std::string Truth::PersonDn(uint32_t person) const {
  return "uid=p" + std::to_string(person) + "," +
         units[UnitOfPerson(person)].dn;
}

std::string Truth::Serialize() const {
  std::ostringstream out;
  out << "entries\t" << num_entries << "\npersons\t" << num_persons << "\n";
  for (const Unit& unit : units) {
    out << "unit\t" << unit.persons << "\t" << unit.first_person << "\t"
        << (unit.leaf ? 1 : 0) << "\t" << unit.dn << "\n";
  }
  return out.str();
}

bool Truth::Parse(const std::string& text) {
  *this = Truth();
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    std::getline(fields, tag, '\t');
    if (tag == "entries") {
      fields >> num_entries;
    } else if (tag == "persons") {
      fields >> num_persons;
    } else if (tag == "unit") {
      Unit unit;
      int leaf = 0;
      fields >> unit.persons >> unit.first_person >> leaf;
      fields.ignore(1);
      std::getline(fields, unit.dn);
      unit.leaf = leaf != 0;
      if (unit.leaf) leaf_units.push_back(static_cast<uint32_t>(units.size()));
      units.push_back(std::move(unit));
    } else if (!tag.empty()) {
      return false;
    }
  }
  return num_persons > 0 && !leaf_units.empty();
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLookup: return "lookup";
    case OpKind::kScan: return "scan";
    case OpKind::kPage: return "page";
    case OpKind::kAdd: return "add";
    case OpKind::kDelete: return "delete";
    case OpKind::kIllegalAdd: return "illegal_add";
    case OpKind::kPing: return "ping";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "browse") *out = Workload::kBrowse;
  else if (name == "churn") *out = Workload::kChurn;
  else if (name == "mixed") *out = Workload::kMixed;
  else return false;
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kBrowse: return "browse";
    case Workload::kChurn: return "churn";
    case Workload::kMixed: return "mixed";
  }
  return "?";
}

AddPayload PayloadOf(const Op& op) {
  // The uid is the DN's leading RDN value.
  std::string uid = op.dn.substr(4, op.dn.find(',') - 4);
  AddPayload p;
  p.classes = {"person", "top"};
  p.values.emplace_back("uid", uid);
  // Planted illegal adds of the first kind lack the required `name`; the
  // second kind is well-formed but sits under a person (forbid person
  // child top).
  if (!(op.kind == OpKind::kIllegalAdd && uid.rfind("bad", 0) == 0)) {
    p.values.emplace_back("name", "employee " + uid);
  }
  return p;
}

namespace {

enum class Pick { kLookup, kScan, kPage, kWrite, kIllegal, kPing };

struct Weight {
  Pick pick;
  double weight;
};

const std::vector<Weight>& MixOf(Workload w) {
  static const std::vector<Weight> browse = {
      {Pick::kLookup, 60}, {Pick::kScan, 25}, {Pick::kPage, 10},
      {Pick::kPing, 5}};
  static const std::vector<Weight> churn = {
      {Pick::kWrite, 60}, {Pick::kIllegal, 5}, {Pick::kLookup, 30},
      {Pick::kPing, 5}};
  // 85% reads in browse proportions (60:25:10 of the 95 read points);
  // 1% planted illegal adds keep the rejection path on the wire.
  static const std::vector<Weight> mixed = {
      {Pick::kLookup, 85.0 * 60 / 95}, {Pick::kScan, 85.0 * 25 / 95},
      {Pick::kPage, 85.0 * 10 / 95},   {Pick::kWrite, 9},
      {Pick::kIllegal, 1},             {Pick::kPing, 5}};
  switch (w) {
    case Workload::kBrowse: return browse;
    case Workload::kChurn: return churn;
    case Workload::kMixed: return mixed;
  }
  return browse;
}

/// Entries a connection keeps added-but-not-deleted before it deletes the
/// oldest: bounds |D| while ids churn.
size_t LiveTarget(Workload w) { return w == Workload::kChurn ? 4 : 2; }

/// Zipf(s = 0.99) over `n` ranks, as a cumulative table (shared).
const std::vector<double>& ZipfCdf(uint32_t n) {
  static std::map<uint32_t, std::vector<double>> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  std::vector<double> cdf(n);
  double sum = 0;
  for (uint32_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), 0.99);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cache.emplace(n, std::move(cdf)).first->second;
}

}  // namespace

ConnStream::ConnStream(Workload workload, const Truth& truth, uint64_t seed,
                       uint32_t phase, uint8_t conn)
    : workload_(workload),
      truth_(truth),
      rng_(MixSeed(MixSeed(seed, phase), conn)),
      phase_(phase),
      conn_(conn) {}

Op ConnStream::Lookup(int64_t index) {
  Op op;
  op.kind = OpKind::kLookup;
  if (workload_ == Workload::kChurn && !live_.empty()) {
    // Read-your-write: the newest entry this connection added.
    Live& entry = live_.back();
    op.uid = entry.uid;
    op.expect = 1;
    op.dep = entry.tail;
    entry.tail = index;
    return op;
  }
  if (workload_ != Workload::kChurn && rng_.Below(10) == 0) {
    op.uid = "nx" + std::to_string(rng_.Below(1u << 30));  // a miss
    op.expect = 0;
    return op;
  }
  const std::vector<double>& cdf = ZipfCdf(truth_.num_persons);
  uint32_t rank = static_cast<uint32_t>(
      std::lower_bound(cdf.begin(), cdf.end(), rng_.Uniform()) - cdf.begin());
  rank = std::min(rank, truth_.num_persons - 1);
  // Scatter the hot ranks across units (7919 is prime, so this permutes).
  uint32_t person = static_cast<uint32_t>(
      (static_cast<uint64_t>(rank) * 7919u) % truth_.num_persons);
  op.uid = "p" + std::to_string(person);
  op.expect = 1;
  return op;
}

Op ConnStream::Write(int64_t index) {
  Op op;
  if (live_.size() >= LiveTarget(workload_)) {
    Live entry = live_.front();
    live_.erase(live_.begin());
    op.kind = OpKind::kDelete;
    op.dn = entry.dn;
    op.unit = entry.unit;
    op.dep = entry.tail;
    return op;
  }
  op.kind = OpKind::kAdd;
  op.unit = static_cast<uint32_t>(rng_.Below(truth_.units.size()));
  std::string uid = "w" + std::to_string(phase_) + "c" +
                    std::to_string(conn_) + "n" + std::to_string(serial_++);
  op.dn = "uid=" + uid + "," + truth_.units[op.unit].dn;
  live_.push_back({uid, op.dn, op.unit, index});
  return op;
}

Op ConnStream::Next(int64_t index) {
  const std::vector<Weight>& mix = MixOf(workload_);
  double total = 0;
  for (const Weight& w : mix) total += w.weight;
  double x = rng_.Uniform() * total;
  Pick pick = mix.back().pick;
  for (const Weight& w : mix) {
    if (x < w.weight) {
      pick = w.pick;
      break;
    }
    x -= w.weight;
  }
  Op op;
  switch (pick) {
    case Pick::kLookup:
      op = Lookup(index);
      break;
    case Pick::kScan: {
      op.kind = OpKind::kScan;
      op.unit = truth_.leaf_units[rng_.Below(truth_.leaf_units.size())];
      op.dn = truth_.units[op.unit].dn;
      break;
    }
    case Pick::kPage:
      op.kind = OpKind::kPage;
      op.dep = last_page_;
      last_page_ = index;
      break;
    case Pick::kWrite:
      op = Write(index);
      break;
    case Pick::kIllegal: {
      op.kind = OpKind::kIllegalAdd;
      std::string tag = std::to_string(phase_) + "c" + std::to_string(conn_) +
                        "n" + std::to_string(serial_++);
      if (rng_.Below(2) == 0) {
        op.unit = static_cast<uint32_t>(rng_.Below(truth_.units.size()));
        op.dn = "uid=bad" + tag + "," + truth_.units[op.unit].dn;
      } else {
        uint32_t person =
            static_cast<uint32_t>(rng_.Below(truth_.num_persons));
        op.unit = truth_.UnitOfPerson(person);
        op.dn = "uid=kid" + tag + "," + truth_.PersonDn(person);
      }
      break;
    }
    case Pick::kPing:
      op.kind = OpKind::kPing;
      break;
  }
  op.conn = conn_;
  return op;
}

std::vector<Op> BuildSchedule(Workload workload, const Truth& truth,
                              uint64_t seed, uint32_t phase, double rate,
                              double duration_s, int conns) {
  std::vector<ConnStream> streams;
  for (int c = 0; c < conns; ++c) {
    streams.emplace_back(workload, truth, seed, phase,
                         static_cast<uint8_t>(c));
  }
  Rng arrivals(MixSeed(seed, 1000 + phase));
  std::vector<Op> ops;
  const double horizon_ns = duration_s * 1e9;
  double t = 0;
  for (int64_t i = 0;; ++i) {
    t += -std::log(1.0 - arrivals.Uniform()) / rate * 1e9;
    if (t >= horizon_ns) break;
    Op op = streams[i % conns].Next(i);
    op.due_ns = static_cast<uint64_t>(t);
    ops.push_back(std::move(op));
  }
  return ops;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n - 1e-9));
  size_t idx = rank == 0 ? 0 : std::min(rank - 1, n - 1);
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

double HighestReportablePercentile(size_t n) {
  for (uint64_t q10 : {999u, 990u, 900u, 500u}) {
    uint64_t rank = (q10 * n + 999) / 1000;  // ceil(q * n)
    if (n >= rank + 10) return static_cast<double>(q10) / 10.0;
  }
  return 0;
}

}  // namespace perfbench
