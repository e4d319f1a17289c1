// What a refused write keeps, in live heap bytes, and what a committed
// add/delete pair allocates (ROADMAP item 13). The binary replaces the
// global operator new/delete to count the bytes the program holds and
// the bytes and calls it has asked for; the sanitizers replace the
// allocator themselves, so tests/CMakeLists.txt builds it only without
// them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "ldap/ldif.h"
#include "schema/schema_format.h"
#include "server/directory_server.h"
#include "workload/white_pages.h"

namespace {

/// Bytes handed out by operator new and not yet deleted. Each block
/// carries its size in a header, so delete can subtract it.
std::atomic<int64_t> live_bytes{0};
/// Bytes and calls operator new has handed out, deleted or not.
std::atomic<int64_t> total_bytes{0};
std::atomic<int64_t> total_calls{0};
constexpr size_t kHeader = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  total_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  total_calls.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  live_bytes.fetch_sub(
      static_cast<int64_t>(*static_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace ldapbound {
namespace {

DistinguishedName Dn(const std::string& s) {
  return *DistinguishedName::Parse(s);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

EntrySpec PersonSpec(const std::string& uid) {
  EntrySpec spec;
  spec.classes = {"person", "top"};
  spec.values = {{"uid", uid}, {"name", "refused " + uid}};
  return spec;
}

/// A server on the white-pages schema holding the instance `options`
/// generates, checking on one lane.
std::unique_ptr<DirectoryServer> BootWhitePages(
    const WhitePagesOptions& options) {
  const std::string schema_text =
      ReadFile(std::string(LDAPBOUND_DATA_DIR) + "/white-pages.schema");
  auto schema =
      ParseDirectorySchema(schema_text, std::make_shared<Vocabulary>());
  EXPECT_TRUE(schema.ok()) << schema.status();
  auto instance = MakeWhitePagesInstance(*schema, options);
  EXPECT_TRUE(instance.ok()) << instance.status();
  auto server = DirectoryServer::Create(schema_text);
  EXPECT_TRUE(server.ok()) << server.status();
  CheckOptions check;
  check.num_threads = 1;
  server->set_check_options(check);
  EXPECT_TRUE(server->ImportLdif(WriteLdif(*instance)).ok());
  return std::make_unique<DirectoryServer>(std::move(*server));
}

class RefusedWriteHeapTest : public ::testing::Test {
 protected:
  static constexpr int kWarmUp = 100;
  static constexpr int kAdds = 1000;
  static constexpr char kUnit[] = "ou=unit0,o=acme";
  static constexpr char kPerson[] = "uid=p0,ou=unit0,o=acme";

  // The white-pages schema over a small generated instance (fanout 4,
  // depth 2, 8 persons per unit: 181 entries), then warm-up refusals.
  RefusedWriteHeapTest() : server_(BootWhitePages(WhitePagesOptions{})) {
    for (int i = 0; i < kWarmUp; ++i) {
      EXPECT_EQ(FreshClassAdd(-1 - i).code(), StatusCode::kIllegal);
      EXPECT_EQ(FreshAttributeAdd(-1 - i).code(), StatusCode::kIllegal);
    }
  }

  // A person naming class "fresh<i>", which no schema defines.
  Status FreshClassAdd(int i) {
    const std::string tag = std::to_string(i);
    EntrySpec spec = PersonSpec("fc" + tag);
    spec.classes.push_back("fresh" + tag);
    return server_->Add(Dn("uid=fc" + tag + "," + kUnit), std::move(spec));
  }

  // A person carrying attribute "fresh<i>", which no schema defines.
  Status FreshAttributeAdd(int i) {
    const std::string tag = std::to_string(i);
    EntrySpec spec = PersonSpec("fa" + tag);
    spec.values.emplace_back("fresh" + tag, "x");
    return server_->Add(Dn("uid=fa" + tag + "," + kUnit), std::move(spec));
  }

  // Live bytes kept per refused add over kAdds refusals by `add`.
  template <typename Add>
  double KeptPerAdd(Add&& add) {
    const int64_t before = live_bytes.load();
    for (int i = 0; i < kAdds; ++i) {
      EXPECT_EQ(add(i).code(), StatusCode::kIllegal);
    }
    return static_cast<double>(live_bytes.load() - before) / kAdds;
  }

  std::unique_ptr<DirectoryServer> server_;
};

TEST_F(RefusedWriteHeapTest, FreshClassRefusalsKeepNoHeap) {
  EXPECT_EQ(KeptPerAdd([&](int i) { return FreshClassAdd(i); }), 0.0);
}

TEST_F(RefusedWriteHeapTest, FreshAttributeRefusalsKeepNoHeap) {
  EXPECT_EQ(KeptPerAdd([&](int i) { return FreshAttributeAdd(i); }), 0.0);
}

// A person below a person names only schema names and is refused by the
// structure check after it took an id: the id and the tombstone's content
// stay (ROADMAP item 1). Reported, not asserted, until item 1 lands.
TEST_F(RefusedWriteHeapTest, ReportsWhatSchemaNameRefusalsKeep) {
  const double kept = KeptPerAdd([&](int i) {
    const std::string uid = "kid" + std::to_string(i);
    return server_->Add(Dn("uid=" + uid + "," + kPerson), PersonSpec(uid));
  });
  std::printf("schema-name refusals keep %.1f B of heap per add\n", kept);
  EXPECT_GE(kept, 0.0);
}

/// What one committed add/delete pair allocates, averaged over a run.
struct PairWork {
  size_t entries = 0;
  double bytes = 0;
  double calls = 0;
};

/// Boots a server over a generated white-pages instance (fanout 8,
/// depth 2, seed 1: the organization and 72 units, each with
/// `persons_per_unit` persons), then commits add/delete pairs of a
/// two-attribute person under ou=unit0,o=acme: 200 to warm up, then 2,000
/// measured.
PairWork CommitPairWork(size_t persons_per_unit) {
  constexpr int kWarmUpPairs = 200;
  constexpr int kPairs = 2000;
  WhitePagesOptions options;
  options.org_unit_fanout = 8;
  options.org_unit_depth = 2;
  options.persons_per_unit = persons_per_unit;
  options.seed = 1;
  const std::unique_ptr<DirectoryServer> server = BootWhitePages(options);
  PairWork work;
  work.entries = server->directory().NumEntries();
  auto pair = [&](int i) {
    const std::string uid = "pair" + std::to_string(i);
    const DistinguishedName dn = Dn("uid=" + uid + ",ou=unit0,o=acme");
    EXPECT_TRUE(server->Add(dn, PersonSpec(uid)).ok());
    EXPECT_TRUE(server->Delete(dn).ok());
  };
  for (int i = 0; i < kWarmUpPairs; ++i) pair(i);
  const int64_t bytes = total_bytes.load();
  const int64_t calls = total_calls.load();
  for (int i = kWarmUpPairs; i < kWarmUpPairs + kPairs; ++i) pair(i);
  work.bytes = static_cast<double>(total_bytes.load() - bytes) / kPairs;
  work.calls = static_cast<double>(total_calls.load() - calls) / kPairs;
  return work;
}

// Theorem 4.2 counted: a pair's allocations must not grow with the
// directory. Between 10,009 and 100,009 entries they may grow only by
// what still scales with the id space, the copy-on-write arrays' chunk
// tables (ROADMAP item 10(b)), about 0.16 B per entry added; a step that
// copies a set or an array sized to the directory at each commit adds
// several times that.
TEST(CommitPairWorkTest, BytesPerPairStayFlatAsTheDirectoryGrows) {
  std::vector<PairWork> rows;
  for (size_t persons : {13, 138, 1388}) rows.push_back(CommitPairWork(persons));
  std::printf("%10s %14s %14s\n", "entries", "bytes/pair", "calls/pair");
  for (const PairWork& row : rows) {
    std::printf("%10zu %14.1f %14.1f\n", row.entries, row.bytes, row.calls);
  }
  ASSERT_EQ(rows[1].entries, 10009u);
  ASSERT_EQ(rows[2].entries, 100009u);
  const double growth = rows[2].bytes - rows[1].bytes;
  EXPECT_LE(growth / static_cast<double>(rows[2].entries - rows[1].entries),
            0.25)
      << "a pair allocates " << growth << " B more at " << rows[2].entries
      << " entries than at " << rows[1].entries;
}

}  // namespace
}  // namespace ldapbound
