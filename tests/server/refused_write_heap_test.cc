// What a refused write keeps, in live heap bytes (ROADMAP item 13). The
// binary replaces the global operator new/delete to count the bytes the
// program holds; the sanitizers replace the allocator themselves, so
// tests/CMakeLists.txt builds it only without them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "ldap/ldif.h"
#include "schema/schema_format.h"
#include "server/directory_server.h"
#include "workload/white_pages.h"

namespace {

/// Bytes handed out by operator new and not yet deleted. Each block
/// carries its size in a header, so delete can subtract it.
std::atomic<int64_t> live_bytes{0};
constexpr size_t kHeader = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
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

class RefusedWriteHeapTest : public ::testing::Test {
 protected:
  static constexpr int kWarmUp = 100;
  static constexpr int kAdds = 1000;
  static constexpr char kUnit[] = "ou=unit0,o=acme";
  static constexpr char kPerson[] = "uid=p0,ou=unit0,o=acme";

  // The white-pages schema over a small generated instance (fanout 4,
  // depth 2, 8 persons per unit: 181 entries), then warm-up refusals.
  RefusedWriteHeapTest() {
    const std::string schema_text =
        ReadFile(std::string(LDAPBOUND_DATA_DIR) + "/white-pages.schema");
    auto schema =
        ParseDirectorySchema(schema_text, std::make_shared<Vocabulary>());
    EXPECT_TRUE(schema.ok()) << schema.status();
    auto instance = MakeWhitePagesInstance(*schema, WhitePagesOptions{});
    EXPECT_TRUE(instance.ok()) << instance.status();
    auto server = DirectoryServer::Create(schema_text);
    EXPECT_TRUE(server.ok()) << server.status();
    server_ = std::make_unique<DirectoryServer>(std::move(*server));
    EXPECT_TRUE(server_->ImportLdif(WriteLdif(*instance)).ok());
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

}  // namespace
}  // namespace ldapbound
