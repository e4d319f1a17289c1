#include "server/slow_ops.h"

#include <gtest/gtest.h>

#include <string>

#include "server/directory_server.h"
#include "update/transaction.h"
#include "util/metrics.h"

namespace ldapbound {
namespace {

SlowOp MakeOp(uint64_t id, uint64_t duration_ns) {
  SlowOp op;
  op.op_id = id;
  op.op = "add";
  op.target = "uid=u" + std::to_string(id);
  op.outcome = "ok";
  op.duration_ns = duration_ns;
  return op;
}

TEST(SlowOpLogTest, KeepsTheSlowestAtCapacity) {
  SlowOpLog log(/*capacity=*/3);
  for (uint64_t i = 1; i <= 6; ++i) {
    log.Record(MakeOp(i, /*duration_ns=*/i * 100));
  }
  std::vector<SlowOp> ops = log.Snapshot();
  ASSERT_EQ(ops.size(), 3u);
  // Slowest first: ops 6, 5, 4.
  EXPECT_EQ(ops[0].op_id, 6u);
  EXPECT_EQ(ops[1].op_id, 5u);
  EXPECT_EQ(ops[2].op_id, 4u);
  EXPECT_EQ(log.recorded(), 6u);
}

TEST(SlowOpLogTest, FasterNewcomerDoesNotEvict) {
  SlowOpLog log(/*capacity=*/2);
  log.Record(MakeOp(1, 500));
  log.Record(MakeOp(2, 400));
  log.Record(MakeOp(3, 100));  // faster than everything retained
  std::vector<SlowOp> ops = log.Snapshot();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op_id, 1u);
  EXPECT_EQ(ops[1].op_id, 2u);
}

TEST(SlowOpLogTest, MinDurationFilters) {
  SlowOpLog log(/*capacity=*/8, /*min_duration_ns=*/1000);
  log.Record(MakeOp(1, 999));
  log.Record(MakeOp(2, 1000));
  EXPECT_EQ(log.Snapshot().size(), 1u);
  EXPECT_EQ(log.recorded(), 2u);  // offered ops count even when filtered
}

TEST(SlowOpLogTest, RenderJsonEscapesAndNests) {
  SlowOpLog log(/*capacity=*/2);
  SlowOp op = MakeOp(1, 5000);
  op.target = "uid=\"quoted\"";
  op.detail = "line1\nline2";
  op.spans.push_back(Tracer::Event{"commit.validate", 0, 10, 20});
  log.Record(std::move(op));
  std::string json = log.RenderJson();
  EXPECT_NE(json.find("\"capacity\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"target\":\"uid=\\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"line1\\nline2\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\":[{\"name\":\"commit.validate\","
                      "\"start_ns\":10,\"dur_ns\":20}]"),
            std::string::npos)
      << json;
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(SlowOpLogTest, RetentionFloorTracksMinDurationThenFastestRetained) {
  SlowOpLog log(/*capacity=*/2, /*min_duration_ns=*/100);
  // Not full: the floor is the min-duration gate.
  EXPECT_EQ(log.retention_floor_ns(), 100u);
  log.Record(MakeOp(1, 500));
  EXPECT_EQ(log.retention_floor_ns(), 100u);
  // Full: a newcomer must be strictly slower than the fastest retained.
  log.Record(MakeOp(2, 300));
  EXPECT_EQ(log.retention_floor_ns(), 301u);
  log.Record(MakeOp(3, 400));  // evicts op 2; fastest retained is now 400
  EXPECT_EQ(log.retention_floor_ns(), 401u);
}

TEST(SlowOpLogTest, WireRequestIdRendersOnlyWhenSet) {
  SlowOpLog log(/*capacity=*/4);
  log.Record(MakeOp(1, 5000));  // a directory-level op: no request_id
  SlowOp wire = MakeOp(2, 6000);
  wire.wire_request_id = 77;
  log.Record(std::move(wire));
  std::string json = log.RenderJson();
  EXPECT_NE(json.find("\"request_id\":77"), std::string::npos) << json;
  // Exactly one record carries the field.
  EXPECT_EQ(json.find("\"request_id\""), json.rfind("\"request_id\""));
}

constexpr char kSchema[] = R"(
attribute name string

class person : top {
  require name
}
)";

Result<DirectoryServer> MakeServer() {
  return DirectoryServer::Create(kSchema);
}

DistinguishedName Dn(const std::string& s) {
  return *DistinguishedName::Parse(s);
}

EntrySpec PersonSpec(const std::string& name) {
  EntrySpec spec;
  spec.classes = {"person", "top"};
  spec.values = {{"name", name}};
  return spec;
}

const Tracer::Event* FindSpan(const SlowOp& op, const std::string& name) {
  for (const Tracer::Event& span : op.spans) {
    if (name == span.name) return &span;
  }
  return nullptr;
}

TEST(ServerSlowOpsTest, OperationsAreRecordedWithSpansAndOutcomes) {
  auto server = MakeServer();
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server->EnableSlowOps(/*capacity=*/16);
  ASSERT_NE(server->slow_ops(), nullptr);

  ASSERT_TRUE(server->Add(Dn("name=alice"), PersonSpec("alice")).ok());

  // A rejected add: person entries require a name.
  EntrySpec bad;
  bad.classes = {"person", "top"};
  ASSERT_FALSE(server->Add(Dn("name=ghost"), bad).ok());

  std::vector<SlowOp> ops = server->slow_ops()->Snapshot();
  ASSERT_EQ(ops.size(), 2u);  // Add delegates to Apply: recorded ONCE each

  bool saw_ok = false, saw_rejected = false;
  for (const SlowOp& op : ops) {
    SCOPED_TRACE(op.outcome);
    EXPECT_EQ(op.op, "add");
    EXPECT_GT(op.op_id, 0u);
    EXPECT_GT(op.duration_ns, 0u);
    EXPECT_EQ(op.wire_request_id, 0u);  // a library call
    // The commit skeleton's stamps: the write-mutex wait, then the body
    // (apply + Figure-5 check, or refusal + undo), each inside the op.
    const Tracer::Event* whole = FindSpan(op, "add");
    const Tracer::Event* lock_wait = FindSpan(op, "commit.lock_wait");
    const Tracer::Event* validate = FindSpan(op, "commit.validate");
    ASSERT_NE(whole, nullptr);
    ASSERT_NE(lock_wait, nullptr);
    ASSERT_NE(validate, nullptr);
    EXPECT_EQ(whole->dur_ns, op.duration_ns);
    EXPECT_LE(lock_wait->start_ns + lock_wait->dur_ns, validate->start_ns);
    for (const Tracer::Event* span : {lock_wait, validate}) {
      EXPECT_GE(span->start_ns, whole->start_ns);
      EXPECT_LE(span->start_ns + span->dur_ns,
                whole->start_ns + whole->dur_ns);
    }
    // No WAL, so no durability wait; only a commit publishes.
    EXPECT_EQ(FindSpan(op, "wire.commit_wait"), nullptr);
    EXPECT_EQ(FindSpan(op, "commit.publish") != nullptr, op.outcome == "ok");
    if (op.outcome == "ok") saw_ok = true;
    if (op.outcome == "rejected") {
      saw_rejected = true;
      EXPECT_FALSE(op.detail.empty());
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_rejected);

  // Op ids are distinct and the global tracer stayed untouched.
  EXPECT_NE(ops[0].op_id, ops[1].op_id);
  EXPECT_FALSE(Tracer::Default().enabled());
}

TEST(ServerSlowOpsTest, RejectedModifyCarriesConstraintExplain) {
  auto server = MakeServer();
  ASSERT_TRUE(server.ok());
  server->EnableSlowOps();
  ASSERT_TRUE(server->Add(Dn("name=bob"), PersonSpec("bob")).ok());

  // Removing the required name violates the content schema.
  DirectoryServer::Modification drop;
  drop.kind = DirectoryServer::Modification::Kind::kRemoveValue;
  drop.attr = *server->vocab().FindAttribute("name");
  drop.value = Value("bob");
  ASSERT_FALSE(server->Modify(Dn("name=bob"), {drop}).ok());

  bool found = false;
  for (const SlowOp& op : server->slow_ops()->Snapshot()) {
    if (op.op == "modify" && op.outcome == "rejected") {
      found = true;
      EXPECT_NE(op.explain.find("content pass"), std::string::npos)
          << op.explain;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ServerSlowOpsTest, RejectedAddCarriesConstraintExplain) {
  auto server = DirectoryServer::Create(std::string(kSchema) + R"(
structure {
  forbid person child top
}
)");
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server->EnableSlowOps();
  ASSERT_TRUE(server->Add(Dn("name=bob"), PersonSpec("bob")).ok());

  // A person below a person breaks the forbidden relationship.
  ASSERT_FALSE(server->Add(Dn("name=kid,name=bob"), PersonSpec("kid")).ok());

  bool found = false;
  for (const SlowOp& op : server->slow_ops()->Snapshot()) {
    if (op.op == "add" && op.outcome == "rejected") {
      found = true;
      EXPECT_NE(op.explain.find("structure pass: person -> top (forbidden)"),
                std::string::npos)
          << op.explain;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ServerSlowOpsTest, StatsSnapshotIncludesImports) {
  auto server = MakeServer();
  ASSERT_TRUE(server.ok());
  auto imports = [] {
    return MetricRegistry::Default().Read("ldapbound_server_ops_total",
                                          "op=\"import\",outcome=\"ok\"");
  };
  const uint64_t before = imports();
  auto imported = server->ImportLdif(
      "dn: name=carol\nobjectClass: person\nobjectClass: top\nname: carol\n");
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(imports(), before + 1);
}

}  // namespace
}  // namespace ldapbound
