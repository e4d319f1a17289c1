#include "server/directory_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/metrics.h"

namespace ldapbound {
namespace {

constexpr char kSchema[] = R"(
attribute name string
attribute uid string
attribute mail string
attribute ou string
key uid

class team : top {
  require ou
}
class person : top {
  require name, uid
  aux online
}
auxclass online {
  allow mail
}
structure {
  require team descendant person
  forbid person child top
}
)";

/// DirectoryServer ops of one kind and outcome so far in this process
/// (ldapbound_server_ops_total); tests assert deltas.
uint64_t ServerOps(const std::string& op, const std::string& outcome) {
  return MetricRegistry::Default().Read(
      "ldapbound_server_ops_total",
      "op=\"" + op + "\",outcome=\"" + outcome + "\"");
}

DistinguishedName Dn(const std::string& s) {
  return *DistinguishedName::Parse(s);
}

EntrySpec TeamSpec(const std::string& ou) {
  EntrySpec spec;
  spec.classes = {"team", "top"};
  spec.values = {{"ou", ou}};
  return spec;
}

EntrySpec PersonSpec(const std::string& uid) {
  EntrySpec spec;
  spec.classes = {"person", "top"};
  spec.values = {{"uid", uid}, {"name", "p " + uid}};
  return spec;
}

class DirectoryServerTest : public ::testing::Test {
 protected:
  DirectoryServerTest() : server_(DirectoryServer::Create(kSchema).value()) {
    // A team must employ someone: build it in one transaction.
    UpdateTransaction txn;
    txn.Insert(Dn("ou=research"), TeamSpec("research"));
    txn.Insert(Dn("uid=ada,ou=research"), PersonSpec("ada"));
    EXPECT_TRUE(server_.Apply(txn).ok());
  }

  DirectoryServer server_;
};

TEST(DirectoryServerCreateTest, RejectsBadSchemaText) {
  auto server = DirectoryServer::Create("class x : nowhere {\n}\n");
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

TEST(DirectoryServerCreateTest, RejectsInconsistentSchema) {
  auto server = DirectoryServer::Create(
      "class a : top {\n}\nclass b : top {\n}\n"
      "structure {\n"
      "  require-class a\n"
      "  require a descendant b\n"
      "  forbid a descendant b\n"
      "}\n");
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInconsistent);
}

TEST_F(DirectoryServerTest, AddAndSearch) {
  const uint64_t adds = ServerOps("add", "ok");
  const uint64_t searches = ServerOps("search", "ok");
  ASSERT_TRUE(server_.Add(Dn("uid=bob,ou=research"), PersonSpec("bob")).ok());
  auto hits = server_.Search("ou=research", "(objectClass=person)");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
  EXPECT_TRUE(server_.IsLegal());
  EXPECT_EQ(ServerOps("add", "ok"), adds + 1);
  EXPECT_EQ(ServerOps("search", "ok"), searches + 1);
}

TEST_F(DirectoryServerTest, SchemaGuardsAdd) {
  const uint64_t rejected = ServerOps("add", "rejected");
  // A person with a child is forbidden.
  Status status =
      server_.Add(Dn("uid=x,uid=ada,ou=research"), PersonSpec("x"));
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  // Duplicate key value.
  status = server_.Add(Dn("uid=ada2,ou=research"), PersonSpec("ada"));
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  EXPECT_EQ(ServerOps("add", "rejected"), rejected + 2);
  EXPECT_TRUE(server_.IsLegal());
}

// Adds naming only classes no schema defines are refused before they
// take an id: the frozen vocabulary gains no name, and no class posting
// appears, in the open delta or in a later version.
TEST_F(DirectoryServerTest, RefusedFreshClassAddsLeaveNoClassPosting) {
  const size_t keys = server_.directory().UnpublishedKeys();
  const size_t ids = server_.directory().IdCapacity();
  const size_t classes = server_.vocab().num_classes();
  std::vector<std::string> fresh;
  for (int i = 0; i < 20; ++i) {
    fresh.push_back("fresh" + std::to_string(i));
    EntrySpec spec = PersonSpec(fresh.back());
    spec.classes = {fresh.back()};
    EXPECT_EQ(server_.Add(Dn("uid=" + fresh.back() + ",ou=research"),
                          std::move(spec))
                  .code(),
              StatusCode::kIllegal);
  }
  EXPECT_EQ(server_.directory().UnpublishedKeys(), keys);
  EXPECT_EQ(server_.directory().IdCapacity(), ids);

  // A later commit publishes a version with no posting past the schema's
  // classes, and the one vocabulary never learnt the fresh names.
  ASSERT_TRUE(server_.Add(Dn("uid=bob,ou=research"), PersonSpec("bob")).ok());
  EXPECT_EQ(&server_.vocab(), &server_.directory().vocab());
  EXPECT_EQ(server_.vocab().num_classes(), classes);
  for (const std::string& name : fresh) {
    EXPECT_FALSE(server_.vocab().FindClass(name).ok()) << name;
  }
  PinnedSnapshot snap = server_.PinSnapshot();
  snap->by_class.ForEach([&](ClassId cls, const auto&) {
    EXPECT_LT(cls, classes);
  });
}

// A refused import names each constraint it broke on its /slowz record,
// one "detected by" line per violation, as a refused Add does.
TEST_F(DirectoryServerTest, RefusedImportExplainsEachViolation) {
  server_.EnableSlowOps(/*capacity=*/8);
  // A team with no person below, and a person below a person.
  Status status = server_
                      .ImportLdif(
                          "dn: ou=empty\nobjectClass: team\n"
                          "objectClass: top\nou: empty\n\n"
                          "dn: uid=kid,uid=ada,ou=research\n"
                          "objectClass: person\nobjectClass: top\n"
                          "uid: kid\nname: p kid\n")
                      .status();
  ASSERT_EQ(status.code(), StatusCode::kIllegal) << status;
  std::vector<SlowOp> ops = server_.slow_ops()->Snapshot();
  auto import = std::find_if(ops.begin(), ops.end(), [](const SlowOp& op) {
    return op.op == "import";
  });
  ASSERT_NE(import, ops.end());
  EXPECT_EQ(import->outcome, "rejected");
  std::vector<std::string> lines;
  for (size_t start = 0; start < import->explain.size();) {
    size_t end = import->explain.find('\n', start);
    if (end == std::string::npos) end = import->explain.size();
    lines.push_back(import->explain.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 2u) << import->explain;
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines[0].rfind("structure pass: person -> top (forbidden), "
                           "violation query ",
                           0),
            0u)
      << lines[0];
  EXPECT_EQ(lines[1].rfind("structure pass: team ->> person (required), "
                           "violation query ",
                           0),
            0u)
      << lines[1];
  // The import was rolled back.
  EXPECT_EQ(server_.directory().NumEntries(), 2u);
  EXPECT_TRUE(server_.IsLegal());
}

// An import can break a constraint per entry it brings: its /slowz record
// keeps as much of the explain as of the detail, not one line for each.
TEST_F(DirectoryServerTest, RefusedImportKeepsABoundedExplain) {
  server_.EnableSlowOps(/*capacity=*/8);
  std::string ldif;
  for (int i = 0; i < 100; ++i) {  // persons without a name
    const std::string uid = "n" + std::to_string(i);
    ldif += "dn: uid=" + uid + ",ou=research\nobjectClass: person\n" +
            "objectClass: top\nuid: " + uid + "\n\n";
  }
  ASSERT_EQ(server_.ImportLdif(ldif).status().code(), StatusCode::kIllegal);
  std::vector<SlowOp> ops = server_.slow_ops()->Snapshot();
  auto import = std::find_if(ops.begin(), ops.end(), [](const SlowOp& op) {
    return op.op == "import";
  });
  ASSERT_NE(import, ops.end());
  EXPECT_EQ(import->explain.rfind("content pass: attribute schema\n", 0), 0u)
      << import->explain;
  EXPECT_EQ(import->explain.size(), import->detail.size());
}

// A write naming a class or an attribute the schema lacks, through any
// entry point, is refused the way a content refusal is: kIllegal (not
// retryable), counted as rejected, its detail naming the DN and the name
// in the content check's words, its explain the content pass's "detected
// by" line. It keeps nothing: the one vocabulary, the id space and the
// open deltas are as they were.
class FrozenNamesTest : public DirectoryServerTest {
 protected:
  static constexpr char kFreshClass[] =
      "class 'gadget' is not part of the schema";
  static constexpr char kFreshAttribute[] =
      "attribute 'shoeSize' is not allowed by any of the entry's classes";

  FrozenNamesTest() { server_.EnableSlowOps(/*capacity=*/64); }

  /// A person under ou=research that names a fresh class or attribute.
  static EntrySpec FreshSpec(bool fresh_class) {
    EntrySpec spec = PersonSpec("x");
    if (fresh_class) {
      spec.classes.push_back("gadget");
    } else {
      spec.values.emplace_back("shoeSize", "42");
    }
    return spec;
  }

  /// Runs `write` and checks the refusal contract for op family `op`.
  template <typename Write>
  void ExpectRefused(const std::string& op, const std::string& dn,
                     bool fresh_class, Write&& write) {
    const Directory& directory = server_.directory();
    const size_t classes = server_.vocab().num_classes();
    const size_t attributes = server_.vocab().num_attributes();
    const size_t ids = directory.IdCapacity();
    const size_t keys = directory.UnpublishedKeys();
    const uint64_t rejected = ServerOps(op, "rejected");

    Status status = write();
    EXPECT_EQ(status.code(), StatusCode::kIllegal) << status;
    EXPECT_FALSE(status.retryable());
    EXPECT_NE(status.message().find("'" + dn + "'"), std::string::npos)
        << status;
    EXPECT_NE(status.message().find(fresh_class ? kFreshClass
                                                : kFreshAttribute),
              std::string::npos)
        << status;
    EXPECT_EQ(ServerOps(op, "rejected"), rejected + 1);
    const SlowOp* last = nullptr;
    std::vector<SlowOp> ops = server_.slow_ops()->Snapshot();
    for (const SlowOp& record : ops) {
      if (last == nullptr || record.op_id > last->op_id) last = &record;
    }
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(last->op, op);
    EXPECT_EQ(last->outcome, "rejected");
    EXPECT_EQ(last->explain, fresh_class ? "content pass: class schema"
                                         : "content pass: attribute schema");

    EXPECT_EQ(&server_.vocab(), &directory.vocab());
    EXPECT_EQ(server_.vocab().num_classes(), classes);
    EXPECT_EQ(server_.vocab().num_attributes(), attributes);
    EXPECT_FALSE(server_.vocab().FindClass("gadget").ok());
    EXPECT_FALSE(server_.vocab().FindAttribute("shoeSize").ok());
    EXPECT_EQ(directory.IdCapacity(), ids);
    EXPECT_EQ(directory.UnpublishedKeys(), keys);
  }
};

TEST_F(FrozenNamesTest, Add) {
  for (bool fresh_class : {true, false}) {
    ExpectRefused("add", "uid=x,ou=research", fresh_class, [&] {
      return server_.Add(Dn("uid=x,ou=research"), FreshSpec(fresh_class));
    });
  }
}

TEST_F(FrozenNamesTest, Apply) {
  for (bool fresh_class : {true, false}) {
    ExpectRefused("apply", "uid=x,ou=research", fresh_class, [&] {
      UpdateTransaction txn;
      txn.Insert(Dn("uid=x,ou=research"), FreshSpec(fresh_class));
      return server_.Apply(txn);
    });
  }
}

TEST_F(FrozenNamesTest, ApplyChangeLdif) {
  for (bool fresh_class : {true, false}) {
    ExpectRefused("apply", "uid=x,ou=research", fresh_class, [&] {
      std::string change =
          "dn: uid=x,ou=research\nchangetype: add\nobjectClass: person\n"
          "objectClass: top\nuid: x\nname: p x\n";
      change += fresh_class ? "objectClass: gadget\n" : "shoeSize: 42\n";
      return ApplyChangeLdif(change, &server_).status();
    });
  }
}

TEST_F(FrozenNamesTest, ImportLdif) {
  for (bool fresh_class : {true, false}) {
    ExpectRefused("import", "uid=x,ou=research", fresh_class, [&] {
      std::string record =
          "dn: uid=x,ou=research\nobjectClass: person\nobjectClass: top\n"
          "uid: x\nname: p x\n";
      record += fresh_class ? "objectClass: gadget\n" : "shoeSize: 42\n";
      return server_.ImportLdif(record).status();
    });
  }
}

TEST_F(FrozenNamesTest, ModifyAddingAnObjectClassValue) {
  ExpectRefused("modify", "uid=ada,ou=research", /*fresh_class=*/true, [&] {
    DirectoryServer::Modification add;
    add.kind = DirectoryServer::Modification::Kind::kAddValue;
    add.attr = server_.vocab().objectclass_attr();
    add.value = Value("gadget");
    return server_.Modify(Dn("uid=ada,ou=research"), {add});
  });
  // Rolled back: ada is as she was.
  EntryId ada = *ResolveDn(server_.directory(), Dn("uid=ada,ou=research"));
  EXPECT_EQ(server_.directory().entry(ada).classes().size(), 2u);
  EXPECT_TRUE(server_.IsLegal());
}

// A transaction refused at its second insert still keeps the id its first
// insert took before the rollback: ids are never reused (ROADMAP item 1).
TEST_F(FrozenNamesTest, MultiEntryApplyKeepsTheRolledBackIds) {
  const size_t ids = server_.directory().IdCapacity();
  const size_t classes = server_.vocab().num_classes();
  UpdateTransaction txn;
  txn.Insert(Dn("ou=lab"), TeamSpec("lab"));
  txn.Insert(Dn("uid=y,ou=lab"), PersonSpec("y"));
  txn.Insert(Dn("uid=x,ou=lab"), FreshSpec(/*fresh_class=*/true));
  Status status = server_.Apply(txn);
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  EXPECT_NE(status.message().find("'uid=x,ou=lab'"), std::string::npos)
      << status;
  EXPECT_EQ(server_.directory().IdCapacity(), ids + 2);
  EXPECT_EQ(server_.vocab().num_classes(), classes);
  EXPECT_EQ(server_.directory().NumEntries(), 2u);
}

TEST_F(DirectoryServerTest, DeleteGuarded) {
  const uint64_t deletes = ServerOps("delete", "ok");
  // Removing the only person violates team ->> person.
  Status status = server_.Delete(Dn("uid=ada,ou=research"));
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  // With a second person, deletion is fine.
  ASSERT_TRUE(server_.Add(Dn("uid=bob,ou=research"), PersonSpec("bob")).ok());
  EXPECT_TRUE(server_.Delete(Dn("uid=ada,ou=research")).ok());
  EXPECT_TRUE(server_.IsLegal());
  EXPECT_EQ(ServerOps("delete", "ok"), deletes + 1);
}

TEST_F(DirectoryServerTest, ModifyValues) {
  AttributeId mail = *server_.vocab().FindAttribute("mail");
  ClassId online = *server_.vocab().FindClass("online");
  const uint64_t modifies = ServerOps("modify", "ok");

  // Adding mail without the online class is a content violation...
  DirectoryServer::Modification add_mail;
  add_mail.kind = DirectoryServer::Modification::Kind::kAddValue;
  add_mail.attr = mail;
  add_mail.value = Value("ada@example.org");
  Status status = server_.Modify(Dn("uid=ada,ou=research"), {add_mail});
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  EXPECT_TRUE(server_.IsLegal());  // rolled back

  // ...but adding the class and the value together is fine.
  DirectoryServer::Modification add_online;
  add_online.kind = DirectoryServer::Modification::Kind::kAddClass;
  add_online.cls = online;
  ASSERT_TRUE(
      server_.Modify(Dn("uid=ada,ou=research"), {add_online, add_mail}).ok());
  auto hits = server_.Search("ou=research", "(mail=*)");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  EXPECT_EQ(ServerOps("modify", "ok"), modifies + 1);
}

TEST_F(DirectoryServerTest, ModifyClassesGuardedByStructure) {
  // Dropping ada's person class would break team ->> person: rolled back.
  ClassId person = *server_.vocab().FindClass("person");
  DirectoryServer::Modification drop;
  drop.kind = DirectoryServer::Modification::Kind::kRemoveClass;
  drop.cls = person;
  Status status = server_.Modify(Dn("uid=ada,ou=research"), {drop});
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  EXPECT_TRUE(server_.IsLegal());
  auto hits = server_.Search("ou=research", "(objectClass=person)");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(DirectoryServerTest, ModifyDnMovesSubtree) {
  // Second team, staffed, then move bob over.
  UpdateTransaction txn;
  txn.Insert(Dn("ou=ops"), TeamSpec("ops"));
  txn.Insert(Dn("uid=bob,ou=ops"), PersonSpec("bob"));
  ASSERT_TRUE(server_.Apply(txn).ok());
  ASSERT_TRUE(server_.Add(Dn("uid=eve,ou=ops"), PersonSpec("eve")).ok());

  ASSERT_TRUE(server_.ModifyDn(Dn("uid=bob,ou=ops"), Dn("ou=research")).ok());
  EXPECT_TRUE(ResolveDn(server_.directory(), Dn("uid=bob,ou=research")).ok());
  EXPECT_FALSE(ResolveDn(server_.directory(), Dn("uid=bob,ou=ops")).ok());
  EXPECT_TRUE(server_.IsLegal());
}

TEST_F(DirectoryServerTest, ModifyDnGuarded) {
  // Moving ada out of research would leave the team personless.
  UpdateTransaction txn;
  txn.Insert(Dn("ou=ops"), TeamSpec("ops"));
  txn.Insert(Dn("uid=bob,ou=ops"), PersonSpec("bob"));
  ASSERT_TRUE(server_.Apply(txn).ok());
  Status status = server_.ModifyDn(Dn("uid=ada,ou=research"), Dn("ou=ops"));
  EXPECT_EQ(status.code(), StatusCode::kIllegal);
  // Rolled back: ada is still where she was.
  EXPECT_TRUE(ResolveDn(server_.directory(), Dn("uid=ada,ou=research")).ok());
  EXPECT_TRUE(server_.IsLegal());
}

TEST_F(DirectoryServerTest, ModifyDnRename) {
  ASSERT_TRUE(server_
                  .ModifyDn(Dn("uid=ada,ou=research"), Dn("ou=research"),
                            "uid=lovelace")
                  .ok());
  EXPECT_TRUE(
      ResolveDn(server_.directory(), Dn("uid=lovelace,ou=research")).ok());
  EXPECT_TRUE(server_.IsLegal());
}

TEST_F(DirectoryServerTest, ModifyUnknownEntry) {
  EXPECT_EQ(server_.Modify(Dn("uid=ghost"), {}).code(),
            StatusCode::kNotFound);
}

TEST_F(DirectoryServerTest, ImportExportRoundTrip) {
  std::string ldif = server_.ExportLdif();
  auto server2 = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server2.ok());
  auto n = server2->ImportLdif(ldif);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(server2->ExportLdif(), ldif);
  EXPECT_TRUE(server2->IsLegal());
}

TEST_F(DirectoryServerTest, ImportRefusesIllegalData) {
  auto server2 = DirectoryServer::Create(kSchema);
  ASSERT_TRUE(server2.ok());
  // A lonely team (no person below) is illegal; import must refuse and
  // leave the directory empty.
  const char* bad =
      "dn: ou=empty\n"
      "objectClass: team\n"
      "objectClass: top\n"
      "ou: empty\n";
  auto n = server2->ImportLdif(bad);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kIllegal);
  EXPECT_EQ(server2->directory().NumEntries(), 0u);
}

// Every file in a WAL directory with its size: equal listings mean no
// frame and no snapshot reached the log in between.
using FileSizes = std::vector<std::pair<std::string, uintmax_t>>;

FileSizes WalFiles(const std::string& dir) {
  FileSizes files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.emplace_back(entry.path().filename().string(), entry.file_size());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Every server publishes from construction: a pin right after the import
// sees the imported state, with no setup call.
TEST(DirectoryServerSnapshotTest, PinAfterImportSeesTheImport) {
  DirectoryServer server = DirectoryServer::Create(kSchema).value();
  ASSERT_TRUE(server.PinSnapshot());
  EXPECT_EQ(server.PinSnapshot()->num_alive, 0u);
  ASSERT_TRUE(server
                  .ImportLdif("dn: ou=t\nobjectClass: team\n"
                              "objectClass: top\nou: t\n\n"
                              "dn: uid=a,ou=t\nobjectClass: person\n"
                              "objectClass: top\nuid: a\nname: A\n\n")
                  .ok());
  PinnedSnapshot snap = server.PinSnapshot();
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->version, server.directory().version());
  EXPECT_EQ(snap->num_alive, 2u);
  const ClassId person = *server.vocab().FindClass("person");
  EXPECT_EQ(snap->CountWithClass(person), 1u);
  const EntryId team = snap->FindChildByRdn(kInvalidEntryId, "ou=t");
  ASSERT_NE(team, kInvalidEntryId);
  EXPECT_NE(snap->FindChildByRdn(team, "uid=a"), kInvalidEntryId);
}

TEST_F(DirectoryServerTest, RefusedImportLeavesNoTrace) {
  // A populated, durable server: a refused import must leave the head,
  // the published snapshot and the log exactly as they were.
  const std::string dir = ::testing::TempDir() + "ldapbound_refused_import";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(server_.EnableWal(dir).ok());
  ASSERT_TRUE(server_.Add(Dn("uid=bob,ou=research"), PersonSpec("bob")).ok());

  const std::string before = server_.ExportLdif();
  const uint64_t version = server_.PinSnapshot()->version;
  const auto wal_files = WalFiles(dir);

  struct Case {
    const char* name;
    const char* ldif;
  };
  const Case cases[] = {
      // Fails mid-load: a staffed team is created, then a record names a
      // DN that already exists.
      {"existing DN",
       "dn: ou=ops\nobjectClass: team\nobjectClass: top\nou: ops\n\n"
       "dn: uid=eve,ou=ops\nobjectClass: person\nobjectClass: top\n"
       "uid: eve\nname: p eve\n\n"
       "dn: uid=ada,ou=research\nobjectClass: person\nobjectClass: top\n"
       "uid: ada\nname: p ada\n"},
      // Loads completely, but the result is illegal: the new team has
      // nobody below it. Carol joins an existing team first.
      {"illegal result",
       "dn: uid=carol,ou=research\nobjectClass: person\nobjectClass: top\n"
       "uid: carol\nname: p carol\n\n"
       "dn: ou=empty\nobjectClass: team\nobjectClass: top\nou: empty\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto n = server_.ImportLdif(c.ldif);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(server_.ExportLdif(), before);
    EXPECT_EQ(server_.PinSnapshot()->version, version);
    EXPECT_EQ(WalFiles(dir), wal_files);
    auto recovered = DirectoryServer::Recover(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->ExportLdif(), before);
  }
  EXPECT_TRUE(server_.IsLegal());

  // The refusals left nothing behind that a legal import could trip on.
  auto n = server_.ImportLdif(
      "dn: ou=ops\nobjectClass: team\nobjectClass: top\nou: ops\n\n"
      "dn: uid=eve,ou=ops\nobjectClass: person\nobjectClass: top\n"
      "uid: eve\nname: p eve\n");
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  EXPECT_GT(server_.PinSnapshot()->version, version);
  EXPECT_EQ(server_.PinSnapshot()->num_alive,
            server_.directory().NumEntries());
  auto recovered = DirectoryServer::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->ExportLdif(), server_.ExportLdif());
}

TEST_F(DirectoryServerTest, RefusedBeforeTheBodyCountsAsRejected) {
  // An expired deadline refuses the write before it takes the write
  // mutex; the refusal is still counted once in the op's own family.
  auto rejected = [](const std::string& op) {
    return ServerOps(op, "rejected");
  };
  const Deadline expired = Deadline::AfterMs(0);

  uint64_t before = rejected("apply");
  UpdateTransaction txn;
  txn.Insert(Dn("uid=bob,ou=research"), PersonSpec("bob"));
  EXPECT_EQ(server_.Apply(txn, nullptr, expired).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rejected("apply"), before + 1);

  before = rejected("modify");
  EXPECT_EQ(server_.Modify(Dn("uid=ada,ou=research"), {}, expired).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rejected("modify"), before + 1);

  before = rejected("modify_dn");
  EXPECT_EQ(server_
                .ModifyDn(Dn("uid=ada,ou=research"), Dn("ou=research"),
                          "uid=lovelace", expired)
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rejected("modify_dn"), before + 1);
}

TEST_F(DirectoryServerTest, SearchStringErrors) {
  EXPECT_FALSE(server_.Search("ou=research", "((broken").ok());
  EXPECT_FALSE(server_.Search("ou=nowhere", "(uid=*)").ok());
}

TEST_F(DirectoryServerTest, SearchCountsItsRealOutcome) {
  // A missing base is a NotFound search: counted as rejected, not as ok
  // (so not in /statusz's stats.searches either).
  auto series = [](const std::string& outcome) {
    return ServerOps("search", outcome);
  };
  const uint64_t ok_before = series("ok");
  const uint64_t rejected_before = series("rejected");
  EXPECT_EQ(server_.Search("ou=nowhere", "(uid=*)").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(series("rejected"), rejected_before + 1);
  EXPECT_EQ(series("ok"), ok_before);
}

TEST_F(DirectoryServerTest, ConcurrentSearchesWhileStatsMutate) {
  // The documented concurrency contract: const Searches may run
  // concurrently with each other and with the counts they bump. Hammer
  // Search from several threads; under TSan this is the regression test
  // for the atomic counters, and the final count proves no lost updates.
  const uint64_t searches = ServerOps("search", "ok");
  constexpr int kThreads = 8;
  constexpr int kSearchesPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this] {
      for (int i = 0; i < kSearchesPerThread; ++i) {
        auto hits = server_.Search("", "(objectClass=person)");
        ASSERT_TRUE(hits.ok());
        ASSERT_EQ(hits->size(), 1u);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ServerOps("search", "ok") - searches,
            static_cast<uint64_t>(kThreads) * kSearchesPerThread);
}

}  // namespace
}  // namespace ldapbound
