// Primary/replica replication via the changelog: every committed mutation
// of the primary is recorded as an RFC 2849 LDIF change record (with
// transaction grouping preserved through `# txn:` comments) and shipped to
// a replica, which replays it through its own schema-guarded operations.
//
//   $ ./build/examples/replication
#include <cstdio>

#include "server/changelog.h"
#include "server/directory_server.h"

using namespace ldapbound;

namespace {

constexpr char kSchema[] = R"(
attribute name string
attribute uid string
attribute mail string
attribute ou string

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

DistinguishedName Dn(const char* text) {
  return *DistinguishedName::Parse(text);
}

}  // namespace

int main() {
  auto primary = DirectoryServer::Create(kSchema);
  if (!primary.ok()) {
    std::printf("error: %s\n", primary.status().ToString().c_str());
    return 1;
  }
  primary->EnableChangelog();

  // Activity on the primary: a staffed team (one transaction — the team
  // alone would be illegal), a later hire, a modify and a move.
  UpdateTransaction bootstrap;
  EntrySpec team;
  team.classes = {"team", "top"};
  team.values = {{"ou", "research"}};
  bootstrap.Insert(Dn("ou=research"), team);
  EntrySpec ada;
  ada.classes = {"person", "top"};
  ada.values = {{"uid", "ada"}, {"name", "Ada Lovelace"}};
  bootstrap.Insert(Dn("uid=ada,ou=research"), ada);
  (void)primary->Apply(bootstrap);

  EntrySpec bob;
  bob.classes = {"person", "top", "online"};
  bob.values = {{"uid", "bob"},
                {"name", "Bob Babbage"},
                {"mail", "bob@example.org"}};
  (void)primary->Add(Dn("uid=bob,ou=research"), bob);

  Modification add_class;
  add_class.kind = Modification::Kind::kAddClass;
  add_class.cls = *primary->vocab().FindClass("online");
  Modification add_mail;
  add_mail.kind = Modification::Kind::kAddValue;
  add_mail.attr = *primary->vocab().FindAttribute("mail");
  add_mail.value = Value("ada@example.org");
  (void)primary->Modify(Dn("uid=ada,ou=research"), {add_class, add_mail});

  std::printf("=== primary changelog (LDIF change records) ===\n%s",
              primary->changelog()->ToLdif(primary->vocab()).c_str());

  // Ship to a fresh replica.
  auto replica = DirectoryServer::Create(kSchema);
  auto applied = ApplyChangeLdif(
      primary->changelog()->ToLdif(primary->vocab()), &*replica);
  if (!applied.ok()) {
    std::printf("replay error: %s\n", applied.status().ToString().c_str());
    return 1;
  }
  std::printf("=== replica after replaying %zu change(s) ===\n%s",
              *applied, replica->ExportLdif().c_str());
  const bool converged = replica->ExportLdif() == primary->ExportLdif();
  std::printf("converged: %s\n", converged ? "yes" : "no");

  // Incremental shipping: only the new changes flow.
  uint64_t shipped = primary->changelog()->last_sequence();
  EntrySpec carol;
  carol.classes = {"person", "top"};
  carol.values = {{"uid", "carol"}, {"name", "Carol"}};
  (void)primary->Add(Dn("uid=carol,ou=research"), carol);
  std::string delta =
      primary->changelog()->ToLdif(primary->vocab(), shipped);
  std::printf("\n=== incremental delta ===\n%s", delta.c_str());
  (void)ApplyChangeLdif(delta, &*replica);
  const bool converged_after_delta =
      replica->ExportLdif() == primary->ExportLdif();
  std::printf("converged after delta: %s\n",
              converged_after_delta ? "yes" : "no");

  // The replica enforces the schema on replay too: a hand-tampered change
  // file cannot corrupt it.
  const char* tampered =
      "dn: ou=lonely\n"
      "changetype: add\n"
      "objectClass: team\n"
      "objectClass: top\n"
      "ou: lonely\n";
  auto bad = ApplyChangeLdif(tampered, &*replica);
  std::printf("\ntampered change file: %s\n",
              bad.ok() ? "accepted (?!)" : bad.status().ToString().c_str());
  return converged && converged_after_delta ? 0 : 1;
}
