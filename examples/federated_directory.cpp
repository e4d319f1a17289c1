// §2.4: the hierarchical namespace lets the white-pages DIT be managed by
// several servers (naming contexts) while applications keep a unified
// view. This example splits the Figure 1 tree, searches across referrals,
// and shows why structure-schema legality must be judged on the unified
// view rather than per partition.
//
//   $ ./build/examples/federated_directory
#include <cstdio>

#include "federation/federation.h"
#include "ldap/filter.h"
#include "ldap/ldif.h"
#include "workload/white_pages.h"

using namespace ldapbound;

int main() {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = MakeWhitePagesSchema(vocab);
  auto directory = MakeFigure1Instance(*schema);
  if (!directory.ok()) {
    std::printf("error: %s\n", directory.status().ToString().c_str());
    return 1;
  }

  std::printf("=== splitting the DIT at ou=attLabs,o=att ===\n");
  auto federation = Federation::Split(
      vocab, *directory, {*DistinguishedName::Parse("ou=attLabs,o=att")});
  if (!federation.ok()) {
    std::printf("error: %s\n", federation.status().ToString().c_str());
    return 1;
  }
  std::printf("glue partition (%zu entries):\n%s",
              federation->glue().NumEntries(),
              WriteLdif(federation->glue()).c_str());
  std::printf("context partition (%zu entries) mounted under '%s'\n",
              federation->contexts()[0].directory->NumEntries(),
              federation->contexts()[0].mount_parent.ToString().c_str());

  std::printf("\n=== federated search: researchers anywhere ===\n");
  auto filter = ParseFilter("(objectClass=researcher)", *vocab);
  auto hits = federation->Search(*DistinguishedName::Parse("o=att"),
                                 *filter);
  for (const std::string& dn : *hits) std::printf("  %s\n", dn.c_str());

  std::printf("\n=== legality: unified vs per-partition ===\n");
  std::printf("federated (unified-view) verdict: %s\n",
              federation->CheckLegality(*schema) ? "LEGAL" : "ILLEGAL");
  auto verdicts = federation->NaivePerPartitionStructureVerdicts(*schema);
  std::printf("naive per-partition structure verdicts:\n");
  std::printf("  glue:    %s   (att's person descendants live elsewhere)\n",
              verdicts[0] ? "legal" : "ILLEGAL");
  std::printf("  context: %s   (orgUnits lack their organization above)\n",
              verdicts[1] ? "legal" : "ILLEGAL");
  std::printf("=> structural bounds are a property of the unified view.\n");

  std::printf("\n=== reunify ===\n");
  auto unified = federation->Unify();
  std::printf("unified == original: %s\n",
              WriteLdif(*unified) == WriteLdif(*directory) ? "yes" : "no");
  return 0;
}
