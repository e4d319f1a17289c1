// A directory-enabled-networks (DEN) scenario, the second application the
// paper's introduction motivates: network devices, interfaces and policies
// live in one tree with people, and the bounding-schema keeps the two
// worlds from being mixed up — e.g. a person can never belong to
// packetRouter (§1), and policies must sit under the device they govern.
//
//   $ ./build/examples/network_policies
#include <cstdio>

#include "core/legality_checker.h"
#include "ldap/ldif.h"
#include "schema/schema_format.h"
#include "update/incremental.h"

using namespace ldapbound;

namespace {

constexpr char kDenSchema[] = R"(
attribute cn string
attribute ipAddress string
attribute bandwidth integer
attribute priority integer
attribute owner string

class site : top {
  require cn
}
class device : top {
  require cn
  aux managed
}
class packetRouter : device {
  allow bandwidth
}
class interface : top {
  require cn, ipAddress
}
class policy : top {
  require cn, priority
}
class person : top {
  require cn
}
auxclass managed {
  allow owner
}
structure {
  require-class site
  require device ancestor site         # devices live under a site
  require packetRouter child interface # a router exposes an interface
  require policy ancestor device       # policies govern a device
  require site descendant device       # no empty sites
  forbid person descendant top         # people are leaves here
  forbid interface descendant device   # no devices nested under interfaces
  forbid device descendant device      # no devices nested in devices
}
)";

constexpr char kDenData[] = R"(
dn: cn=hq
objectClass: site
objectClass: top
cn: hq

dn: cn=router1,cn=hq
objectClass: packetRouter
objectClass: device
objectClass: managed
objectClass: top
cn: router1
bandwidth: 10000
owner: netops

dn: cn=eth0,cn=router1,cn=hq
objectClass: interface
objectClass: top
cn: eth0
ipAddress: 10.0.0.1

dn: cn=gold-traffic,cn=router1,cn=hq
objectClass: policy
objectClass: top
cn: gold-traffic
priority: 1

dn: cn=netops-lead,cn=hq
objectClass: person
objectClass: top
cn: netops-lead
)";

int Fail(const Status& status) {
  std::printf("error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = ParseDirectorySchema(kDenSchema, vocab);
  if (!schema.ok()) return Fail(schema.status());

  Directory directory(vocab);
  auto loaded = LoadLdif(kDenData, &directory);
  if (!loaded.ok()) return Fail(loaded.status());
  std::printf("loaded %zu DEN entries\n", *loaded);

  LegalityChecker checker(*schema);
  std::printf("network tree legal? %s\n",
              checker.EnsureLegal(directory).ok() ? "yes" : "no");

  // The §1 taboo: the person must not also become a packetRouter. The
  // class schema rejects this as an exclusive core-class combination.
  EntryId hq = directory.roots().front();
  EntryId lead = directory.FindChildByRdn(hq, "cn=netops-lead");
  Status status = directory.AddClass(lead, *vocab->FindClass("packetRouter"));
  if (!status.ok()) return Fail(status);
  std::vector<Violation> violations;
  checker.CheckEntryContent(directory, lead, &violations);
  std::printf("\nperson + packetRouter => %zu violation(s):\n%s",
              violations.size(),
              DescribeViolations(violations, *vocab).c_str());
  (void)directory.RemoveClass(lead, *vocab->FindClass("packetRouter"));

  // Incremental validation of a deployment: a new router arrives with its
  // interface and policy as one subtree.
  std::printf("\ndeploying router2 (incremental Figure 5 checks)...\n");
  EntrySpec router;
  router.rdn = "cn=router2";
  router.classes = {"packetRouter", "device", "top"};
  router.values = {{"cn", "router2"}};
  EntryId router2 = directory.AddEntryFromSpec(hq, router).value();
  EntrySpec iface;
  iface.rdn = "cn=eth0";
  iface.classes = {"interface", "top"};
  iface.values = {{"cn", "eth0"}, {"ipAddress", "10.0.1.1"}};
  EntryId eth = directory.AddEntryFromSpec(router2, iface).value();

  EntrySet delta;
  delta.Insert(router2);
  delta.Insert(eth);
  IncrementalValidator validator(*schema);
  violations.clear();
  bool ok = validator.CheckAfterInsert(directory, delta, &violations);
  std::printf("router2 subtree accepted? %s\n", ok ? "yes" : "no");

  // A mis-deployment: nesting a device under an interface.
  EntrySpec rogue;
  rogue.rdn = "cn=rogue";
  rogue.classes = {"device", "top"};
  rogue.values = {{"cn", "rogue"}};
  EntryId rogue_id = directory.AddEntryFromSpec(eth, rogue).value();
  EntrySet delta2;
  delta2.Insert(rogue_id);
  violations.clear();
  ok = validator.CheckAfterInsert(directory, delta2, &violations);
  std::printf("\nrogue device under an interface accepted? %s\n",
              ok ? "yes" : "no");
  std::printf("%s", DescribeViolations(violations, *vocab).c_str());
  return 0;
}
