// Quickstart: author a bounding-schema, load a directory from LDIF, test
// legality, and see a violation report.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "core/legality_checker.h"
#include "ldap/ldif.h"
#include "schema/schema_format.h"

namespace {

constexpr char kSchema[] = R"(
attribute name string
attribute uid string
attribute mail string

class team : top {
}
class person : top {
  require name, uid
  aux online
}
auxclass online {
  allow mail
}
structure {
  require-class team
  require team descendant person   # every team employs somebody
  forbid person child top          # persons are leaves
}
)";

constexpr char kData[] = R"(
dn: ou=research
objectClass: team
objectClass: top

dn: uid=ada,ou=research
objectClass: person
objectClass: online
objectClass: top
name: Ada Lovelace
uid: ada
mail: ada@example.org
)";

}  // namespace

int main() {
  using namespace ldapbound;

  // 1. Parse the bounding-schema.
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = ParseDirectorySchema(kSchema, vocab);
  if (!schema.ok()) {
    std::printf("schema error: %s\n", schema.status().ToString().c_str());
    return 1;
  }

  // 2. Load the directory.
  Directory directory(vocab);
  auto loaded = LoadLdif(kData, &directory);
  if (!loaded.ok()) {
    std::printf("ldif error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu entries\n", *loaded);

  // 3. Check legality: the instance above is within the bounds.
  LegalityChecker checker(*schema);
  Status legal = checker.EnsureLegal(directory);
  std::printf("instance legal? %s\n", legal.ok() ? "yes" : "no");

  // 4. Break it: a person entry without the required attributes, placed as
  //    a child of another person.
  auto ada = directory.FindChildByRdn(directory.roots().front(), "uid=ada");
  EntrySpec intern;
  intern.rdn = "uid=intern";
  intern.classes = {"person", "top"};
  auto id = directory.AddEntryFromSpec(ada, intern);
  if (!id.ok()) {
    std::printf("insert error: %s\n", id.status().ToString().c_str());
    return 1;
  }

  std::vector<Violation> violations;
  if (!checker.CheckLegal(directory, &violations)) {
    std::printf("now illegal, %zu violations:\n%s", violations.size(),
                DescribeViolations(violations, *vocab).c_str());
  }
  return 0;
}
