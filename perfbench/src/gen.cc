// `perfbench_client gen`: writes the seeded 10^5-entry white-pages
// directory (MakeWhitePagesInstance, fanout 8, depth 2: 72 orgUnits of
// 1,388 persons) as LDIF, plus the ground truth the load generator checks
// answers against.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "commands.h"
#include "ldap/dn.h"
#include "ldap/ldif.h"
#include "opstream.h"
#include "schema/schema_format.h"
#include "workload/white_pages.h"

namespace perfbench {

using namespace ldapbound;

namespace {

/// Persons per orgUnit: 72 units × 1,388 persons + 73 org entries =
/// 100,009 entries.
constexpr size_t kPersonsPerUnit = 1388;

}  // namespace

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteWholeFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  return static_cast<bool>(out << data);
}

int RunGen(const Flags& flags) {
  std::string schema_text;
  if (!ReadWholeFile(flags.Get("schema"), &schema_text)) {
    std::fprintf(stderr, "gen: cannot read schema '%s'\n",
                 flags.Get("schema").c_str());
    return 2;
  }
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = ParseDirectorySchema(schema_text, vocab);
  if (!schema.ok()) {
    std::fprintf(stderr, "gen: %s\n", schema.status().ToString().c_str());
    return 2;
  }
  WhitePagesOptions options;
  options.org_unit_fanout = 8;
  options.org_unit_depth = 2;
  options.persons_per_unit = kPersonsPerUnit;
  options.seed = flags.GetU64("seed");
  auto directory = MakeWhitePagesInstance(*schema, options);
  if (!directory.ok()) {
    std::fprintf(stderr, "gen: %s\n", directory.status().ToString().c_str());
    return 2;
  }

  const Vocabulary& v = directory->vocab();
  ClassId org_unit = *v.FindClass("orgUnit");
  ClassId person = *v.FindClass("person");
  AttributeId uid_attr = *v.FindAttribute("uid");
  auto has_class = [](const Entry& e, ClassId c) {
    for (ClassId x : e.classes()) {
      if (x == c) return true;
    }
    return false;
  };

  Truth truth;
  truth.num_entries = directory->NumEntries();
  bool ok = true;
  directory->ForEachAlive([&](const Entry& e) {
    if (!has_class(e, org_unit)) return;
    Unit unit;
    unit.dn = DnOf(*directory, e.id())->ToString();
    unit.leaf = true;
    std::set<uint32_t> uids;
    for (EntryId child : e.children()) {
      const Entry& c = directory->entry(child);
      if (has_class(c, org_unit)) unit.leaf = false;
      if (!has_class(c, person)) continue;
      for (const AttributeValue& av : c.values()) {
        if (av.attribute == uid_attr) {
          uids.insert(static_cast<uint32_t>(
              std::stoul(av.value.AsString().substr(1))));
        }
      }
    }
    unit.persons = static_cast<uint32_t>(uids.size());
    unit.first_person = uids.empty() ? 0 : *uids.begin();
    // Persons of a unit are numbered contiguously by the generator; the
    // truth file depends on it.
    if (!uids.empty() && *uids.rbegin() != unit.first_person + uids.size() - 1) {
      ok = false;
    }
    truth.num_persons += unit.persons;
    truth.units.push_back(std::move(unit));
  });
  if (!ok) {
    std::fprintf(stderr, "gen: person uids are not contiguous per unit\n");
    return 2;
  }

  const std::string dir = flags.Get("out");
  if (!WriteWholeFile(dir + "/directory.ldif", WriteLdif(*directory)) ||
      !WriteWholeFile(dir + "/truth.tsv", truth.Serialize())) {
    std::fprintf(stderr, "gen: cannot write into '%s'\n", dir.c_str());
    return 2;
  }
  std::printf("{\"entries\": %llu, \"persons\": %u, \"units\": %zu}\n",
              static_cast<unsigned long long>(truth.num_entries),
              truth.num_persons, truth.units.size());
  return 0;
}

}  // namespace perfbench
