#ifndef LDAPBOUND_TESTS_TESTING_HELPERS_H_
#define LDAPBOUND_TESTS_TESTING_HELPERS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "model/directory.h"
#include "schema/directory_schema.h"

namespace ldapbound::testing {

/// A small fixed world used across tests:
///
///   core tree:  top ── org
///               top ── person ── engineer
///   auxiliary:  mailbox (allowed for person)
///   attributes: name (string, required by person)
///               ou (string, required by org)
///               age (integer, allowed for person)
///               active (boolean, allowed for org)
///               mail (string, allowed for mailbox)
struct SimpleWorld {
  std::shared_ptr<Vocabulary> vocab;
  DirectorySchema schema;

  ClassId top, org, person, engineer, mailbox;
  AttributeId name, ou, age, active, mail;

  explicit SimpleWorld()
      : vocab(std::make_shared<Vocabulary>()), schema(vocab) {
    top = vocab->top_class();
    org = vocab->InternClass("org");
    person = vocab->InternClass("person");
    engineer = vocab->InternClass("engineer");
    mailbox = vocab->InternClass("mailbox");

    name = vocab->DefineAttribute("name", ValueType::kString).value();
    ou = vocab->DefineAttribute("ou", ValueType::kString).value();
    age = vocab->DefineAttribute("age", ValueType::kInteger).value();
    active = vocab->DefineAttribute("active", ValueType::kBoolean).value();
    mail = vocab->DefineAttribute("mail", ValueType::kString).value();

    ClassSchema& classes = schema.mutable_classes();
    classes.AddCoreClass(org, top);
    classes.AddCoreClass(person, top);
    classes.AddCoreClass(engineer, person);
    classes.AddAuxiliaryClass(mailbox);
    classes.AllowAuxiliary(person, mailbox);

    AttributeSchema& attrs = schema.mutable_attributes();
    attrs.AddRequired(person, name);
    attrs.AddAllowed(person, age);
    attrs.AddRequired(org, ou);
    attrs.AddAllowed(org, active);
    attrs.AddAllowed(mailbox, mail);
  }
};

/// Adds an entry with the given classes (by id) and no values; CHECK-fails
/// on error. Returns the new id.
inline EntryId AddBare(Directory& directory, EntryId parent,
                       const std::string& rdn, std::vector<ClassId> classes) {
  auto result = directory.AddEntry(parent, rdn, std::move(classes), {});
  if (!result.ok()) {
    // GTest-friendly hard failure.
    ADD_FAILURE() << "AddBare failed: " << result.status().ToString();
    abort();
  }
  return *result;
}

/// The ids of a sibling range (Entry::children(), Directory::roots()),
/// in sibling order.
template <typename Range>
std::vector<EntryId> Ids(const Range& range) {
  return std::vector<EntryId>(range.begin(), range.end());
}

/// The number a /statusz body renders as `"key":N` directly inside its
/// `"section":{...}`; UINT64_MAX when the section or the key is missing.
inline uint64_t StatuszCount(const std::string& json,
                             const std::string& section,
                             const std::string& key) {
  size_t open = json.find("\"" + section + "\":{");
  if (open == std::string::npos) return UINT64_MAX;
  open = json.find('{', open);
  size_t close = open;
  for (int depth = 0; close < json.size(); ++close) {
    if (json[close] == '{') ++depth;
    if (json[close] == '}' && --depth == 0) break;
  }
  const std::string body = json.substr(open, close - open);
  const std::string needle = "\"" + key + "\":";
  size_t at = body.find(needle);
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace ldapbound::testing

#endif  // LDAPBOUND_TESTS_TESTING_HELPERS_H_
