#ifndef LDAPBOUND_MODEL_VOCABULARY_H_
#define LDAPBOUND_MODEL_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model/value.h"
#include "util/result.h"

namespace ldapbound {

/// Dense identifier for an interned attribute name.
using AttributeId = uint32_t;
/// Dense identifier for an interned object-class name.
using ClassId = uint32_t;

inline constexpr AttributeId kInvalidAttributeId = ~AttributeId{0};
inline constexpr ClassId kInvalidClassId = ~ClassId{0};

/// The shared namespace of attribute and object-class names (the paper's
/// infinite sets `A` and `C`, plus the typing function `tau : A -> T`).
///
/// LDAP names are case-insensitive; the vocabulary canonicalizes lookups but
/// preserves the first-seen spelling for display. A `Vocabulary` is shared
/// (via shared_ptr) between a `Directory` and the `DirectorySchema` that
/// governs it, so AttributeId / ClassId values are directly comparable.
///
/// Names are defined only through a mutable vocabulary: the schema parser,
/// the generators, and a `Directory` built over a
/// `shared_ptr<Vocabulary>` (which interns the names its entries bring).
/// `DirectorySchema`, `DirectoryServer` and a `Directory` built over a
/// `shared_ptr<const Vocabulary>` hold it const. Once no one holds it
/// mutable any more (a server's, from `Create` on), the vocabulary is
/// frozen: any thread may read it without a lock.
///
/// Two names are pre-interned:
///  - attribute "objectClass" (string-typed) as `objectclass_attr()`;
///  - class "top", the root of every core-class hierarchy, as `top_class()`.
class Vocabulary {
 public:
  Vocabulary();

  Vocabulary(const Vocabulary&) = delete;
  Vocabulary& operator=(const Vocabulary&) = delete;

  /// Interns `name` as an attribute of type `type`. `single_valued`
  /// attributes admit at most one value per entry (the LDAP "single-valued"
  /// declaration §6.1 mentions). Re-interning with the same definition
  /// returns the existing id; a conflicting one is an error.
  Result<AttributeId> DefineAttribute(std::string_view name, ValueType type,
                                      bool single_valued = false);

  /// Interns `name` with string type if new; returns the existing id
  /// (whatever its type) if already present.
  AttributeId InternAttribute(std::string_view name);

  /// Looks up an attribute without interning.
  Result<AttributeId> FindAttribute(std::string_view name) const;

  /// Interns an object-class name (classes are untyped labels here; their
  /// core/auxiliary nature is part of the class schema, not the vocabulary).
  ClassId InternClass(std::string_view name);

  /// Looks up a class without interning.
  Result<ClassId> FindClass(std::string_view name) const;

  const std::string& AttributeName(AttributeId id) const {
    return attribute_names_[id];
  }
  ValueType AttributeType(AttributeId id) const {
    return attribute_types_[id];
  }
  bool IsSingleValued(AttributeId id) const {
    return attribute_single_[id] != 0;
  }
  const std::string& ClassName(ClassId id) const { return class_names_[id]; }

  size_t num_attributes() const { return attribute_names_.size(); }
  size_t num_classes() const { return class_names_.size(); }

  AttributeId objectclass_attr() const { return objectclass_attr_; }
  ClassId top_class() const { return top_class_; }

 private:
  std::vector<std::string> attribute_names_;
  std::vector<ValueType> attribute_types_;
  std::vector<uint8_t> attribute_single_;
  std::unordered_map<std::string, AttributeId> attribute_index_;  // lowercase

  std::vector<std::string> class_names_;
  std::unordered_map<std::string, ClassId> class_index_;  // lowercase

  AttributeId objectclass_attr_;
  ClassId top_class_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_MODEL_VOCABULARY_H_
