#ifndef LDAPBOUND_SCHEMA_DIRECTORY_SCHEMA_H_
#define LDAPBOUND_SCHEMA_DIRECTORY_SCHEMA_H_

#include <memory>

#include "schema/attribute_schema.h"
#include "schema/class_schema.h"
#include "schema/structure_schema.h"

namespace ldapbound {

/// A bounding-schema `S = (A, H, S)` (Definition 2.5): the attribute
/// schema, the class schema and the structure schema, over a shared
/// vocabulary. The vocabulary must be the same object used by directories
/// validated against this schema, so ids are directly comparable. The
/// schema only reads it: whoever builds a schema defines its names through
/// the vocabulary it holds (ParseDirectorySchema, MakeRandomSchema).
class DirectorySchema {
 public:
  explicit DirectorySchema(std::shared_ptr<const Vocabulary> vocab)
      : vocab_(std::move(vocab)), classes_(vocab_->top_class()) {}

  DirectorySchema(const DirectorySchema&) = delete;
  DirectorySchema& operator=(const DirectorySchema&) = delete;
  DirectorySchema(DirectorySchema&&) = default;
  DirectorySchema& operator=(DirectorySchema&&) = default;

  const Vocabulary& vocab() const { return *vocab_; }
  const std::shared_ptr<const Vocabulary>& vocab_ptr() const {
    return vocab_;
  }

  const AttributeSchema& attributes() const { return attributes_; }
  AttributeSchema& mutable_attributes() { return attributes_; }

  const ClassSchema& classes() const { return classes_; }
  ClassSchema& mutable_classes() { return classes_; }

  const StructureSchema& structure() const { return structure_; }
  StructureSchema& mutable_structure() { return structure_; }

  /// Declares `attr` a key: its values must be unique across ALL entries
  /// of the directory. Per §6.1, directory keys are global — the loose
  /// notion of object class means uniqueness cannot be scoped to a class.
  void AddKeyAttribute(AttributeId attr);

  /// Key attributes, ascending.
  const std::vector<AttributeId>& key_attributes() const { return keys_; }

  /// Well-formedness (not consistency — see ConsistencyChecker for that):
  ///  - classes mentioned by the attribute schema are in the class schema;
  ///  - structure-schema classes are *core* classes (Definition 2.4);
  ///  - all ids are within the vocabulary's ranges.
  Status Validate() const;

 private:
  std::shared_ptr<const Vocabulary> vocab_;
  AttributeSchema attributes_;
  ClassSchema classes_;
  StructureSchema structure_;
  std::vector<AttributeId> keys_;  // sorted, unique
};

}  // namespace ldapbound

#endif  // LDAPBOUND_SCHEMA_DIRECTORY_SCHEMA_H_
