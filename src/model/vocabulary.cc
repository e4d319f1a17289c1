#include "model/vocabulary.h"

#include "util/string_util.h"

namespace ldapbound {

Vocabulary::Vocabulary() {
  objectclass_attr_ =
      DefineAttribute("objectClass", ValueType::kString).value();
  top_class_ = InternClass("top");
}

Result<AttributeId> Vocabulary::DefineAttribute(std::string_view name,
                                                ValueType type,
                                                bool single_valued) {
  std::string key = ToLower(name);
  auto it = attribute_index_.find(key);
  if (it != attribute_index_.end()) {
    if (attribute_types_[it->second] != type) {
      return Status::AlreadyExists(
          "attribute '" + std::string(name) + "' already defined with type " +
          std::string(ValueTypeToString(attribute_types_[it->second])));
    }
    if ((attribute_single_[it->second] != 0) != single_valued) {
      return Status::AlreadyExists(
          "attribute '" + std::string(name) +
          "' already defined with a different single-valued declaration");
    }
    return it->second;
  }
  AttributeId id = static_cast<AttributeId>(attribute_names_.size());
  attribute_names_.emplace_back(name);
  attribute_types_.push_back(type);
  attribute_single_.push_back(single_valued ? 1 : 0);
  attribute_index_.emplace(std::move(key), id);
  return id;
}

AttributeId Vocabulary::InternAttribute(std::string_view name) {
  std::string key = ToLower(name);
  auto it = attribute_index_.find(key);
  if (it != attribute_index_.end()) return it->second;
  AttributeId id = static_cast<AttributeId>(attribute_names_.size());
  attribute_names_.emplace_back(name);
  attribute_types_.push_back(ValueType::kString);
  attribute_single_.push_back(0);
  attribute_index_.emplace(std::move(key), id);
  return id;
}

Result<AttributeId> Vocabulary::FindAttribute(std::string_view name) const {
  auto it = attribute_index_.find(ToLower(name));
  if (it == attribute_index_.end()) {
    return Status::NotFound("attribute not defined: " + std::string(name));
  }
  return it->second;
}

ClassId Vocabulary::InternClass(std::string_view name) {
  std::string key = ToLower(name);
  auto it = class_index_.find(key);
  if (it != class_index_.end()) return it->second;
  ClassId id = static_cast<ClassId>(class_names_.size());
  class_names_.emplace_back(name);
  class_index_.emplace(std::move(key), id);
  return id;
}

Result<ClassId> Vocabulary::FindClass(std::string_view name) const {
  auto it = class_index_.find(ToLower(name));
  if (it == class_index_.end()) {
    return Status::NotFound("object class not defined: " + std::string(name));
  }
  return it->second;
}

}  // namespace ldapbound
