#ifndef LDAPBOUND_MODEL_ENTRY_H_
#define LDAPBOUND_MODEL_ENTRY_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/entry_set.h"
#include "model/forest_index.h"
#include "model/value.h"
#include "model/vocabulary.h"
#include "util/cow.h"

namespace ldapbound {

/// One (attribute, value) pair of an entry's `val(r)` set.
struct AttributeValue {
  AttributeId attribute;
  Value value;

  friend bool operator==(const AttributeValue& a, const AttributeValue& b) {
    return a.attribute == b.attribute && a.value == b.value;
  }
  friend bool operator<(const AttributeValue& a, const AttributeValue& b) {
    if (a.attribute != b.attribute) return a.attribute < b.attribute;
    return a.value < b.value;
  }
};

/// An entry's content (Definition 2.1): its RDN, `class(r)` and `val(r)`.
/// One copy per entry version, held in the directory's content array and
/// shared by every snapshot of that version. Once published it is never
/// written again: Directory edits a clone (DESIGN.md §10).
struct EntryContent {
  /// Relative distinguished name, e.g. "uid=laks": a naming handle the
  /// paper abstracts away but a usable directory needs.
  std::string rdn;
  std::vector<ClassId> classes;  ///< `class(r)`: sorted, unique
  /// `val(r)` minus the implicit objectClass pairs; sorted, unique.
  std::vector<AttributeValue> values;

  bool HasClass(ClassId c) const {
    return std::binary_search(classes.begin(), classes.end(), c);
  }

  bool HasAttribute(AttributeId a) const {
    auto it = std::lower_bound(
        values.begin(), values.end(), a,
        [](const AttributeValue& av, AttributeId x) { return av.attribute < x; });
    return it != values.end() && it->attribute == a;
  }

  /// All values of attribute `a`, in sorted order.
  std::vector<Value> GetValues(AttributeId a) const {
    std::vector<Value> out;
    auto it = std::lower_bound(
        values.begin(), values.end(), a,
        [](const AttributeValue& av, AttributeId x) { return av.attribute < x; });
    for (; it != values.end() && it->attribute == a; ++it) {
      out.push_back(it->value);
    }
    return out;
  }

  /// True if some value of attribute `a` equals `v`.
  bool HasValue(AttributeId a, const Value& v) const {
    return std::binary_search(values.begin(), values.end(),
                              AttributeValue{a, v});
  }

  /// Number of distinct attributes present (not counting objectClass).
  size_t NumAttributes() const {
    size_t n = 0;
    AttributeId last = kInvalidAttributeId;
    for (const AttributeValue& av : values) {
      if (av.attribute != last) {
        ++n;
        last = av.attribute;
      }
    }
    return n;
  }
};

/// A directory entry (Definition 2.1): a node of the directory forest that
/// belongs to a finite non-empty set of object classes and holds a finite
/// set of (attribute, value) pairs.
///
/// Invariant 3(b) of the paper — `(objectClass, c) in val(r)` iff
/// `c in class(r)` — is maintained structurally: class membership is stored
/// once in `classes` and the entry's objectClass attribute values are those
/// class names; `Directory` keeps the two views in sync.
///
/// A small read-only view, returned by value by Directory::entry(): the
/// entry's id and where its directory keeps the forest (the ForestIndex
/// links) and the contents (one copy-on-write array by id). Nothing is
/// stored twice: each accessor reads the directory's current state, so a
/// view held across an edit reads the edit. Mutation goes through
/// Directory so the indexes stay valid.
class Entry {
 public:
  /// The contents by entry id: the only home of an entry's content.
  using ContentArray = CowVec<std::shared_ptr<EntryContent>>;

  EntryId id() const { return id_; }
  /// Parent entry, or kInvalidEntryId for roots.
  EntryId parent() const { return index_->parent(id_); }
  /// Children in insertion order: a forward range over the links.
  ForestIndex::ChildRange children() const { return index_->Children(id_); }

  /// The shared content of the entry's current version.
  const EntryContent& content() const { return *(*contents_)[id_]; }
  const std::string& rdn() const { return content().rdn; }
  const std::vector<ClassId>& classes() const { return content().classes; }
  const std::vector<AttributeValue>& values() const {
    return content().values;
  }
  bool HasClass(ClassId c) const { return content().HasClass(c); }
  bool HasAttribute(AttributeId a) const { return content().HasAttribute(a); }
  std::vector<Value> GetValues(AttributeId a) const {
    return content().GetValues(a);
  }
  bool HasValue(AttributeId a, const Value& v) const {
    return content().HasValue(a, v);
  }
  size_t NumAttributes() const { return content().NumAttributes(); }

 private:
  friend class Directory;
  Entry(const ForestIndex* index, const ContentArray* contents, EntryId id)
      : index_(index), contents_(contents), id_(id) {}

  const ForestIndex* index_;
  const ContentArray* contents_;
  EntryId id_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_MODEL_ENTRY_H_
