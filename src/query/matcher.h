#ifndef LDAPBOUND_QUERY_MATCHER_H_
#define LDAPBOUND_QUERY_MATCHER_H_

#include <memory>
#include <string>
#include <vector>

#include "model/directory.h"
#include "model/entry.h"
#include "model/value.h"
#include "model/vocabulary.h"

namespace ldapbound {

/// A per-entry boolean condition: the atomic selection predicate of the
/// hierarchical query language. Matchers are immutable and shared between
/// query nodes via shared_ptr<const Matcher>.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// True if the condition holds for `entry`.
  virtual bool Matches(const Entry& entry) const = 0;

  /// Renders the condition in the paper's concrete syntax, e.g.
  /// "objectClass=person".
  virtual std::string ToString(const Vocabulary& vocab) const = 0;
};

using MatcherPtr = std::shared_ptr<const Matcher>;

/// Matches entries that belong to a given object class, i.e. the paper's
/// ubiquitous `(objectClass=c)` selection.
class ClassMatcher : public Matcher {
 public:
  explicit ClassMatcher(ClassId cls) : cls_(cls) {}

  bool Matches(const Entry& entry) const override {
    return entry.HasClass(cls_);
  }
  std::string ToString(const Vocabulary& vocab) const override;

  ClassId cls() const { return cls_; }

 private:
  ClassId cls_;
};

/// Matches entries having a specific (attribute, value) pair.
class AttrEqualsMatcher : public Matcher {
 public:
  AttrEqualsMatcher(AttributeId attr, Value value)
      : attr_(attr), value_(std::move(value)) {}

  bool Matches(const Entry& entry) const override {
    return entry.HasValue(attr_, value_);
  }
  std::string ToString(const Vocabulary& vocab) const override;

  AttributeId attr() const { return attr_; }
  const Value& value() const { return value_; }

 private:
  AttributeId attr_;
  Value value_;
};

/// Matches entries having at least one value for an attribute (the LDAP
/// `(attr=*)` presence filter).
class AttrPresentMatcher : public Matcher {
 public:
  explicit AttrPresentMatcher(AttributeId attr) : attr_(attr) {}

  bool Matches(const Entry& entry) const override {
    return entry.HasAttribute(attr_);
  }
  std::string ToString(const Vocabulary& vocab) const override;

 private:
  AttributeId attr_;
};

/// Matches every entry.
class TrueMatcher : public Matcher {
 public:
  bool Matches(const Entry&) const override { return true; }
  std::string ToString(const Vocabulary&) const override { return "*"; }
};

/// Negation.
class NotMatcher : public Matcher {
 public:
  explicit NotMatcher(MatcherPtr inner) : inner_(std::move(inner)) {}

  bool Matches(const Entry& entry) const override {
    return !inner_->Matches(entry);
  }
  std::string ToString(const Vocabulary& vocab) const override {
    return "(!" + inner_->ToString(vocab) + ")";
  }

 private:
  MatcherPtr inner_;
};

/// Conjunction of sub-conditions.
class AndMatcher : public Matcher {
 public:
  explicit AndMatcher(std::vector<MatcherPtr> operands)
      : operands_(std::move(operands)) {}

  bool Matches(const Entry& entry) const override {
    for (const MatcherPtr& m : operands_) {
      if (!m->Matches(entry)) return false;
    }
    return true;
  }
  std::string ToString(const Vocabulary& vocab) const override;

 private:
  std::vector<MatcherPtr> operands_;
};

/// Disjunction of sub-conditions.
class OrMatcher : public Matcher {
 public:
  explicit OrMatcher(std::vector<MatcherPtr> operands)
      : operands_(std::move(operands)) {}

  bool Matches(const Entry& entry) const override {
    for (const MatcherPtr& m : operands_) {
      if (m->Matches(entry)) return true;
    }
    return false;
  }
  std::string ToString(const Vocabulary& vocab) const override;

 private:
  std::vector<MatcherPtr> operands_;
};

/// Convenience factories.
MatcherPtr MatchClass(ClassId cls);
MatcherPtr MatchAttrEquals(AttributeId attr, Value value);
MatcherPtr MatchAttrPresent(AttributeId attr);
MatcherPtr MatchAll();
MatcherPtr MatchNot(MatcherPtr inner);
MatcherPtr MatchAnd(std::vector<MatcherPtr> operands);
MatcherPtr MatchOr(std::vector<MatcherPtr> operands);

}  // namespace ldapbound

#endif  // LDAPBOUND_QUERY_MATCHER_H_
