#include "query/matcher.h"

namespace ldapbound {

std::string ClassMatcher::ToString(const Vocabulary& vocab) const {
  return "objectClass=" + vocab.ClassName(cls_);
}

std::string AttrEqualsMatcher::ToString(const Vocabulary& vocab) const {
  return vocab.AttributeName(attr_) + "=" + value_.ToString();
}

std::string AttrPresentMatcher::ToString(const Vocabulary& vocab) const {
  return vocab.AttributeName(attr_) + "=*";
}

std::string AndMatcher::ToString(const Vocabulary& vocab) const {
  std::string out = "(&";
  for (const MatcherPtr& m : operands_) out += m->ToString(vocab);
  out += ")";
  return out;
}

std::string OrMatcher::ToString(const Vocabulary& vocab) const {
  std::string out = "(|";
  for (const MatcherPtr& m : operands_) out += m->ToString(vocab);
  out += ")";
  return out;
}

MatcherPtr MatchClass(ClassId cls) {
  return std::make_shared<ClassMatcher>(cls);
}
MatcherPtr MatchAttrEquals(AttributeId attr, Value value) {
  return std::make_shared<AttrEqualsMatcher>(attr, std::move(value));
}
MatcherPtr MatchAttrPresent(AttributeId attr) {
  return std::make_shared<AttrPresentMatcher>(attr);
}
MatcherPtr MatchAll() { return std::make_shared<TrueMatcher>(); }
MatcherPtr MatchNot(MatcherPtr inner) {
  return std::make_shared<NotMatcher>(std::move(inner));
}
MatcherPtr MatchAnd(std::vector<MatcherPtr> operands) {
  return std::make_shared<AndMatcher>(std::move(operands));
}
MatcherPtr MatchOr(std::vector<MatcherPtr> operands) {
  return std::make_shared<OrMatcher>(std::move(operands));
}

}  // namespace ldapbound
