#include "ldap/filter.h"

#include <charconv>

#include "util/string_util.h"

namespace ldapbound {

namespace {

/// Matcher that matches no entry: LDAP's "Undefined evaluates to FALSE"
/// result for items over unknown attributes or classes.
class NothingMatcher : public Matcher {
 public:
  bool Matches(const Entry&) const override { return false; }
  std::string ToString(const Vocabulary&) const override { return "(false)"; }
};

class FilterParser {
 public:
  FilterParser(std::string_view text, const Vocabulary& vocab)
      : text_(text), vocab_(vocab) {}

  Result<MatcherPtr> Run() {
    LDAPBOUND_ASSIGN_OR_RETURN(MatcherPtr m, Filter());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after filter");
    }
    return m;
  }

 private:
  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("filter position " + std::to_string(pos_) +
                                   ": " + msg);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  Result<MatcherPtr> Filter() {
    if (!Eat('(')) return Error("expected '('");
    LDAPBOUND_ASSIGN_OR_RETURN(MatcherPtr m, FilterComp());
    if (!Eat(')')) return Error("expected ')'");
    return m;
  }

  Result<MatcherPtr> FilterComp() {
    char c = Peek();
    if (c == '&' || c == '|') {
      ++pos_;
      std::vector<MatcherPtr> operands;
      while (Peek() == '(') {
        LDAPBOUND_ASSIGN_OR_RETURN(MatcherPtr m, Filter());
        operands.push_back(std::move(m));
      }
      if (operands.empty()) return Error("empty filter list");
      return c == '&' ? MatchAnd(std::move(operands))
                      : MatchOr(std::move(operands));
    }
    if (c == '!') {
      ++pos_;
      LDAPBOUND_ASSIGN_OR_RETURN(MatcherPtr m, Filter());
      return MatchNot(std::move(m));
    }
    return Item();
  }

  Result<MatcherPtr> Item() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '=' && text_[pos_] != '>' &&
           text_[pos_] != '<' && text_[pos_] != ')') {
      ++pos_;
    }
    std::string_view attr_name =
        StripWhitespace(text_.substr(start, pos_ - start));
    if (attr_name.empty()) return Error("expected attribute name");

    // Operator: = | >= | <=
    bool ge = false;
    bool le = false;
    if (pos_ < text_.size() && (text_[pos_] == '>' || text_[pos_] == '<')) {
      ge = text_[pos_] == '>';
      le = !ge;
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] != '=') {
      return Error("expected '=' after attribute name");
    }
    ++pos_;

    size_t vstart = pos_;
    while (pos_ < text_.size() && text_[pos_] != ')') ++pos_;
    std::string value(StripWhitespace(text_.substr(vstart, pos_ - vstart)));

    if (ge || le) {
      auto attr = vocab_.FindAttribute(attr_name);
      if (!attr.ok()) return NothingFilter();
      int64_t bound = 0;
      const char* b = value.data();
      auto [p, ec] = std::from_chars(b, b + value.size(), bound);
      if (ec != std::errc() || p != b + value.size()) {
        return Error("'" + value + "' is not an integer");
      }
      return MatcherPtr(std::make_shared<CompareMatcher>(
          *attr,
          ge ? CompareMatcher::Op::kGreaterOrEqual
             : CompareMatcher::Op::kLessOrEqual,
          bound));
    }

    // objectClass equality compiles to a class-membership test, and
    // objectClass presence to match-all: every entry has a class, though
    // no entry stores objectClass as a value.
    if (EqualsIgnoreCase(attr_name, "objectClass")) {
      if (value == "*") return MatchAll();
      if (value.find('*') == std::string::npos) {
        auto cls = vocab_.FindClass(value);
        if (!cls.ok()) return NothingFilter();
        return MatchClass(*cls);
      }
    }

    auto attr = vocab_.FindAttribute(attr_name);
    if (!attr.ok()) return NothingFilter();

    if (value == "*") return MatchAttrPresent(*attr);
    if (value.find('*') != std::string::npos) {
      if (vocab_.AttributeType(*attr) != ValueType::kString) {
        return Error("substring match requires a string attribute");
      }
      return MatcherPtr(std::make_shared<SubstringMatcher>(*attr, value));
    }
    auto parsed = Value::Parse(vocab_.AttributeType(*attr), value);
    if (!parsed.ok()) return parsed.status();
    return MatchAttrEquals(*attr, std::move(*parsed));
  }

  static Result<MatcherPtr> NothingFilter() {
    return MatcherPtr(std::make_shared<NothingMatcher>());
  }

  std::string_view text_;
  const Vocabulary& vocab_;
  size_t pos_ = 0;
};

}  // namespace

SubstringMatcher::SubstringMatcher(AttributeId attr, std::string pattern)
    : attr_(attr), pattern_(std::move(pattern)) {
  anchored_front_ = !pattern_.empty() && pattern_.front() != '*';
  anchored_back_ = !pattern_.empty() && pattern_.back() != '*';
  for (std::string_view piece : Split(pattern_, '*')) {
    if (!piece.empty()) pieces_.emplace_back(piece);
  }
}

namespace {

// True if `s` matches the wildcard pattern decomposed into `pieces`:
// anchored pieces at front/back, remaining pieces greedily in between.
bool WildcardMatch(std::string_view s, const std::vector<std::string>& pieces,
                   bool anchored_front, bool anchored_back) {
  if (pieces.empty()) return true;  // pattern was all '*'
  size_t first_middle = 0;
  size_t last_middle = pieces.size();
  size_t at = 0;
  size_t limit = s.size();
  if (anchored_front) {
    if (!StartsWith(s, pieces.front())) return false;
    at = pieces.front().size();
    first_middle = 1;
  }
  if (anchored_back && last_middle > first_middle) {
    const std::string& last = pieces.back();
    if (limit < at + last.size()) return false;
    if (s.substr(limit - last.size()) != last) return false;
    limit -= last.size();
    --last_middle;
  }
  for (size_t i = first_middle; i < last_middle; ++i) {
    const std::string& piece = pieces[i];
    size_t found = s.substr(0, limit).find(piece, at);
    if (found == std::string_view::npos) return false;
    at = found + piece.size();
  }
  return true;
}

}  // namespace

bool SubstringMatcher::Matches(const Entry& entry) const {
  for (const Value& v : entry.GetValues(attr_)) {
    if (!v.is_string()) continue;
    if (WildcardMatch(v.AsString(), pieces_, anchored_front_,
                      anchored_back_)) {
      return true;
    }
  }
  return false;
}

std::string SubstringMatcher::ToString(const Vocabulary& vocab) const {
  return vocab.AttributeName(attr_) + "=" + pattern_;
}

bool CompareMatcher::Matches(const Entry& entry) const {
  for (const Value& v : entry.GetValues(attr_)) {
    if (!v.is_integer()) continue;
    int64_t x = v.AsInteger();
    if (op_ == Op::kGreaterOrEqual ? x >= bound_ : x <= bound_) return true;
  }
  return false;
}

std::string CompareMatcher::ToString(const Vocabulary& vocab) const {
  return vocab.AttributeName(attr_) +
         (op_ == Op::kGreaterOrEqual ? ">=" : "<=") + std::to_string(bound_);
}

Result<MatcherPtr> ParseFilter(std::string_view text,
                               const Vocabulary& vocab) {
  return FilterParser(text, vocab).Run();
}

}  // namespace ldapbound
