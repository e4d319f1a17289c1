#ifndef LDAPBOUND_MODEL_AXIS_H_
#define LDAPBOUND_MODEL_AXIS_H_

#include <cstdint>
#include <string_view>

namespace ldapbound {

/// The four structural axes shared by the structure schema's relationships
/// (Definition 2.4) and the hierarchical query language's operators.
enum class Axis : uint8_t {
  kChild = 0,
  kParent = 1,
  kDescendant = 2,
  kAncestor = 3,
};

/// Paper-style one-letter operator name: c / p / d / a.
constexpr std::string_view AxisToString(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "c";
    case Axis::kParent:
      return "p";
    case Axis::kDescendant:
      return "d";
    case Axis::kAncestor:
      return "a";
  }
  return "?";
}

/// Long name: child / parent / descendant / ancestor.
constexpr std::string_view AxisToWord(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kParent:
      return "parent";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kAncestor:
      return "ancestor";
  }
  return "?";
}

/// The four axes in enum order, for sweep loops.
inline constexpr Axis kAllAxes[] = {Axis::kChild, Axis::kParent,
                                    Axis::kDescendant, Axis::kAncestor};

/// The downward axes permitted in forbidden relationships (Ef).
inline constexpr Axis kForbiddenAxes[] = {Axis::kChild, Axis::kDescendant};

/// LDAP search scopes: the base entry alone, its direct children, or its
/// whole subtree (including the base) — the "retrieval typically scoped to
/// some subtree" of the paper's introduction.
enum class SearchScope : uint8_t {
  kBase = 0,
  kOneLevel = 1,
  kSubtree = 2,
};

}  // namespace ldapbound

#endif  // LDAPBOUND_MODEL_AXIS_H_
