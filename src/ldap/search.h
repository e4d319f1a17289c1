#ifndef LDAPBOUND_LDAP_SEARCH_H_
#define LDAPBOUND_LDAP_SEARCH_H_

#include <vector>

#include "ldap/dn.h"
#include "model/axis.h"
#include "model/directory.h"
#include "query/matcher.h"

namespace ldapbound {

/// A directory search: filter evaluation under a scope rooted at a base
/// entry (named by DN or by id).
struct SearchRequest {
  DistinguishedName base;          ///< empty DN = search the whole forest
  SearchScope scope = SearchScope::kSubtree;
  MatcherPtr filter;               ///< null = match all
};

/// Runs the search, returning matching entry ids in preorder.
/// NotFound if the base DN does not resolve.
Result<std::vector<EntryId>> Search(const Directory& directory,
                                    const SearchRequest& request);

/// Id-based variant: base == kInvalidEntryId searches the whole forest.
Result<std::vector<EntryId>> SearchFrom(const Directory& directory,
                                        EntryId base, SearchScope scope,
                                        const MatcherPtr& filter);

}  // namespace ldapbound

#endif  // LDAPBOUND_LDAP_SEARCH_H_
