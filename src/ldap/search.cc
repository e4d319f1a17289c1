#include "ldap/search.h"

namespace ldapbound {

Result<std::vector<EntryId>> Search(const Directory& directory,
                                    const SearchRequest& request) {
  EntryId base = kInvalidEntryId;
  if (!request.base.IsEmpty()) {
    LDAPBOUND_ASSIGN_OR_RETURN(base, ResolveDn(directory, request.base));
  }
  return SearchFrom(directory, base, request.scope, request.filter);
}

Result<std::vector<EntryId>> SearchFrom(const Directory& directory,
                                        EntryId base, SearchScope scope,
                                        const MatcherPtr& filter) {
  if (base != kInvalidEntryId && !directory.IsAlive(base)) {
    return Status::NotFound("search base entry is not alive");
  }
  std::vector<EntryId> out;
  auto consider = [&](EntryId id) {
    if (filter == nullptr || filter->Matches(directory.entry(id))) {
      out.push_back(id);
    }
  };

  // Without a base, the whole forest: kBase on the (virtual) root above
  // it matches nothing, kOneLevel yields the roots, kSubtree everything.
  switch (scope) {
    case SearchScope::kBase:
      if (base != kInvalidEntryId) consider(base);
      break;
    case SearchScope::kOneLevel:
      for (EntryId child : directory.GetIndex().Children(base)) consider(child);
      break;
    case SearchScope::kSubtree:
      for (EntryId id : directory.SubtreeEntries(base)) consider(id);
      break;
  }
  return out;
}

}  // namespace ldapbound
