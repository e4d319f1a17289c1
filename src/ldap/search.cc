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

  if (base == kInvalidEntryId) {
    // Whole forest. kBase on the (virtual) root above the forest matches
    // nothing; kOneLevel yields the roots; kSubtree everything.
    switch (scope) {
      case SearchScope::kBase:
        break;
      case SearchScope::kOneLevel:
        for (EntryId root : directory.roots()) consider(root);
        break;
      case SearchScope::kSubtree:
        for (EntryId root : directory.roots()) {
          for (EntryId id : directory.SubtreeEntries(root)) consider(id);
        }
        break;
    }
    return out;
  }

  switch (scope) {
    case SearchScope::kBase:
      consider(base);
      break;
    case SearchScope::kOneLevel:
      for (EntryId child : directory.entry(base).children()) consider(child);
      break;
    case SearchScope::kSubtree:
      for (EntryId id : directory.SubtreeEntries(base)) consider(id);
      break;
  }
  return out;
}

}  // namespace ldapbound
