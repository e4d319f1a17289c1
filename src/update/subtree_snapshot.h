#ifndef LDAPBOUND_UPDATE_SUBTREE_SNAPSHOT_H_
#define LDAPBOUND_UPDATE_SUBTREE_SNAPSHOT_H_

#include <string>
#include <vector>

#include "model/directory.h"

namespace ldapbound {

/// A detached copy of a directory subtree: enough to re-create it under any
/// parent, in the same or another directory. Federation uses it to carve
/// naming contexts out of a directory and to mount them back into the
/// unified view.
class SubtreeSnapshot {
 public:
  /// Captures the subtree rooted at `root` (which must be alive).
  static Result<SubtreeSnapshot> Capture(const Directory& directory,
                                         EntryId root);

  /// Re-creates the subtree under `parent` (kInvalidEntryId for a root).
  /// Returns the ids of the created entries in creation (preorder) order.
  /// Note ids are freshly allocated — snapshots do not preserve ids.
  Result<std::vector<EntryId>> Restore(Directory* directory,
                                       EntryId parent) const;

  /// Number of entries captured.
  size_t Size() const { return nodes_.size(); }

  /// The RDN of the captured subtree's root.
  const std::string& RootRdn() const { return nodes_.front().content.rdn; }

 private:
  struct Node {
    EntryContent content;  // a copy: the captured entry may change later
    // Index into nodes_ of the parent; -1 for the subtree root.
    int parent = -1;
  };

  std::vector<Node> nodes_;  // preorder: parents precede children
};

}  // namespace ldapbound

#endif  // LDAPBOUND_UPDATE_SUBTREE_SNAPSHOT_H_
