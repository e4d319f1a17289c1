#include "update/subtree_snapshot.h"

#include <unordered_map>

namespace ldapbound {

Result<SubtreeSnapshot> SubtreeSnapshot::Capture(const Directory& directory,
                                                 EntryId root) {
  if (!directory.IsAlive(root)) {
    return Status::NotFound("subtree root is not alive");
  }
  SubtreeSnapshot snapshot;
  std::vector<EntryId> order = directory.SubtreeEntries(root);
  std::unordered_map<EntryId, int> position;
  position.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const Entry& e = directory.entry(order[i]);
    Node node;
    node.content = e.content();
    node.parent = (i == 0) ? -1 : position.at(e.parent());
    position.emplace(order[i], static_cast<int>(i));
    snapshot.nodes_.push_back(std::move(node));
  }
  return snapshot;
}

Result<std::vector<EntryId>> SubtreeSnapshot::Restore(Directory* directory,
                                                      EntryId parent) const {
  std::vector<EntryId> created;
  created.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    EntryId p = (node.parent < 0) ? parent : created[node.parent];
    const EntryContent& c = node.content;
    LDAPBOUND_ASSIGN_OR_RETURN(
        EntryId id, directory->AddEntry(p, c.rdn, c.classes, c.values));
    created.push_back(id);
  }
  return created;
}

}  // namespace ldapbound
