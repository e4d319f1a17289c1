#include "model/directory.h"

#include <algorithm>

#include "util/string_util.h"

namespace ldapbound {

Directory::Directory(std::shared_ptr<Vocabulary> vocab)
    : Directory(std::shared_ptr<const Vocabulary>(vocab)) {
  interning_ = vocab.get();
}

Directory::Directory(std::shared_ptr<const Vocabulary> vocab)
    : vocab_(std::move(vocab)),
      store_(std::make_unique<SnapshotStore>(EpochManager::Default())) {
  PublishSnapshot();
}

Result<ClassId> Directory::ResolveClass(std::string_view name) {
  if (interning_ != nullptr) return interning_->InternClass(name);
  if (auto cls = vocab_->FindClass(name); cls.ok()) return cls;
  return Status::Illegal("class '" + std::string(name) +
                         std::string(kUnknownClassRefusal));
}

Result<AttributeId> Directory::ResolveAttribute(std::string_view name) {
  if (interning_ != nullptr) return interning_->InternAttribute(name);
  if (auto attr = vocab_->FindAttribute(name); attr.ok()) return attr;
  return Status::Illegal("attribute '" + std::string(name) +
                         std::string(kUnknownAttributeRefusal));
}

Status Directory::CheckAlive(EntryId id) const {
  if (!IsAlive(id)) {
    return Status::NotFound("no such entry: id " + std::to_string(id));
  }
  return Status::OK();
}

std::string Directory::RdnKey(EntryId parent, std::string_view rdn) {
  return SnapshotRdnKey(parent, rdn);
}

Result<EntryId> Directory::AddEntry(EntryId parent, std::string rdn,
                                    std::vector<ClassId> classes,
                                    std::vector<AttributeValue> values) {
  if (parent != kInvalidEntryId) {
    LDAPBOUND_RETURN_IF_ERROR(CheckAlive(parent));
  }
  std::string rdn_key = RdnKey(parent, rdn);
  if (rdn_index_.Find(rdn_key) != nullptr) {
    return Status::AlreadyExists("sibling with RDN '" + rdn +
                                 "' already exists");
  }

  // Fold explicit objectClass values into class memberships (Def. 2.1 3(b));
  // type-check everything else.
  const AttributeId oc = vocab_->objectclass_attr();
  std::vector<AttributeValue> kept;
  kept.reserve(values.size());
  for (AttributeValue& av : values) {
    if (av.attribute == oc) {
      if (!av.value.is_string()) {
        return Status::InvalidArgument("objectClass value must be a string");
      }
      LDAPBOUND_ASSIGN_OR_RETURN(ClassId cls,
                                 ResolveClass(av.value.AsString()));
      classes.push_back(cls);
      continue;
    }
    if (av.attribute >= vocab_->num_attributes()) {
      return Status::OutOfRange("attribute id out of range");
    }
    if (av.value.type() != vocab_->AttributeType(av.attribute)) {
      return Status::InvalidArgument(
          "value '" + av.value.ToString() + "' has wrong type for attribute " +
          vocab_->AttributeName(av.attribute));
    }
    kept.push_back(std::move(av));
  }
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  if (classes.empty()) {
    return Status::InvalidArgument(
        "an entry must belong to at least one object class");
  }
  for (ClassId c : classes) {
    if (c >= vocab_->num_classes()) {
      return Status::OutOfRange("class id out of range");
    }
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  for (size_t i = 1; i < kept.size(); ++i) {
    if (kept[i].attribute == kept[i - 1].attribute &&
        vocab_->IsSingleValued(kept[i].attribute)) {
      return Status::InvalidArgument(
          "attribute " + vocab_->AttributeName(kept[i].attribute) +
          " is single-valued");
    }
  }

  EntryId id = static_cast<EntryId>(contents_.size());
  contents_.Resize(size_t{id} + 1, nullptr);
  // Past the last publish's size: written in place, no chunk clone.
  const EntryContent& content =
      *(contents_.Mutable(id) = std::make_shared<EntryContent>(EntryContent{
            std::move(rdn), std::move(classes), std::move(kept)}));
  alive_.Insert(id);
  rdn_index_.Set(std::move(rdn_key), id);
  index_.OnInsert(parent, id);
  for (ClassId c : content.classes) TrackClass(id, c, true);
  for (const AttributeValue& av : content.values) {
    TrackValue(id, av.attribute, av.value, true);
  }
  ++version_;
  return id;
}

Result<EntryId> Directory::AddEntryFromSpec(EntryId parent,
                                            const EntrySpec& spec) {
  std::vector<ClassId> classes;
  classes.reserve(spec.classes.size());
  for (const std::string& name : spec.classes) {
    LDAPBOUND_ASSIGN_OR_RETURN(ClassId cls, ResolveClass(name));
    classes.push_back(cls);
  }
  std::vector<AttributeValue> values;
  values.reserve(spec.values.size());
  for (const auto& [attr_name, text] : spec.values) {
    LDAPBOUND_ASSIGN_OR_RETURN(AttributeId attr, ResolveAttribute(attr_name));
    LDAPBOUND_ASSIGN_OR_RETURN(
        Value v, Value::Parse(vocab_->AttributeType(attr), text));
    values.push_back(AttributeValue{attr, std::move(v)});
  }
  return AddEntry(parent, spec.rdn, std::move(classes), std::move(values));
}

Status Directory::AddValue(EntryId id, AttributeId attr, Value value) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  if (attr == vocab_->objectclass_attr()) {
    if (!value.is_string()) {
      return Status::InvalidArgument("objectClass value must be a string");
    }
    LDAPBOUND_ASSIGN_OR_RETURN(ClassId cls, ResolveClass(value.AsString()));
    return AddClass(id, cls);
  }
  if (attr >= vocab_->num_attributes()) {
    return Status::OutOfRange("attribute id out of range");
  }
  if (value.type() != vocab_->AttributeType(attr)) {
    return Status::InvalidArgument("value '" + value.ToString() +
                                   "' has wrong type for attribute " +
                                   vocab_->AttributeName(attr));
  }
  const EntryContent& e = *contents_[id];
  if (e.HasValue(attr, value)) return Status::OK();
  if (vocab_->IsSingleValued(attr) && e.HasAttribute(attr)) {
    return Status::FailedPrecondition("attribute " +
                                      vocab_->AttributeName(attr) +
                                      " is single-valued");
  }
  AttributeValue av{attr, std::move(value)};
  std::vector<AttributeValue>& values = MutableContent(id).values;
  auto it = values.insert(std::lower_bound(values.begin(), values.end(), av),
                          std::move(av));
  TrackValue(id, attr, it->value, true);
  ++version_;
  return Status::OK();
}

Status Directory::RemoveValue(EntryId id, AttributeId attr,
                              const Value& value) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  if (attr == vocab_->objectclass_attr()) {
    if (!value.is_string()) {
      return Status::InvalidArgument("objectClass value must be a string");
    }
    LDAPBOUND_ASSIGN_OR_RETURN(ClassId c, vocab_->FindClass(value.AsString()));
    return RemoveClass(id, c);
  }
  if (!contents_[id]->HasValue(attr, value)) {
    return Status::NotFound("no such (attribute, value) pair");
  }
  AttributeValue av{attr, value};
  std::vector<AttributeValue>& values = MutableContent(id).values;
  values.erase(std::lower_bound(values.begin(), values.end(), av));
  TrackValue(id, attr, av.value, false);
  ++version_;
  return Status::OK();
}

Status Directory::AddClass(EntryId id, ClassId cls) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  if (cls >= vocab_->num_classes()) {
    return Status::OutOfRange("class id out of range");
  }
  if (contents_[id]->HasClass(cls)) return Status::OK();
  std::vector<ClassId>& classes = MutableContent(id).classes;
  classes.insert(std::lower_bound(classes.begin(), classes.end(), cls), cls);
  TrackClass(id, cls, true);
  ++version_;
  return Status::OK();
}

Status Directory::RemoveClass(EntryId id, ClassId cls) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  const EntryContent& e = *contents_[id];
  if (!e.HasClass(cls)) {
    return Status::NotFound("entry does not belong to class");
  }
  if (e.classes.size() == 1) {
    return Status::FailedPrecondition(
        "an entry must belong to at least one object class");
  }
  std::vector<ClassId>& classes = MutableContent(id).classes;
  classes.erase(std::lower_bound(classes.begin(), classes.end(), cls));
  TrackClass(id, cls, false);
  ++version_;
  return Status::OK();
}

Status Directory::MoveSubtree(EntryId id, EntryId new_parent) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  if (new_parent != kInvalidEntryId) {
    LDAPBOUND_RETURN_IF_ERROR(CheckAlive(new_parent));
    // The new parent must not be inside the moved subtree.
    for (EntryId a = new_parent; a != kInvalidEntryId;
         a = index_.parent(a)) {
      if (a == id) {
        return Status::InvalidArgument(
            "cannot move an entry under its own subtree");
      }
    }
  }
  const EntryId old_parent = index_.parent(id);
  if (old_parent == new_parent) return Status::OK();
  const std::string& rdn = contents_[id]->rdn;
  if (FindChildByRdn(new_parent, rdn) != kInvalidEntryId) {
    return Status::AlreadyExists("sibling with RDN '" + rdn +
                                 "' already exists at the destination");
  }
  rdn_index_.Erase(RdnKey(old_parent, rdn));
  rdn_index_.Set(RdnKey(new_parent, rdn), id);
  index_.OnMove(id, new_parent);
  ++version_;
  return Status::OK();
}

Status Directory::Rename(EntryId id, std::string new_rdn) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  const EntryId parent = index_.parent(id);
  const std::string& rdn = contents_[id]->rdn;
  if (!EqualsIgnoreCase(rdn, new_rdn)) {  // else: same index key
    if (FindChildByRdn(parent, new_rdn) != kInvalidEntryId) {
      return Status::AlreadyExists("sibling with RDN '" + new_rdn +
                                   "' already exists");
    }
    rdn_index_.Erase(RdnKey(parent, rdn));
    rdn_index_.Set(RdnKey(parent, new_rdn), id);
  }
  MutableContent(id).rdn = std::move(new_rdn);
  ++version_;
  return Status::OK();
}

Status Directory::DeleteLeaf(EntryId id) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  ForestIndex::ChildRange children = index_.Children(id);
  if (!children.empty()) {
    return Status::FailedPrecondition(
        "only leaf entries can be deleted (entry has " +
        std::to_string(std::distance(children.begin(), children.end())) +
        " children)");
  }
  alive_.Erase(id);
  // The slot keeps its content: a tombstoned entry() stays readable.
  const EntryContent& e = *contents_[id];
  for (ClassId c : e.classes) TrackClass(id, c, false);
  for (const AttributeValue& av : e.values) {
    TrackValue(id, av.attribute, av.value, false);
  }
  rdn_index_.Erase(RdnKey(index_.parent(id), e.rdn));
  index_.OnErase(id);
  ++version_;
  return Status::OK();
}

Status Directory::DeleteSubtree(EntryId id) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  std::vector<EntryId> order = SubtreeEntries(id);
  // Delete leaves first: reverse preorder is a valid bottom-up order.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    LDAPBOUND_RETURN_IF_ERROR(DeleteLeaf(*it));
  }
  return Status::OK();
}

EntryId Directory::FindChildByRdn(EntryId parent,
                                  std::string_view rdn) const {
  const EntryId* found = rdn_index_.Find(RdnKey(parent, rdn));
  return found == nullptr ? kInvalidEntryId : *found;
}

std::vector<EntryId> Directory::SubtreeEntries(EntryId id) const {
  std::vector<EntryId> out;
  if (id != kInvalidEntryId && !IsAlive(id)) return out;
  for (ForestIndex::Walk w = index_.Preorder(id); !w.done(); w.Next()) {
    out.push_back(w.id());
  }
  return out;
}

void Directory::TrackClass(EntryId id, ClassId cls, bool add) {
  // A frozen posting's copy shares its chunks: the write below clones
  // the one it touches.
  ClassPosting& posting = by_class_.Mutable(
      cls, [](const ClassPosting* frozen) {
        return frozen != nullptr ? *frozen : ClassPosting{};
      });
  EntrySet& set = posting.members;
  if (set.Contains(id) == add) return;
  if (add) {
    set.Insert(id);
    ++posting.count;
  } else {
    set.Erase(id);
    // Drained: leave the mirror, as TrackValue's postings do.
    if (--posting.count == 0) by_class_.Erase(cls);
  }
}

void Directory::TrackValue(EntryId id, AttributeId attr, const Value& value,
                           bool add) {
  using Posting = std::vector<EntryId>;
  SnapshotValueKey key{attr, value};
  Posting& posting = *by_value_.Mutable(
      key, [](const std::shared_ptr<Posting>* frozen) {
        return frozen != nullptr ? std::make_shared<Posting>(**frozen)
                                 : std::make_shared<Posting>();
      });
  auto it = std::lower_bound(posting.begin(), posting.end(), id);
  if (add) {
    if (it == posting.end() || *it != id) posting.insert(it, id);
  } else if (it != posting.end() && *it == id) {
    posting.erase(it);
    // Drop drained postings from the mirror entirely. Transient values
    // (unique uids, renamed RDN values, ...) would otherwise pin a dead
    // key in the map forever, growing the fold base — and fold cost —
    // without bound under add/delete churn.
    if (posting.empty()) by_value_.Erase(key);
  }
}

EntryContent& Directory::MutableContent(EntryId id) {
  std::shared_ptr<EntryContent>& content = contents_.Mutable(id);
  // Shared: a published snapshot's chunk holds it too.
  if (content.use_count() > 1) {
    content = std::make_shared<EntryContent>(*content);
  }
  return *content;
}

void Directory::Reserve(size_t entries, size_t values) {
  rdn_index_.Reserve(entries);
  by_value_.Reserve(values);
}

size_t Directory::UnpublishedKeys() const {
  return rdn_index_.OpenDeltaSize() + by_class_.OpenDeltaSize() +
         by_value_.OpenDeltaSize();
}

void Directory::PublishSnapshot() {
  auto* snap = new DirectorySnapshot();
  snap->version = version_;
  snap->num_alive = NumEntries();
  snap->index = index_.FreezeViews();
  snap->alive = std::make_shared<const EntrySet>(alive_);
  snap->by_class = by_class_.Freeze();
  snap->by_value = by_value_.Freeze();
  snap->rdn = rdn_index_.Freeze();
  snap->contents = contents_.Freeze();
  store_->Publish(snap);
}

DirectoryStats Directory::ComputeStats() const {
  DirectoryStats stats;
  stats.num_entries = NumEntries();
  size_t depth_sum = 0;
  for (ForestIndex::Walk w = index_.Preorder(kInvalidEntryId); !w.done();
       w.Next()) {
    const size_t depth = w.depth();
    if (depth == 0) ++stats.num_roots;
    if (depth >= stats.depth_histogram.size()) {
      stats.depth_histogram.resize(depth + 1, 0);
    }
    ++stats.depth_histogram[depth];
    depth_sum += depth;
    stats.max_depth = std::max(stats.max_depth, depth);
    ForestIndex::ChildRange children = index_.Children(w.id());
    const size_t fanout = std::distance(children.begin(), children.end());
    stats.max_fanout = std::max(stats.max_fanout, fanout);
    if (fanout == 0) ++stats.num_leaves;
    const EntryContent& e = *contents_[w.id()];
    stats.total_values += e.values.size();
    stats.total_classes += e.classes.size();
  }
  stats.avg_depth = stats.num_entries == 0
                        ? 0.0
                        : static_cast<double>(depth_sum) /
                              static_cast<double>(stats.num_entries);
  return stats;
}

}  // namespace ldapbound
