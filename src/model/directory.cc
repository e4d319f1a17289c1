#include "model/directory.h"

#include <algorithm>

#include "util/string_util.h"

namespace ldapbound {

Directory::Directory(std::shared_ptr<Vocabulary> vocab)
    : vocab_(std::move(vocab)),
      store_(std::make_unique<SnapshotStore>(EpochManager::Default())) {
  alive_ = std::make_shared<EntrySet>(PostingCapacity());
  alive_private_ = true;
  PublishSnapshot();
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
      classes.push_back(vocab_->InternClass(av.value.AsString()));
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

  EntryId id = static_cast<EntryId>(entries_.size());
  entries_.emplace_back();
  Entry& e = entries_.back();
  e.id_ = id;
  e.parent_ = parent;
  e.rdn_ = std::move(rdn);
  e.classes_ = std::move(classes);
  e.values_ = std::move(kept);
  TrackAlive(id, true);
  ++num_alive_;
  Attach(id, parent);
  rdn_index_.Set(std::move(rdn_key), id);
  index_.OnInsert(*this, id);
  for (ClassId c : e.classes_) TrackClass(id, c, true);
  for (const AttributeValue& av : e.values_) {
    TrackValue(id, av.attribute, av.value, true);
  }
  TrackEntryPayload(id);
  ++version_;
  return id;
}

Result<EntryId> Directory::AddEntryFromSpec(EntryId parent,
                                            const EntrySpec& spec) {
  std::vector<ClassId> classes;
  classes.reserve(spec.classes.size());
  for (const std::string& name : spec.classes) {
    classes.push_back(vocab_->InternClass(name));
  }
  std::vector<AttributeValue> values;
  values.reserve(spec.values.size());
  for (const auto& [attr_name, text] : spec.values) {
    AttributeId attr = vocab_->InternAttribute(attr_name);
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
    return AddClass(id, vocab_->InternClass(value.AsString()));
  }
  if (attr >= vocab_->num_attributes()) {
    return Status::OutOfRange("attribute id out of range");
  }
  if (value.type() != vocab_->AttributeType(attr)) {
    return Status::InvalidArgument("value '" + value.ToString() +
                                   "' has wrong type for attribute " +
                                   vocab_->AttributeName(attr));
  }
  Entry& e = entries_[id];
  AttributeValue av{attr, std::move(value)};
  auto it = std::lower_bound(e.values_.begin(), e.values_.end(), av);
  if (it != e.values_.end() && *it == av) return Status::OK();
  if (vocab_->IsSingleValued(attr) && e.HasAttribute(attr)) {
    return Status::FailedPrecondition("attribute " +
                                      vocab_->AttributeName(attr) +
                                      " is single-valued");
  }
  it = e.values_.insert(it, std::move(av));
  TrackValue(id, attr, it->value, true);
  TrackEntryPayload(id);
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
  Entry& e = entries_[id];
  AttributeValue av{attr, value};
  auto it = std::lower_bound(e.values_.begin(), e.values_.end(), av);
  if (it == e.values_.end() || !(*it == av)) {
    return Status::NotFound("no such (attribute, value) pair");
  }
  e.values_.erase(it);
  TrackValue(id, attr, value, false);
  TrackEntryPayload(id);
  ++version_;
  return Status::OK();
}

Status Directory::AddClass(EntryId id, ClassId cls) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  if (cls >= vocab_->num_classes()) {
    return Status::OutOfRange("class id out of range");
  }
  Entry& e = entries_[id];
  auto it = std::lower_bound(e.classes_.begin(), e.classes_.end(), cls);
  if (it != e.classes_.end() && *it == cls) return Status::OK();
  e.classes_.insert(it, cls);
  TrackClass(id, cls, true);
  TrackEntryPayload(id);
  ++version_;
  return Status::OK();
}

Status Directory::RemoveClass(EntryId id, ClassId cls) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  Entry& e = entries_[id];
  auto it = std::lower_bound(e.classes_.begin(), e.classes_.end(), cls);
  if (it == e.classes_.end() || *it != cls) {
    return Status::NotFound("entry does not belong to class");
  }
  if (e.classes_.size() == 1) {
    return Status::FailedPrecondition(
        "an entry must belong to at least one object class");
  }
  e.classes_.erase(it);
  TrackClass(id, cls, false);
  TrackEntryPayload(id);
  ++version_;
  return Status::OK();
}

Status Directory::MoveSubtree(EntryId id, EntryId new_parent) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  if (new_parent != kInvalidEntryId) {
    LDAPBOUND_RETURN_IF_ERROR(CheckAlive(new_parent));
    // The new parent must not be inside the moved subtree.
    for (EntryId a = new_parent; a != kInvalidEntryId;
         a = entries_[a].parent_) {
      if (a == id) {
        return Status::InvalidArgument(
            "cannot move an entry under its own subtree");
      }
    }
  }
  Entry& e = entries_[id];
  if (e.parent_ == new_parent) return Status::OK();
  if (FindChildByRdn(new_parent, e.rdn_) != kInvalidEntryId) {
    return Status::AlreadyExists("sibling with RDN '" + e.rdn_ +
                                 "' already exists at the destination");
  }
  Detach(id);
  rdn_index_.Erase(RdnKey(e.parent_, e.rdn_));
  rdn_index_.Set(RdnKey(new_parent, e.rdn_), id);
  e.parent_ = new_parent;
  Attach(id, new_parent);
  index_.OnMove(*this, id);
  ++version_;
  return Status::OK();
}

Status Directory::Rename(EntryId id, std::string new_rdn) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  Entry& e = entries_[id];
  if (EqualsIgnoreCase(e.rdn_, new_rdn)) {
    e.rdn_ = std::move(new_rdn);  // case-only change: same index key
    TrackEntryPayload(id);        // ...but the payload carries the bytes
    ++version_;
    return Status::OK();
  }
  if (FindChildByRdn(e.parent_, new_rdn) != kInvalidEntryId) {
    return Status::AlreadyExists("sibling with RDN '" + new_rdn +
                                 "' already exists");
  }
  rdn_index_.Erase(RdnKey(e.parent_, e.rdn_));
  rdn_index_.Set(RdnKey(e.parent_, new_rdn), id);
  e.rdn_ = std::move(new_rdn);
  TrackEntryPayload(id);
  ++version_;
  return Status::OK();
}

Status Directory::DeleteLeaf(EntryId id) {
  LDAPBOUND_RETURN_IF_ERROR(CheckAlive(id));
  Entry& e = entries_[id];
  if (!e.children_.empty()) {
    return Status::FailedPrecondition(
        "only leaf entries can be deleted (entry has " +
        std::to_string(e.children_.size()) + " children)");
  }
  TrackAlive(id, false);
  --num_alive_;
  for (ClassId c : e.classes_) TrackClass(id, c, false);
  for (const AttributeValue& av : e.values_) {
    TrackValue(id, av.attribute, av.value, false);
  }
  TrackEntryPayload(id, /*alive=*/false);
  Detach(id);
  rdn_index_.Erase(RdnKey(e.parent_, e.rdn_));
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

std::vector<EntryId>& Directory::SiblingList(EntryId parent) {
  return parent == kInvalidEntryId ? roots_ : entries_[parent].children_;
}

void Directory::Attach(EntryId id, EntryId parent) {
  std::vector<EntryId>& siblings = SiblingList(parent);
  index_.Link(parent, siblings.empty() ? kInvalidEntryId : siblings.back(),
              id);
  siblings.push_back(id);
}

void Directory::Detach(EntryId id) {
  EntryId parent = entries_[id].parent_;
  std::vector<EntryId>& siblings = SiblingList(parent);
  auto it = std::find(siblings.begin(), siblings.end(), id);
  index_.Unlink(parent, it == siblings.begin() ? kInvalidEntryId : *(it - 1),
                id);
  siblings.erase(it);
}

EntrySet Directory::AliveSet() const {
  EntrySet set = *alive_;
  set.Resize(IdCapacity());
  return set;
}

EntryId Directory::FindChildByRdn(EntryId parent,
                                  std::string_view rdn) const {
  const EntryId* found = rdn_index_.Find(RdnKey(parent, rdn));
  return found == nullptr ? kInvalidEntryId : *found;
}

std::vector<EntryId> Directory::SubtreeEntries(EntryId id) const {
  std::vector<EntryId> out;
  if (!IsAlive(id)) return out;
  std::vector<EntryId> stack{id};
  while (!stack.empty()) {
    EntryId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const auto& children = entries_[cur].children_;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

size_t Directory::PostingCapacity() const {
  size_t cap = 64;
  while (cap < entries_.size()) cap <<= 1;
  return cap;
}

EntrySet* Directory::MutableAlive() {
  const size_t want = PostingCapacity();
  if (!alive_private_) {
    // A published snapshot holds the current set: clone before writing.
    alive_ = std::make_shared<EntrySet>(*alive_);
    alive_private_ = true;
  }
  if (alive_->capacity() < want) alive_->Resize(want);
  return alive_.get();
}

void Directory::TrackAlive(EntryId id, bool on) {
  EntrySet* alive = MutableAlive();
  if (on) {
    alive->Insert(id);
  } else {
    alive->Erase(id);
  }
}

void Directory::TrackClass(EntryId id, ClassId cls, bool add) {
  ClassPosting& posting = *by_class_.Mutable(
      cls, [&](const std::shared_ptr<ClassPosting>* frozen) {
        return frozen != nullptr
                   ? std::make_shared<ClassPosting>(**frozen)
                   : std::make_shared<ClassPosting>(
                         ClassPosting{EntrySet(PostingCapacity()), 0});
      });
  EntrySet& set = posting.members;
  if (set.capacity() <= id) set.Resize(PostingCapacity());
  if (set.Contains(id) == add) return;
  if (add) {
    set.Insert(id);
    ++posting.count;
  } else {
    set.Erase(id);
    --posting.count;
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

namespace {

// Mirrors of the server/wire.h little-endian appenders, duplicated here
// because the model layer cannot depend on src/server. The blob format is
// documented on DirectorySnapshot::PayloadMap.
void PayloadPutU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v));
  out.push_back(static_cast<char>(v >> 8));
}

void PayloadPutU32(std::string& out, uint32_t v) {
  PayloadPutU16(out, static_cast<uint16_t>(v));
  PayloadPutU16(out, static_cast<uint16_t>(v >> 16));
}

void PayloadPutString(std::string& out, std::string_view s) {
  PayloadPutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

}  // namespace

void Directory::TrackEntryPayload(EntryId id, bool alive) {
  if (!alive) {
    by_entry_.Erase(id);
    return;
  }
  const Entry& e = entries_[id];
  std::string blob;
  PayloadPutString(blob, e.rdn());
  PayloadPutU16(blob, static_cast<uint16_t>(e.classes().size()));
  for (ClassId c : e.classes()) PayloadPutString(blob, vocab_->ClassName(c));
  PayloadPutU16(blob, static_cast<uint16_t>(e.values().size()));
  for (const AttributeValue& av : e.values()) {
    PayloadPutString(blob, vocab_->AttributeName(av.attribute));
    PayloadPutString(blob, av.value.ToString());
  }
  by_entry_.Set(id, std::make_shared<const std::string>(std::move(blob)));
}

void Directory::Reserve(size_t entries, size_t values) {
  rdn_index_.Reserve(entries);
  by_entry_.Reserve(entries);
  by_value_.Reserve(values);
}

size_t Directory::UnpublishedKeys() const {
  return rdn_index_.OpenDeltaSize() + by_class_.OpenDeltaSize() +
         by_value_.OpenDeltaSize() + by_entry_.OpenDeltaSize();
}

void Directory::PublishSnapshot() {
  auto* snap = new DirectorySnapshot();
  snap->version = version_;
  snap->id_capacity = entries_.size();
  snap->num_alive = num_alive_;
  snap->index = index_.FreezeViews();
  snap->alive = alive_;
  alive_private_ = false;  // the snapshot holds it: next write clones
  snap->by_class = by_class_.Freeze();
  snap->by_value = by_value_.Freeze();
  snap->rdn = rdn_index_.Freeze();
  snap->by_entry = by_entry_.Freeze();
  store_->Publish(snap);
}

DirectoryStats Directory::ComputeStats() const {
  DirectoryStats stats;
  stats.num_entries = num_alive_;
  stats.num_roots = roots_.size();
  size_t depth_sum = 0;
  // Root-first walk: an entry's depth is its parent's plus one.
  std::vector<std::pair<EntryId, size_t>> stack;
  for (EntryId root : roots_) stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const Entry& e = entry(id);
    if (depth >= stats.depth_histogram.size()) {
      stats.depth_histogram.resize(depth + 1, 0);
    }
    ++stats.depth_histogram[depth];
    depth_sum += depth;
    stats.max_depth = std::max(stats.max_depth, depth);
    stats.max_fanout = std::max(stats.max_fanout, e.children().size());
    if (e.children().empty()) ++stats.num_leaves;
    stats.total_values += e.values().size();
    stats.total_classes += e.classes().size();
    for (EntryId child : e.children()) stack.emplace_back(child, depth + 1);
  }
  stats.avg_depth = num_alive_ == 0
                        ? 0.0
                        : static_cast<double>(depth_sum) /
                              static_cast<double>(num_alive_);
  return stats;
}

}  // namespace ldapbound
