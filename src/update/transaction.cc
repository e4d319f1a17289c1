#include "update/transaction.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/string_util.h"

namespace ldapbound {

UpdateTransaction& UpdateTransaction::Insert(DistinguishedName dn,
                                             EntrySpec spec) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kInsert;
  op.dn = std::move(dn);
  op.spec = std::move(spec);
  ops_.push_back(std::move(op));
  return *this;
}

UpdateTransaction& UpdateTransaction::Delete(DistinguishedName dn) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kDelete;
  op.dn = std::move(dn);
  ops_.push_back(std::move(op));
  return *this;
}

namespace {

std::string DnKey(const DistinguishedName& dn) {
  return ToLower(dn.ToString());
}

}  // namespace

Status TransactionExecutor::Normalize(
    const UpdateTransaction& txn, std::vector<InsertGroup>* inserts,
    std::vector<DistinguishedName>* delete_roots) const {
  std::unordered_set<std::string> inserted;
  std::unordered_set<std::string> deleted;
  for (const UpdateOp& op : txn.ops()) {
    std::string key = DnKey(op.dn);
    if (op.dn.IsEmpty()) {
      return Status::InvalidArgument("update op with empty DN");
    }
    auto& set = (op.kind == UpdateOp::Kind::kInsert) ? inserted : deleted;
    if (!set.insert(key).second) {
      return Status::InvalidArgument("duplicate update op for '" +
                                     op.dn.ToString() + "'");
    }
  }
  for (const std::string& key : inserted) {
    if (deleted.count(key) > 0) {
      return Status::InvalidArgument(
          "transaction both inserts and deletes '" + key +
          "' (operations must be distinct; see §4.1)");
    }
  }

  // Group inserts into maximal subtrees: an op roots a group when its
  // parent DN is not itself inserted by this transaction.
  std::unordered_map<std::string, size_t> group_of_root;
  for (const UpdateOp& op : txn.ops()) {
    if (op.kind != UpdateOp::Kind::kInsert) continue;
    DistinguishedName root = op.dn;
    while (!root.Parent().IsEmpty() &&
           inserted.count(DnKey(root.Parent())) > 0) {
      root = root.Parent();
    }
    // Roots whose parent is an inserted DN only via a gap (parent missing
    // from the transaction) will fail at apply time with NotFound.
    std::string root_key = DnKey(root);
    auto [it, fresh] = group_of_root.emplace(root_key, inserts->size());
    if (fresh) inserts->emplace_back();
    (*inserts)[it->second].ops.push_back(&op);
  }
  // Parents before children within each group.
  for (InsertGroup& group : *inserts) {
    std::stable_sort(group.ops.begin(), group.ops.end(),
                     [](const UpdateOp* a, const UpdateOp* b) {
                       return a->dn.Depth() < b->dn.Depth();
                     });
  }

  // Delete roots: deleted entries whose parent is not deleted.
  for (const UpdateOp& op : txn.ops()) {
    if (op.kind != UpdateOp::Kind::kDelete) continue;
    if (op.dn.Parent().IsEmpty() ||
        deleted.count(DnKey(op.dn.Parent())) == 0) {
      delete_roots->push_back(op.dn);
    }
  }
  return Status::OK();
}

Status TransactionExecutor::Commit(const UpdateTransaction& txn,
                                   CommitStats* stats,
                                   std::vector<Violation>* violations_out) {
  std::vector<InsertGroup> insert_groups;
  std::vector<DistinguishedName> delete_roots;
  LDAPBOUND_RETURN_IF_ERROR(Normalize(txn, &insert_groups, &delete_roots));

  CommitStats local_stats;
  std::vector<EntryId> inserted_roots;  // for rollback

  // Every refusal comes before the first deletion (the one delete check
  // runs on the whole batch first), so rolling back only ever removes the
  // inserted subtrees.
  auto rollback = [&]() {
    for (EntryId root : inserted_roots) {
      directory_->DeleteSubtree(root);
    }
  };

  // Phase 1: apply every inserted subtree, then check the whole inserted
  // delta at once (Theorem 4.1 prescribes insertions before deletions; the
  // per-subtree checks merge into one union-Δ check because maximal insert
  // groups attach to pre-transaction parents — no group can be an ancestor
  // of another — so the union check decomposes into exactly the per-group
  // conjunct it replaces).
  std::vector<EntryId> all_created;
  for (const InsertGroup& group : insert_groups) {
    std::vector<EntryId> created;
    created.reserve(group.ops.size());
    for (const UpdateOp* op : group.ops) {
      EntryId parent = kInvalidEntryId;
      DistinguishedName parent_dn = op->dn.Parent();
      if (!parent_dn.IsEmpty()) {
        auto resolved = ResolveDn(*directory_, parent_dn);
        if (!resolved.ok()) {
          // Creation of this subtree is impossible; undo and fail.
          for (auto it = created.rbegin(); it != created.rend(); ++it) {
            directory_->DeleteLeaf(*it);
          }
          rollback();
          return Status::NotFound("insert '" + op->dn.ToString() +
                                  "': parent entry does not exist");
        }
        parent = *resolved;
      }
      EntrySpec spec = op->spec;
      spec.rdn = op->dn.Leaf();
      auto id = directory_->AddEntryFromSpec(parent, spec);
      if (!id.ok()) {
        for (auto it = created.rbegin(); it != created.rend(); ++it) {
          directory_->DeleteLeaf(*it);
        }
        rollback();
        // The directory's one kIllegal: a name its const vocabulary lacks.
        if (id.status().code() != StatusCode::kIllegal) return id.status();
        return Status::Illegal("insert '" + op->dn.ToString() +
                               "': " + id.status().message());
      }
      created.push_back(*id);
    }
    inserted_roots.push_back(created.front());
    all_created.insert(all_created.end(), created.begin(), created.end());
    local_stats.inserted_subtrees += 1;
    local_stats.inserted_entries += created.size();
  }
  if (!insert_groups.empty()) {
    EntrySet delta;
    for (EntryId id : all_created) delta.Insert(id);
    std::vector<Violation> violations;
    if (!validator_.CheckAfterInsert(*directory_, delta, &violations)) {
      Status illegal = Status::Illegal(
          "inserting subtree at '" + insert_groups.front().ops.front()->dn
              .ToString() +
          (insert_groups.size() > 1
               ? "' (and " + std::to_string(insert_groups.size() - 1) +
                     " more) violates the schema:\n"
               : "' violates the schema:\n") +
          DescribeViolations(violations, schema_.vocab()));
      if (violations_out != nullptr) *violations_out = std::move(violations);
      rollback();
      return illegal;
    }
  }

  // Phase 2: deleted subtrees — one union-Δ check before any deletion (see
  // CheckBeforeDeleteBatch for why this equals the interleaved per-subtree
  // checks), then delete each.
  if (!delete_roots.empty()) {
    // Every entry of a deleted subtree must have been listed for deletion —
    // transactions delete entries, not implicit subtrees.
    std::unordered_set<std::string> deleted_keys;
    for (const UpdateOp& op : txn.ops()) {
      if (op.kind == UpdateOp::Kind::kDelete) {
        deleted_keys.insert(DnKey(op.dn));
      }
    }
    std::vector<EntryId> roots;
    roots.reserve(delete_roots.size());
    EntrySet delta;
    size_t doomed_total = 0;
    for (const DistinguishedName& root_dn : delete_roots) {
      auto root = ResolveDn(*directory_, root_dn);
      if (!root.ok()) {
        rollback();
        return Status::NotFound("delete '" + root_dn.ToString() +
                                "': no such entry");
      }
      std::vector<EntryId> doomed = directory_->SubtreeEntries(*root);
      for (EntryId id : doomed) {
        auto dn = DnOf(*directory_, id);
        if (!dn.ok() || deleted_keys.count(DnKey(*dn)) == 0) {
          rollback();
          return Status::InvalidArgument(
              "transaction deletes '" + root_dn.ToString() +
              "' but not all of its descendants (LDAP deletes leaves only)");
        }
        delta.Insert(id);
      }
      roots.push_back(*root);
      doomed_total += doomed.size();
    }
    std::vector<Violation> violations;
    if (!validator_.CheckBeforeDeleteBatch(*directory_, roots, delta,
                                           &violations)) {
      Status illegal = Status::Illegal(
          "deleting subtree at '" + delete_roots.front().ToString() +
          (delete_roots.size() > 1
               ? "' (and " + std::to_string(delete_roots.size() - 1) +
                     " more) violates the schema:\n"
               : "' violates the schema:\n") +
          DescribeViolations(violations, schema_.vocab()));
      if (violations_out != nullptr) *violations_out = std::move(violations);
      rollback();
      return illegal;
    }
    for (EntryId root : roots) {
      LDAPBOUND_RETURN_IF_ERROR(directory_->DeleteSubtree(root));
    }
    local_stats.deleted_subtrees += delete_roots.size();
    local_stats.deleted_entries += doomed_total;
  }

  if (stats != nullptr) *stats = local_stats;
  return Status::OK();
}

}  // namespace ldapbound
