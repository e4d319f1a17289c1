#ifndef LDAPBOUND_UPDATE_TRANSACTION_H_
#define LDAPBOUND_UPDATE_TRANSACTION_H_

#include <string>
#include <vector>

#include "ldap/dn.h"
#include "model/directory.h"
#include "update/incremental.h"

namespace ldapbound {

/// One directory update operation, named by DN (Section 4.1's granularity:
/// a transaction is a sequence of distinct entry insertions and deletions).
struct UpdateOp {
  enum class Kind : uint8_t { kInsert, kDelete };

  Kind kind;
  DistinguishedName dn;
  /// For inserts: classes and values of the new entry (spec.rdn is ignored;
  /// the RDN comes from `dn`).
  EntrySpec spec;
};

/// A sequence of entry insertions and deletions, applied atomically with
/// legality checking at subtree granularity.
class UpdateTransaction {
 public:
  UpdateTransaction& Insert(DistinguishedName dn, EntrySpec spec);
  UpdateTransaction& Delete(DistinguishedName dn);

  const std::vector<UpdateOp>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }

 private:
  std::vector<UpdateOp> ops_;
};

/// Statistics of a committed (or rejected) transaction.
struct CommitStats {
  size_t inserted_subtrees = 0;
  size_t deleted_subtrees = 0;
  size_t inserted_entries = 0;
  size_t deleted_entries = 0;
};

/// Applies update transactions with the checking discipline of Theorem 4.1:
/// the entry-level operations are normalized into maximal inserted subtrees
/// and maximal deleted subtrees; the inserted subtrees are applied first,
/// then the deletions, with an incremental legality check after each
/// subtree insertion and before each subtree deletion. The theorem
/// guarantees the verdict is independent of the original operation order.
///
/// On any failed check the transaction is rolled back completely and the
/// returned status is kIllegal carrying the violations. Every check runs
/// before the first deletion, so rolling back removes the inserted
/// subtrees and nothing else; deleted subtrees are never copied.
class TransactionExecutor {
 public:
  TransactionExecutor(Directory* directory, const DirectorySchema& schema,
                      IncrementalValidator::Options options = {})
      : directory_(directory), schema_(schema),
        validator_(schema, options) {}

  /// Validates and applies `txn`. The directory must be legal beforehand.
  /// When the check refuses it, the kIllegal status describes the
  /// violations and, if `violations` is non-null, they are stored there.
  Status Commit(const UpdateTransaction& txn, CommitStats* stats = nullptr,
                std::vector<Violation>* violations = nullptr);

 private:
  struct InsertGroup {
    // Ops of one inserted subtree, parents before children; index 0 is the
    // subtree root (its parent exists in the pre-transaction directory).
    std::vector<const UpdateOp*> ops;
  };

  Status Normalize(const UpdateTransaction& txn,
                   std::vector<InsertGroup>* inserts,
                   std::vector<DistinguishedName>* delete_roots) const;

  Directory* directory_;
  const DirectorySchema& schema_;
  IncrementalValidator validator_;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_UPDATE_TRANSACTION_H_
