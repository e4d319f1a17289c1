#ifndef LDAPBOUND_FEDERATION_FEDERATION_H_
#define LDAPBOUND_FEDERATION_FEDERATION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/legality_checker.h"
#include "ldap/dn.h"
#include "ldap/search.h"
#include "model/directory.h"
#include "schema/directory_schema.h"

namespace ldapbound {

/// One naming context of a federation: a subtree of the DIT managed
/// separately (conceptually, by its own server), re-rooted as a standalone
/// directory. `mount_parent` is the DN under which the context hangs in
/// the unified namespace (empty for a context that is a forest root).
struct NamingContext {
  DistinguishedName mount_parent;
  std::unique_ptr<Directory> directory;  // root entry = the context root
};

/// §2.4: "the directory data model defines a hierarchical namespace for
/// entries, which enables distributed management of entries across
/// multiple directory servers, while still permitting a conceptually
/// unified view of the data."
///
/// A Federation realizes that story for bounding-schemas:
///  - `Split` carves chosen subtrees out of a directory into naming
///    contexts, leaving *referral* entries (objectClass `referral`) at the
///    mount points of the remaining "glue" directory — the LDAP idiom;
///  - `Search` routes scoped searches across glue and contexts, chasing
///    referrals, and returns absolute DNs;
///  - `Unify` rebuilds the conceptually unified directory;
///  - legality: the *content* schema is checkable per partition in
///    isolation (Definition 2.7 checks entries independently), but the
///    *structure* schema is not — required descendant/ancestor
///    relationships cross context boundaries — so `CheckLegality`
///    materializes the unified view. The test suite demonstrates that
///    naive per-partition structure checking gives wrong answers in both
///    directions.
class Federation {
 public:
  /// Splits `source`: each DN in `context_roots` (which must name alive
  /// entries, pairwise non-nested) becomes a naming context. The source
  /// directory is not modified; the federation gets copies. `vocab` is
  /// the vocabulary `source` was built over, which the referral class is
  /// interned into.
  static Result<Federation> Split(
      std::shared_ptr<Vocabulary> vocab, const Directory& source,
      const std::vector<DistinguishedName>& context_roots);

  /// The glue directory: everything outside the contexts, with referral
  /// entries at the mount points.
  const Directory& glue() const { return *glue_; }
  const std::vector<NamingContext>& contexts() const { return contexts_; }

  /// The class marking referral entries in the glue.
  ClassId referral_class() const { return referral_class_; }

  /// Rebuilds the unified view (referrals replaced by their contexts).
  Result<Directory> Unify() const;

  /// Subtree search from `base` (empty = whole namespace), chasing
  /// referrals into contexts; absolute DNs of matches, glue first then
  /// contexts in mount order. Referral placeholder entries never match.
  Result<std::vector<std::string>> Search(const DistinguishedName& base,
                                          const MatcherPtr& filter) const;

  /// Federated legality: per-partition content checks (each partition in
  /// isolation — valid per Definition 2.7) plus a structure + keys check
  /// on the unified view.
  bool CheckLegality(const DirectorySchema& schema,
                     std::vector<std::string>* violation_text = nullptr) const;

  /// Per-partition structure verdicts — deliberately exposed so tests and
  /// examples can demonstrate that this naive approach is NOT equivalent
  /// to the unified check.
  std::vector<bool> NaivePerPartitionStructureVerdicts(
      const DirectorySchema& schema) const;

 private:
  Federation() = default;

  std::shared_ptr<const Vocabulary> vocab_;
  std::unique_ptr<Directory> glue_;
  std::vector<NamingContext> contexts_;
  ClassId referral_class_ = kInvalidClassId;
};

}  // namespace ldapbound

#endif  // LDAPBOUND_FEDERATION_FEDERATION_H_
