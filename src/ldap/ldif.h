#ifndef LDAPBOUND_LDAP_LDIF_H_
#define LDAPBOUND_LDAP_LDIF_H_

#include <functional>
#include <string>
#include <string_view>

#include "model/directory.h"
#include "util/result.h"

namespace ldapbound {

/// Loads LDIF-formatted text into `directory`, returning the number of
/// entries created.
///
/// Supported LDIF subset:
///  - records separated by blank lines, each starting with a `dn:` line;
///  - `attr: value` lines; repeated attributes give multiple values. Only
///    the single RFC 2849 FILL space after the colon is consumed — any
///    further leading or trailing whitespace is part of the value;
///  - continuation lines (leading space) extend the previous value — or
///    the previous comment, when that is what precedes them;
///  - `#` comment lines (foldable like any other line);
///  - `objectClass:` values become class memberships.
///
/// Records may appear in any order: a record whose parent is not loaded
/// yet is deferred and resolved once the parent exists (parents of
/// missing intermediate DNs are an error, reported with the record's
/// line number). Parent-before-child files create entries in exactly the
/// file order. Values are parsed according to each attribute's declared
/// type in the directory's vocabulary. A directory over a mutable
/// vocabulary interns unknown classes, and unknown attributes as
/// string-typed; one over a const vocabulary refuses the record that names
/// one (kIllegal, naming its line and DN; see Directory).
Result<size_t> LoadLdif(std::string_view text, Directory* directory);

/// Renders the directory as LDIF, entries in preorder (parents first), so
/// the output round-trips through LoadLdif.
std::string WriteLdif(const Directory& directory);

/// The same text, streamed: calls `sink` with consecutive chunks of about
/// 64 KiB, each ending at an entry boundary, so no more than one chunk is
/// ever held. Stops at, and returns, the first non-OK status `sink`
/// returns.
Status WriteLdif(const Directory& directory,
                 const std::function<Status(std::string_view chunk)>& sink);

}  // namespace ldapbound

#endif  // LDAPBOUND_LDAP_LDIF_H_
