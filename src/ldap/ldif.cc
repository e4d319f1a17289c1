#include "ldap/ldif.h"

#include <algorithm>
#include <vector>

#include "ldap/dn.h"
#include "util/base64.h"
#include "util/string_util.h"

namespace ldapbound {

namespace {

struct Record {
  size_t line = 0;  // 1-based line number of the dn: line
  std::string dn;
  std::vector<std::pair<std::string, std::string>> values;
};

Status LdifError(size_t line, const std::string& msg) {
  return Status::InvalidArgument("LDIF line " + std::to_string(line) + ": " +
                                 msg);
}

// Splits the text into records, handling comments and continuations.
Result<std::vector<Record>> Tokenize(std::string_view text) {
  std::vector<Record> records;
  Record current;
  bool in_record = false;
  // (attribute, value) currently being accumulated (for continuations).
  std::string pending_attr;
  std::string pending_value;
  bool pending_base64 = false;
  size_t pending_line = 0;

  auto flush_pending = [&]() -> Status {
    if (pending_attr.empty()) return Status::OK();
    std::string value = pending_value;
    if (pending_base64) {
      auto decoded = Base64Decode(value);
      if (!decoded.ok()) {
        return LdifError(pending_line, decoded.status().message());
      }
      value = *decoded;
    }
    if (EqualsIgnoreCase(pending_attr, "dn")) {
      current.dn = value;
      current.line = pending_line;
    } else {
      current.values.emplace_back(pending_attr, value);
    }
    pending_attr.clear();
    pending_value.clear();
    pending_base64 = false;
    return Status::OK();
  };
  auto flush_record = [&]() -> Status {
    LDAPBOUND_RETURN_IF_ERROR(flush_pending());
    if (!in_record) return Status::OK();
    if (current.dn.empty()) {
      return LdifError(current.line, "record without dn: line");
    }
    records.push_back(std::move(current));
    current = Record{};
    in_record = false;
    return Status::OK();
  };

  size_t number = 0;
  // Whether the previous line was a comment (or a comment's continuation):
  // RFC 2849 folds a leading-space line into the *previous* line, so a
  // continuation after a comment extends the comment — it must be skipped,
  // not glued onto a pending value.
  bool in_comment = false;
  for (std::string_view raw : Split(text, '\n')) {
    ++number;
    if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
    if (!raw.empty() && raw[0] == '#') {
      in_comment = true;
      continue;
    }
    if (StripWhitespace(raw).empty()) {
      in_comment = false;
      LDAPBOUND_RETURN_IF_ERROR(flush_record());
      continue;
    }
    if (raw[0] == ' ') {
      if (in_comment) continue;  // folded comment line
      // Continuation of the previous value.
      if (pending_attr.empty()) {
        return LdifError(number, "continuation line with nothing to continue");
      }
      pending_value += raw.substr(1);
      continue;
    }
    in_comment = false;
    LDAPBOUND_RETURN_IF_ERROR(flush_pending());
    size_t colon = raw.find(':');
    if (colon == std::string_view::npos) {
      return LdifError(number, "expected 'attr: value'");
    }
    pending_attr = std::string(StripWhitespace(raw.substr(0, colon)));
    std::string_view rest = raw.substr(colon + 1);
    pending_base64 = false;
    if (!rest.empty() && rest[0] == ':') {
      pending_base64 = true;  // "attr:: <base64>"
      rest.remove_prefix(1);
    } else if (!rest.empty() && rest[0] == '<') {
      return LdifError(number, "URL-valued attributes (attr:< ...) are not "
                               "supported");
    }
    if (pending_base64) {
      // Base64 payloads carry no significant whitespace; stay lenient.
      pending_value = std::string(StripWhitespace(rest));
    } else {
      // RFC 2849 value-spec: consume the single FILL space after the
      // colon and nothing else — leading/trailing whitespace beyond it is
      // part of the value (WriteLdif base64-escapes such values, but
      // foreign LDIF may spell them out).
      if (!rest.empty() && rest[0] == ' ') rest.remove_prefix(1);
      pending_value = std::string(rest);
    }
    pending_line = number;
    if (pending_attr.empty()) return LdifError(number, "empty attribute name");
    in_record = true;
    if (current.line == 0) current.line = number;
  }
  LDAPBOUND_RETURN_IF_ERROR(flush_record());
  return records;
}

}  // namespace

Result<size_t> LoadLdif(std::string_view text, Directory* directory) {
  LDAPBOUND_ASSIGN_OR_RETURN(std::vector<Record> records, Tokenize(text));

  // Size the mirrors' hash deltas once, from the tokenized records: one
  // RDN key and one content per record, one value key per value
  // (objectClass values become class memberships, not value keys).
  const Vocabulary& vocab = directory->vocab();
  const std::string& objectclass =
      vocab.AttributeName(vocab.objectclass_attr());
  size_t num_values = 0;
  for (const Record& record : records) {
    for (const auto& [attr, value] : record.values) {
      if (!EqualsIgnoreCase(attr, objectclass)) ++num_values;
    }
  }
  directory->Reserve(records.size(), num_values);

  // Records may appear in any order (RFC 2849 does not require
  // parent-before-child). First pass: file order — a well-ordered file
  // creates its entries exactly as before (same EntryId assignment);
  // records whose parent is not resolvable yet are deferred. Second pass:
  // the deferred records sorted by DN depth (stable, so siblings keep
  // file order) — each parent has strictly smaller depth, so one sweep
  // reaches the fixed point; anything still unresolved reports its
  // original line.
  struct ParsedRecord {
    Record* record;
    DistinguishedName dn;
  };
  std::vector<ParsedRecord> deferred;
  size_t created = 0;
  auto add_entry = [&](Record& record, const DistinguishedName& dn,
                       EntryId parent) -> Status {
    EntrySpec spec;
    spec.rdn = dn.Leaf();
    spec.values = std::move(record.values);
    auto id = directory->AddEntryFromSpec(parent, spec);
    if (!id.ok()) {
      // The directory's one kIllegal, a name its const vocabulary lacks,
      // refuses the entry, not the file's syntax.
      if (id.status().code() != StatusCode::kIllegal) {
        return LdifError(record.line, id.status().message());
      }
      return Status::Illegal("LDIF line " + std::to_string(record.line) +
                             ": '" + dn.ToString() +
                             "': " + id.status().message());
    }
    ++created;
    return Status::OK();
  };

  for (Record& record : records) {
    auto dn = DistinguishedName::Parse(record.dn);
    if (!dn.ok()) return LdifError(record.line, dn.status().message());
    record.dn = std::string();  // parsed: free the text while the load runs
    DistinguishedName parent_dn = dn->Parent();
    EntryId parent = kInvalidEntryId;
    if (!parent_dn.IsEmpty()) {
      auto resolved = ResolveDn(*directory, parent_dn);
      if (!resolved.ok()) {
        deferred.push_back({&record, std::move(*dn)});
        continue;
      }
      parent = *resolved;
    }
    LDAPBOUND_RETURN_IF_ERROR(add_entry(record, *dn, parent));
  }

  std::stable_sort(deferred.begin(), deferred.end(),
                   [](const ParsedRecord& a, const ParsedRecord& b) {
                     return a.dn.Depth() < b.dn.Depth();
                   });
  for (ParsedRecord& parsed : deferred) {
    DistinguishedName parent_dn = parsed.dn.Parent();
    auto resolved = ResolveDn(*directory, parent_dn);
    if (!resolved.ok()) {
      return LdifError(parsed.record->line,
                       "parent entry '" + parent_dn.ToString() +
                           "' does not exist");
    }
    LDAPBOUND_RETURN_IF_ERROR(add_entry(*parsed.record, parsed.dn, *resolved));
  }
  return created;
}

std::string WriteLdif(const Directory& directory) {
  std::string text;
  (void)WriteLdif(directory, [&text](std::string_view chunk) {
    text.append(chunk);
    return Status::OK();
  });
  return text;
}

Status WriteLdif(const Directory& directory,
                 const std::function<Status(std::string_view chunk)>& sink) {
  constexpr size_t kChunkBytes = size_t{64} << 10;
  std::string out;
  const Vocabulary& vocab = directory.vocab();
  auto emit = [&out](std::string_view attr, std::string_view sep,
                     std::string_view value) {
    out.append(attr).append(sep).append(value).push_back('\n');
  };
  // Preorder walk (roots in insertion order, children in sibling order)
  // that carries the DN down: an entry's DN is its RDN, a comma and its
  // parent's DN, formed once per entry in dns[depth]. That is the text
  // DnOf renders, without DnOf's re-parse of it.
  std::vector<std::string> dns;  // dns[k]: DN of the path's depth-k entry
  for (ForestIndex::Walk w = directory.GetIndex().Preorder(kInvalidEntryId);
       !w.done(); w.Next()) {
    const size_t depth = w.depth();
    const Entry e = directory.entry(w.id());
    if (dns.size() <= depth) dns.resize(depth + 1);
    std::string& dn = dns[depth];
    dn = e.rdn();
    if (depth > 0) dn.append(",").append(dns[depth - 1]);
    emit("dn", ": ", dn);
    for (ClassId c : e.classes()) emit("objectClass", ": ", vocab.ClassName(c));
    for (const AttributeValue& av : e.values()) {
      const std::string& attr = vocab.AttributeName(av.attribute);
      std::string value = av.value.ToString();
      if (IsLdifSafe(value)) {
        emit(attr, ": ", value);
      } else {
        emit(attr, ":: ", Base64Encode(value));
      }
    }
    out.push_back('\n');
    if (out.size() >= kChunkBytes) {
      LDAPBOUND_RETURN_IF_ERROR(sink(out));
      out.clear();
    }
  }
  return out.empty() ? Status::OK() : sink(out);
}

}  // namespace ldapbound
