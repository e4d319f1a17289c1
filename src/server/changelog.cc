#include "server/changelog.h"

#include "server/directory_server.h"
#include "util/base64.h"
#include "util/string_util.h"

namespace ldapbound {

void Changelog::Append(ChangeRecord record) {
  record.sequence = next_sequence_++;
  records_.push_back(std::move(record));
}

namespace {

void EmitValueLine(std::string& out, const std::string& attr,
                   const std::string& value) {
  if (IsLdifSafe(value)) {
    out += attr + ": " + value + "\n";
  } else {
    out += attr + ":: " + Base64Encode(value) + "\n";
  }
}

}  // namespace

std::string ChangeRecordsToLdif(const std::vector<ChangeRecord>& records,
                                const Vocabulary& vocab) {
  std::string out;
  for (const ChangeRecord& record : records) {
    out += "# txn: " + std::to_string(record.txn) + "\n";
    if (record.sequence != 0) {
      out += "# seq: " + std::to_string(record.sequence) + "\n";
    }
    EmitValueLine(out, "dn", record.dn);
    switch (record.kind) {
      case ChangeRecord::Kind::kAdd: {
        out += "changetype: add\n";
        for (const std::string& cls : record.spec.classes) {
          out += "objectClass: " + cls + "\n";
        }
        for (const auto& [attr, value] : record.spec.values) {
          EmitValueLine(out, attr, value);
        }
        break;
      }
      case ChangeRecord::Kind::kDelete:
        out += "changetype: delete\n";
        break;
      case ChangeRecord::Kind::kModify: {
        out += "changetype: modify\n";
        for (const Modification& mod : record.mods) {
          switch (mod.kind) {
            case Modification::Kind::kAddValue:
              out += "add: " + vocab.AttributeName(mod.attr) + "\n";
              EmitValueLine(out, vocab.AttributeName(mod.attr),
                            mod.value.ToString());
              break;
            case Modification::Kind::kRemoveValue:
              out += "delete: " + vocab.AttributeName(mod.attr) + "\n";
              EmitValueLine(out, vocab.AttributeName(mod.attr),
                            mod.value.ToString());
              break;
            case Modification::Kind::kAddClass:
              out += "add: objectClass\n";
              out += "objectClass: " + vocab.ClassName(mod.cls) + "\n";
              break;
            case Modification::Kind::kRemoveClass:
              out += "delete: objectClass\n";
              out += "objectClass: " + vocab.ClassName(mod.cls) + "\n";
              break;
          }
          out += "-\n";
        }
        break;
      }
      case ChangeRecord::Kind::kModifyDn: {
        out += "changetype: modrdn\n";
        EmitValueLine(out, "newrdn",
                      record.new_rdn.empty()
                          ? std::string(
                                SplitEscaped(record.dn, ',').front())
                          : record.new_rdn);
        out += "deleteoldrdn: 0\n";
        EmitValueLine(out, "newsuperior", record.new_parent_dn);
        break;
      }
    }
    out += "\n";
  }
  return out;
}

std::string Changelog::ToLdif(const Vocabulary& vocab,
                              uint64_t after_sequence) const {
  std::vector<ChangeRecord> selected;
  for (const ChangeRecord& record : records_) {
    if (record.sequence > after_sequence) selected.push_back(record);
  }
  return ChangeRecordsToLdif(selected, vocab);
}

namespace {

// A tokenized change record: its txn id, optional sequence number, and its
// raw "attr[:]: value" lines in order.
struct RawChange {
  uint64_t txn = 0;
  uint64_t seq = 0;      // from a "# seq:" comment; 0 when absent
  size_t ordinal = 0;    // 1-based position in the change stream
  size_t line = 0;
  std::vector<std::pair<std::string, std::string>> lines;  // attr, value
};

Status ChangeError(size_t line, const std::string& msg) {
  return Status::InvalidArgument("change LDIF line " + std::to_string(line) +
                                 ": " + msg);
}

Result<std::vector<RawChange>> TokenizeChanges(std::string_view text) {
  std::vector<RawChange> changes;
  RawChange current;
  bool in_record = false;
  uint64_t pending_txn = 0;
  uint64_t pending_seq = 0;

  auto flush = [&]() {
    if (in_record) {
      current.ordinal = changes.size() + 1;
      changes.push_back(std::move(current));
    }
    current = RawChange{};
    in_record = false;
  };

  auto parse_counter = [](std::string_view digits) {
    uint64_t value = 0;
    for (char c : StripWhitespace(digits)) {
      if (c < '0' || c > '9') break;
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    return value;
  };

  size_t number = 0;
  for (std::string_view raw : Split(text, '\n')) {
    ++number;
    if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
    if (!raw.empty() && raw[0] == '#') {
      std::string_view comment = StripWhitespace(raw.substr(1));
      if (StartsWith(comment, "txn:")) {
        pending_txn = parse_counter(comment.substr(4));
      } else if (StartsWith(comment, "seq:")) {
        pending_seq = parse_counter(comment.substr(4));
      }
      continue;
    }
    if (StripWhitespace(raw).empty()) {
      flush();
      continue;
    }
    if (raw == "-") {
      current.lines.emplace_back("-", "");
      continue;
    }
    size_t colon = raw.find(':');
    if (colon == std::string_view::npos) {
      return ChangeError(number, "expected 'attr: value'");
    }
    std::string attr(StripWhitespace(raw.substr(0, colon)));
    std::string_view rest = raw.substr(colon + 1);
    bool base64 = false;
    if (!rest.empty() && rest[0] == ':') {
      base64 = true;
      rest.remove_prefix(1);
    }
    std::string value(StripWhitespace(rest));
    if (base64) {
      auto decoded = Base64Decode(value);
      if (!decoded.ok()) return ChangeError(number, decoded.status().message());
      value = *decoded;
    }
    if (!in_record) {
      in_record = true;
      current.txn = pending_txn;
      current.seq = pending_seq;
      current.line = number;
      pending_seq = 0;
    }
    current.lines.emplace_back(std::move(attr), std::move(value));
  }
  flush();
  return changes;
}

}  // namespace

namespace {

// Decorates a replay failure with everything an operator needs to resume:
// the failing record's ordinal, its shipped sequence number (when the
// stream carries "# seq:" comments), its DN and source line, and how many
// records were already applied. The status code of `cause` is preserved.
Status AnnotateReplayFailure(const RawChange& change, const std::string& dn,
                             size_t applied, const Status& cause) {
  std::string msg = "replay failed at change record #" +
                    std::to_string(change.ordinal);
  if (change.seq != 0) msg += " (seq " + std::to_string(change.seq) + ")";
  msg += " dn '" + dn + "' (line " + std::to_string(change.line) +
         "): " + cause.message();
  msg += "; " + std::to_string(applied) +
         " records applied before the failure";
  if (change.seq != 0) {
    msg += " — fix the record and resume from seq " +
           std::to_string(change.seq);
  }
  return Status(cause.code(), msg);
}

}  // namespace

Result<size_t> ApplyChangeLdif(std::string_view text,
                               DirectoryServer* server) {
  LDAPBOUND_ASSIGN_OR_RETURN(std::vector<RawChange> changes,
                             TokenizeChanges(text));
  const Vocabulary& vocab = server->vocab();
  size_t applied = 0;

  // Pending transaction built from consecutive add/delete records sharing
  // a txn id. `pending_first` / `pending_dn` identify the group's first
  // record for failure reporting (the whole group commits or fails as one).
  UpdateTransaction pending;
  uint64_t pending_txn = 0;
  size_t pending_count = 0;
  const RawChange* pending_first = nullptr;
  std::string pending_dn;
  auto commit_pending = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    Status status = server->Apply(pending);
    if (status.ok()) {
      applied += pending_count;
    } else if (pending_first != nullptr) {
      status = AnnotateReplayFailure(*pending_first, pending_dn, applied,
                                     status);
    }
    pending = UpdateTransaction();
    pending_txn = 0;
    pending_count = 0;
    pending_first = nullptr;
    pending_dn.clear();
    return status;
  };

  for (const RawChange& change : changes) {
    if (change.lines.empty() ||
        !EqualsIgnoreCase(change.lines[0].first, "dn")) {
      return ChangeError(change.line, "change record must start with dn:");
    }
    auto dn = DistinguishedName::Parse(change.lines[0].second);
    if (!dn.ok()) return ChangeError(change.line, dn.status().message());
    if (change.lines.size() < 2 ||
        !EqualsIgnoreCase(change.lines[1].first, "changetype")) {
      return ChangeError(change.line, "missing changetype:");
    }
    const std::string& type = change.lines[1].second;

    if (EqualsIgnoreCase(type, "add") || EqualsIgnoreCase(type, "delete")) {
      // Groupable records.
      if (!pending.empty() && change.txn != pending_txn) {
        LDAPBOUND_RETURN_IF_ERROR(commit_pending());
      }
      if (pending.empty()) {
        pending_txn = change.txn;
        pending_first = &change;
        pending_dn = change.lines[0].second;
      }
      if (EqualsIgnoreCase(type, "add")) {
        EntrySpec spec;
        for (size_t i = 2; i < change.lines.size(); ++i) {
          const auto& [attr, value] = change.lines[i];
          if (EqualsIgnoreCase(attr, "objectClass")) {
            spec.classes.push_back(value);
          } else {
            spec.values.emplace_back(attr, value);
          }
        }
        pending.Insert(*dn, std::move(spec));
      } else {
        pending.Delete(*dn);
      }
      ++pending_count;
      // A record with txn 0 is never grouped with its neighbors.
      if (change.txn == 0) LDAPBOUND_RETURN_IF_ERROR(commit_pending());
      continue;
    }

    // Non-groupable change: flush any pending transaction first.
    LDAPBOUND_RETURN_IF_ERROR(commit_pending());

    if (EqualsIgnoreCase(type, "modify")) {
      std::vector<Modification> mods;
      size_t i = 2;
      while (i < change.lines.size()) {
        const auto& [op, attr_name] = change.lines[i];
        bool add = EqualsIgnoreCase(op, "add");
        bool del = EqualsIgnoreCase(op, "delete");
        if (!add && !del) {
          return ChangeError(change.line,
                             "modify op must be add: or delete: (got '" +
                                 op + "')");
        }
        ++i;
        for (; i < change.lines.size() && change.lines[i].first != "-";
             ++i) {
          const auto& [attr, value] = change.lines[i];
          Modification mod;
          if (EqualsIgnoreCase(attr, "objectClass")) {
            mod.kind = add ? Modification::Kind::kAddClass
                           : Modification::Kind::kRemoveClass;
            auto cls = vocab.FindClass(value);
            if (!cls.ok()) {
              return ChangeError(change.line, cls.status().message());
            }
            mod.cls = *cls;
          } else {
            mod.kind = add ? Modification::Kind::kAddValue
                           : Modification::Kind::kRemoveValue;
            auto attr_id = vocab.FindAttribute(attr);
            if (!attr_id.ok()) {
              return ChangeError(change.line, attr_id.status().message());
            }
            mod.attr = *attr_id;
            auto parsed = Value::Parse(vocab.AttributeType(*attr_id), value);
            if (!parsed.ok()) {
              return ChangeError(change.line, parsed.status().message());
            }
            mod.value = *parsed;
          }
          mods.push_back(std::move(mod));
        }
        if (i < change.lines.size() && change.lines[i].first == "-") ++i;
      }
      Status status = server->Modify(*dn, mods);
      if (!status.ok()) {
        return AnnotateReplayFailure(change, dn->ToString(), applied, status);
      }
      ++applied;
      continue;
    }

    if (EqualsIgnoreCase(type, "modrdn") ||
        EqualsIgnoreCase(type, "moddn")) {
      std::string new_rdn;
      std::string new_superior;
      for (size_t i = 2; i < change.lines.size(); ++i) {
        const auto& [attr, value] = change.lines[i];
        if (EqualsIgnoreCase(attr, "newrdn")) new_rdn = value;
        if (EqualsIgnoreCase(attr, "newsuperior")) new_superior = value;
      }
      if (new_rdn.empty()) {
        return ChangeError(change.line, "modrdn without newrdn:");
      }
      DistinguishedName parent;
      if (!new_superior.empty()) {
        auto parsed = DistinguishedName::Parse(new_superior);
        if (!parsed.ok()) {
          return ChangeError(change.line, parsed.status().message());
        }
        parent = *parsed;
      }
      Status status = server->ModifyDn(*dn, parent, new_rdn);
      if (!status.ok()) {
        return AnnotateReplayFailure(change, dn->ToString(), applied, status);
      }
      ++applied;
      continue;
    }

    return ChangeError(change.line, "unknown changetype '" + type + "'");
  }
  LDAPBOUND_RETURN_IF_ERROR(commit_pending());
  return applied;
}

}  // namespace ldapbound
