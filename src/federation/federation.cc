#include "federation/federation.h"

#include <unordered_map>
#include <unordered_set>

#include "update/subtree_snapshot.h"
#include "util/string_util.h"

namespace ldapbound {

namespace {

// True if `dn` equals `suffix` or lies beneath it.
bool IsUnder(const DistinguishedName& dn, const DistinguishedName& suffix) {
  if (dn.Depth() < suffix.Depth()) return false;
  size_t offset = dn.Depth() - suffix.Depth();
  for (size_t i = 0; i < suffix.Depth(); ++i) {
    if (!EqualsIgnoreCase(dn.rdns()[offset + i], suffix.rdns()[i])) {
      return false;
    }
  }
  return true;
}

// Drops the trailing `suffix` components: the DN local to a context whose
// absolute root DN is `suffix`'s parent scope.
Result<DistinguishedName> StripSuffix(const DistinguishedName& dn,
                                      const DistinguishedName& suffix) {
  if (!IsUnder(dn, suffix)) {
    return Status::InvalidArgument("DN is not under the given suffix");
  }
  std::vector<std::string> rdns(dn.rdns().begin(),
                                dn.rdns().end() - suffix.Depth());
  return DistinguishedName::Parse(Join(rdns, ","));
}

std::string AbsoluteDn(const DistinguishedName& local,
                       const DistinguishedName& mount_parent) {
  if (mount_parent.IsEmpty()) return local.ToString();
  return local.ToString() + "," + mount_parent.ToString();
}

}  // namespace

Result<Federation> Federation::Split(
    std::shared_ptr<Vocabulary> vocab, const Directory& source,
    const std::vector<DistinguishedName>& context_roots) {
  if (vocab.get() != &source.vocab()) {
    return Status::InvalidArgument(
        "split: the vocabulary is not the one the source was built over");
  }
  Federation federation;
  federation.referral_class_ = vocab->InternClass("referral");
  federation.vocab_ = std::move(vocab);

  // Resolve and validate the context roots.
  std::vector<EntryId> roots;
  for (const DistinguishedName& dn : context_roots) {
    LDAPBOUND_ASSIGN_OR_RETURN(EntryId id, ResolveDn(source, dn));
    roots.push_back(id);
  }
  const ForestIndex& index = source.GetIndex();
  for (size_t i = 0; i < roots.size(); ++i) {
    for (size_t j = 0; j < roots.size(); ++j) {
      if (i != j && (roots[i] == roots[j] ||
                     index.IsAncestor(roots[i], roots[j]))) {
        return Status::InvalidArgument(
            "context roots must be distinct and non-nested");
      }
    }
  }

  // Carve out the contexts.
  std::unordered_map<EntryId, size_t> context_of_root;
  for (size_t i = 0; i < roots.size(); ++i) {
    NamingContext context;
    EntryId parent = source.entry(roots[i]).parent();
    if (parent != kInvalidEntryId) {
      LDAPBOUND_ASSIGN_OR_RETURN(context.mount_parent,
                                 DnOf(source, parent));
    }
    context.directory = std::make_unique<Directory>(federation.vocab_);
    LDAPBOUND_ASSIGN_OR_RETURN(SubtreeSnapshot snapshot,
                               SubtreeSnapshot::Capture(source, roots[i]));
    LDAPBOUND_RETURN_IF_ERROR(
        snapshot.Restore(context.directory.get(), kInvalidEntryId).status());
    context_of_root.emplace(roots[i], i);
    federation.contexts_.push_back(std::move(context));
  }

  // Build the glue: a copy of the source with each context subtree
  // replaced by a referral placeholder.
  federation.glue_ = std::make_unique<Directory>(federation.vocab_);
  std::unordered_map<EntryId, EntryId> mapped;  // source id -> glue id
  std::unordered_set<EntryId> skipped_subtrees;
  for (EntryId id : source.SubtreeEntries(kInvalidEntryId)) {
    const Entry& e = source.entry(id);
    EntryId parent = e.parent();
    // Inside a carved-out subtree (but not its root)?
    bool inside = false;
    for (EntryId a = parent; a != kInvalidEntryId;
         a = source.entry(a).parent()) {
      if (skipped_subtrees.count(a) > 0) {
        inside = true;
        break;
      }
    }
    if (inside) continue;
    EntryId glue_parent =
        parent == kInvalidEntryId ? kInvalidEntryId : mapped.at(parent);
    if (context_of_root.count(id) > 0) {
      skipped_subtrees.insert(id);
      LDAPBOUND_ASSIGN_OR_RETURN(
          EntryId referral,
          federation.glue_->AddEntry(glue_parent, e.rdn(),
                                     {federation.referral_class_}, {}));
      mapped.emplace(id, referral);
      continue;
    }
    LDAPBOUND_ASSIGN_OR_RETURN(
        EntryId copy, federation.glue_->AddEntry(glue_parent, e.rdn(),
                                                 e.classes(), e.values()));
    mapped.emplace(id, copy);
  }
  return federation;
}

Result<Directory> Federation::Unify() const {
  Directory unified(vocab_);
  std::unordered_map<EntryId, EntryId> mapped;  // glue id -> unified id
  for (EntryId id : glue_->SubtreeEntries(kInvalidEntryId)) {
    const Entry& e = glue_->entry(id);
    EntryId parent =
        e.parent() == kInvalidEntryId ? kInvalidEntryId : mapped.at(e.parent());
    if (e.HasClass(referral_class_) && e.classes().size() == 1) {
      // Mount the corresponding context here.
      LDAPBOUND_ASSIGN_OR_RETURN(DistinguishedName dn, DnOf(*glue_, id));
      bool mounted = false;
      for (const NamingContext& context : contexts_) {
        const Directory& cd = *context.directory;
        std::string absolute = AbsoluteDn(*DnOf(cd, cd.roots().front()),
                                          context.mount_parent);
        if (EqualsIgnoreCase(absolute, dn.ToString())) {
          LDAPBOUND_ASSIGN_OR_RETURN(SubtreeSnapshot snapshot,
                                     SubtreeSnapshot::Capture(
                                         cd, cd.roots().front()));
          LDAPBOUND_ASSIGN_OR_RETURN(std::vector<EntryId> created,
                                     snapshot.Restore(&unified, parent));
          mapped.emplace(id, created.front());
          mounted = true;
          break;
        }
      }
      if (!mounted) {
        return Status::Internal("referral '" + dn.ToString() +
                                "' has no matching naming context");
      }
      continue;
    }
    LDAPBOUND_ASSIGN_OR_RETURN(
        EntryId copy,
        unified.AddEntry(parent, e.rdn(), e.classes(), e.values()));
    mapped.emplace(id, copy);
  }
  return unified;
}

Result<std::vector<std::string>> Federation::Search(
    const DistinguishedName& base, const MatcherPtr& filter) const {
  std::vector<std::string> out;
  auto matches = [&](const Directory& d, EntryId id) {
    const Entry& e = d.entry(id);
    if (e.HasClass(referral_class_) && e.classes().size() == 1) return false;
    return filter == nullptr || filter->Matches(e);
  };
  auto search_context_fully = [&](const NamingContext& context) {
    const Directory& cd = *context.directory;
    for (EntryId id : cd.SubtreeEntries(kInvalidEntryId)) {
      if (matches(cd, id)) {
        out.push_back(AbsoluteDn(*DnOf(cd, id), context.mount_parent));
      }
    }
  };
  auto search_context_from = [&](const NamingContext& context,
                                 EntryId from) {
    const Directory& cd = *context.directory;
    for (EntryId id : cd.SubtreeEntries(from)) {
      if (matches(cd, id)) {
        out.push_back(AbsoluteDn(*DnOf(cd, id), context.mount_parent));
      }
    }
  };

  if (base.IsEmpty()) {
    for (EntryId id : glue_->SubtreeEntries(kInvalidEntryId)) {
      if (matches(*glue_, id)) out.push_back(DnOf(*glue_, id)->ToString());
    }
    for (const NamingContext& context : contexts_) {
      search_context_fully(context);
    }
    return out;
  }

  auto glue_base = ResolveDn(*glue_, base);
  if (glue_base.ok()) {
    // Search the glue subtree; chase referrals found within it.
    for (EntryId id : glue_->SubtreeEntries(*glue_base)) {
      const Entry& e = glue_->entry(id);
      if (e.HasClass(referral_class_) && e.classes().size() == 1) {
        LDAPBOUND_ASSIGN_OR_RETURN(DistinguishedName dn, DnOf(*glue_, id));
        for (const NamingContext& context : contexts_) {
          const Directory& cd = *context.directory;
          std::string absolute = AbsoluteDn(*DnOf(cd, cd.roots().front()),
                                            context.mount_parent);
          if (EqualsIgnoreCase(absolute, dn.ToString())) {
            search_context_fully(context);
            break;
          }
        }
        continue;
      }
      if (matches(*glue_, id)) out.push_back(DnOf(*glue_, id)->ToString());
    }
    return out;
  }

  // The base must live inside one of the contexts.
  for (const NamingContext& context : contexts_) {
    const Directory& cd = *context.directory;
    DistinguishedName root_local = *DnOf(cd, cd.roots().front());
    auto root_abs = DistinguishedName::Parse(
        AbsoluteDn(root_local, context.mount_parent));
    if (!IsUnder(base, *root_abs)) continue;
    // Local DN inside the context = base minus the mount parent.
    LDAPBOUND_ASSIGN_OR_RETURN(DistinguishedName local,
                               StripSuffix(base, context.mount_parent));
    auto from = ResolveDn(cd, local);
    if (!from.ok()) return from.status();
    search_context_from(context, *from);
    return out;
  }
  return Status::NotFound("search base '" + base.ToString() +
                          "' not found in any partition");
}

bool Federation::CheckLegality(const DirectorySchema& schema,
                               std::vector<std::string>* violation_text) const {
  LegalityChecker checker(schema);
  bool ok = true;
  auto render = [&](const Directory& d, const std::vector<Violation>& vs,
                    const std::string& where) {
    (void)d;
    if (violation_text == nullptr) return;
    for (const Violation& v : vs) {
      violation_text->push_back(where + ": " + v.Describe(schema.vocab()));
    }
  };

  // Content: per partition, in isolation. Referral placeholders are
  // infrastructure, not data — skipped.
  std::vector<Violation> violations;
  glue_->ForEachAlive([&](const Entry& e) {
    if (e.HasClass(referral_class_) && e.classes().size() == 1) return;
    if (!checker.CheckEntryContent(*glue_, e.id(), &violations)) ok = false;
  });
  render(*glue_, violations, "glue");
  for (size_t i = 0; i < contexts_.size(); ++i) {
    violations.clear();
    if (!checker.CheckContent(*contexts_[i].directory, &violations)) {
      ok = false;
    }
    render(*contexts_[i].directory, violations,
           "context" + std::to_string(i));
  }

  // Structure + keys: only the unified view answers correctly.
  auto unified = Unify();
  if (!unified.ok()) {
    if (violation_text != nullptr) {
      violation_text->push_back(unified.status().ToString());
    }
    return false;
  }
  violations.clear();
  bool structure_ok = checker.CheckStructure(*unified, &violations);
  bool keys_ok = checker.CheckKeys(*unified, &violations);
  render(*unified, violations, "unified");
  return ok && structure_ok && keys_ok;
}

std::vector<bool> Federation::NaivePerPartitionStructureVerdicts(
    const DirectorySchema& schema) const {
  LegalityChecker checker(schema);
  std::vector<bool> verdicts;
  verdicts.push_back(checker.CheckStructure(*glue_));
  for (const NamingContext& context : contexts_) {
    verdicts.push_back(checker.CheckStructure(*context.directory));
  }
  return verdicts;
}

}  // namespace ldapbound
