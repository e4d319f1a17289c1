#include "workload/random_gen.h"

#include <algorithm>
#include <random>
#include <string>

namespace ldapbound {

Directory MakeRandomForest(std::shared_ptr<Vocabulary> vocab,
                           const std::vector<ClassId>& palette,
                           const RandomForestOptions& options) {
  Directory directory(std::move(vocab));
  std::mt19937_64 rng(options.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<size_t> pick_class(0, palette.size() - 1);
  std::uniform_int_distribution<size_t> pick_count(
      1, std::max<size_t>(1, options.max_classes_per_entry));

  std::vector<EntryId> created;
  created.reserve(options.num_entries);
  for (size_t i = 0; i < options.num_entries; ++i) {
    EntryId parent = kInvalidEntryId;
    if (!created.empty() && coin(rng) >= options.root_probability) {
      std::uniform_int_distribution<size_t> pick_parent(0,
                                                        created.size() - 1);
      parent = created[pick_parent(rng)];
    }
    std::vector<ClassId> classes;
    size_t count = pick_count(rng);
    for (size_t c = 0; c < count; ++c) classes.push_back(palette[pick_class(rng)]);
    EntryId id = directory
                     .AddEntry(parent, "cn=r" + std::to_string(i),
                               std::move(classes), {})
                     .value();
    created.push_back(id);
  }
  return directory;
}

Result<DirectorySchema> MakeRandomSchema(std::shared_ptr<Vocabulary> vocab,
                                         const RandomSchemaOptions& options) {
  std::mt19937_64 rng(options.seed);
  Vocabulary& v = *vocab;
  DirectorySchema schema(std::move(vocab));
  ClassSchema& classes = schema.mutable_classes();
  StructureSchema& structure = schema.mutable_structure();

  std::vector<ClassId> pool{classes.top_class()};
  for (size_t i = 0; i < options.num_classes; ++i) {
    ClassId cls = v.InternClass("rc" + std::to_string(options.seed) + "_" +
                                std::to_string(i));
    std::uniform_int_distribution<size_t> pick_parent(0, pool.size() - 1);
    LDAPBOUND_RETURN_IF_ERROR(classes.AddCoreClass(cls, pool[pick_parent(rng)]));
    pool.push_back(cls);
  }
  std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
  std::uniform_int_distribution<int> pick_axis(0, 3);
  std::uniform_int_distribution<int> pick_down(0, 1);

  for (size_t i = 0; i < options.num_required_classes; ++i) {
    structure.RequireClass(pool[pick(rng)]);
  }
  for (size_t i = 0; i < options.num_required_edges; ++i) {
    structure.Require(pool[pick(rng)], static_cast<Axis>(pick_axis(rng)),
                      pool[pick(rng)]);
  }
  for (size_t i = 0; i < options.num_forbidden_edges; ++i) {
    Axis axis = pick_down(rng) == 0 ? Axis::kChild : Axis::kDescendant;
    LDAPBOUND_RETURN_IF_ERROR(
        structure.Forbid(pool[pick(rng)], axis, pool[pick(rng)]));
  }
  return schema;
}

}  // namespace ldapbound
