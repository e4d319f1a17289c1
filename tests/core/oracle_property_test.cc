// Property test for Theorem 3.1's reduction: the query-based structure
// checker must agree with the naive pairwise oracle on random forests and
// random structure schemas, both in verdict and in the set of offending
// entries — over the live directory and over a pinned snapshot of it.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/legality_checker.h"
#include "core/naive_checker.h"
#include "workload/random_gen.h"

namespace ldapbound {
namespace {

// Sorted (kind, entry, source, axis, target) tuples for comparison.
std::vector<std::tuple<int, EntryId, ClassId, int, ClassId>> Normalize(
    const std::vector<Violation>& violations) {
  std::vector<std::tuple<int, EntryId, ClassId, int, ClassId>> out;
  for (const Violation& v : violations) {
    ClassId source = v.kind == ViolationKind::kMissingRequiredClass
                         ? v.cls
                         : v.relationship.source;
    out.emplace_back(static_cast<int>(v.kind), v.entry, source,
                     static_cast<int>(v.relationship.axis),
                     v.relationship.target);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class OraclePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OraclePropertyTest, QueryCheckerMatchesNaiveOracle) {
  uint64_t seed = GetParam();
  auto vocab = std::make_shared<Vocabulary>();

  RandomSchemaOptions schema_options;
  schema_options.num_classes = 5;
  schema_options.num_required_classes = 2;
  schema_options.num_required_edges = 6;
  schema_options.num_forbidden_edges = 4;
  schema_options.seed = seed;
  auto schema = MakeRandomSchema(vocab, schema_options);
  ASSERT_TRUE(schema.ok()) << schema.status();

  // Entries are labeled with *leaf-closed* chains so content legality is
  // irrelevant; the palette is every core class (the random forest may
  // still label entries with incomparable chains — structure checking does
  // not care).
  std::vector<ClassId> palette = schema->classes().CoreClasses();

  for (int variant = 0; variant < 4; ++variant) {
    RandomForestOptions forest_options;
    forest_options.num_entries = 80;
    forest_options.seed = seed * 131 + variant;
    forest_options.max_classes_per_entry = 2;
    Directory d = MakeRandomForest(vocab, palette, forest_options);

    std::vector<Violation> fast, naive;
    bool fast_ok = LegalityChecker(*schema).CheckStructure(d, &fast);
    bool naive_ok = NaiveStructureChecker(*schema).CheckStructure(d, &naive);

    EXPECT_EQ(fast_ok, naive_ok) << "seed=" << seed;
    EXPECT_EQ(Normalize(fast), Normalize(naive)) << "seed=" << seed;
    // Boolean-only variants agree with the collecting ones.
    EXPECT_EQ(LegalityChecker(*schema).CheckStructure(d), fast_ok);

    d.EnableSnapshots();
    PinnedSnapshot pin = d.PinSnapshot();
    std::vector<Violation> pinned;
    EXPECT_EQ(LegalityChecker(*schema).CheckStructure(*pin, &pinned),
              naive_ok)
        << "[pinned] seed=" << seed;
    EXPECT_EQ(Normalize(pinned), Normalize(naive)) << "[pinned] seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OraclePropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace ldapbound
