// Sanity for the generators the property tests and benchmarks stand on.
#include <gtest/gtest.h>

#include "core/legality_checker.h"
#include "tests/testing/helpers.h"
#include "workload/random_gen.h"
#include "workload/white_pages.h"

namespace ldapbound {
namespace {

TEST(WhitePagesGeneratorTest, ScalesWithParameters) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = MakeWhitePagesSchema(vocab);
  ASSERT_TRUE(schema.ok());
  WhitePagesOptions small;
  small.org_unit_fanout = 2;
  small.org_unit_depth = 1;
  small.persons_per_unit = 3;
  auto d = MakeWhitePagesInstance(*schema, small);
  ASSERT_TRUE(d.ok());
  // 1 org + 2 units + 6 persons.
  EXPECT_EQ(d->NumEntries(), 9u);

  WhitePagesOptions bigger;
  bigger.org_unit_fanout = 4;
  bigger.org_unit_depth = 2;
  bigger.persons_per_unit = 5;
  auto d2 = MakeWhitePagesInstance(*schema, bigger);
  ASSERT_TRUE(d2.ok());
  // 1 + (4 + 16) units + 20 units * 5 persons.
  EXPECT_EQ(d2->NumEntries(), 1u + 20u + 100u);
}

TEST(WhitePagesGeneratorTest, DeterministicPerSeed) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = MakeWhitePagesSchema(vocab);
  ASSERT_TRUE(schema.ok());
  WhitePagesOptions options;
  options.seed = 123;
  auto a = MakeWhitePagesInstance(*schema, options);
  auto b = MakeWhitePagesInstance(*schema, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->NumEntries(), b->NumEntries());
  // Same seed, same class distribution.
  for (ClassId c = 0; c < vocab->num_classes(); ++c) {
    EXPECT_EQ(a->CountWithClass(c), b->CountWithClass(c)) << c;
  }
}

TEST(RandomForestTest, RespectsOptions) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<ClassId> palette{vocab->InternClass("x"),
                               vocab->InternClass("y")};
  RandomForestOptions options;
  options.num_entries = 200;
  options.max_classes_per_entry = 2;
  options.seed = 5;
  Directory d = MakeRandomForest(vocab, palette, options);
  EXPECT_EQ(d.NumEntries(), 200u);
  d.ForEachAlive([&](const Entry& e) {
    EXPECT_GE(e.classes().size(), 1u);
    EXPECT_LE(e.classes().size(), 2u);
  });
  // Deterministic per seed.
  Directory d2 = MakeRandomForest(vocab, palette, options);
  ASSERT_EQ(testing::Ids(d2.roots()), testing::Ids(d.roots()));
  for (EntryId root : d.roots()) {
    EXPECT_EQ(d2.SubtreeEntries(root), d.SubtreeEntries(root));
  }
}

TEST(RandomSchemaTest, ProducesWellFormedSchemas) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    RandomSchemaOptions options;
    options.num_classes = 7;
    options.seed = seed;
    auto schema = MakeRandomSchema(vocab, options);
    ASSERT_TRUE(schema.ok()) << seed;
    EXPECT_TRUE(schema->Validate().ok()) << seed;
    EXPECT_EQ(schema->classes().CoreClasses().size(), 8u);  // + top
    // Random picks may collide; Require() de-duplicates.
    EXPECT_LE(schema->structure().required().size(),
              options.num_required_edges);
    EXPECT_GE(schema->structure().required().size(), 1u);
  }
}

}  // namespace
}  // namespace ldapbound
