#include "consistency/witness.h"

#include <gtest/gtest.h>

#include "core/legality_checker.h"
#include "workload/white_pages.h"

namespace ldapbound {
namespace {

class WitnessHarness {
 public:
  WitnessHarness() : vocab_(std::make_shared<Vocabulary>()),
                     schema_(vocab_) {}

  ClassId C(const std::string& name) {
    ClassId cls = vocab_->InternClass(name);
    if (!schema_.classes().Contains(cls)) {
      EXPECT_TRUE(schema_.mutable_classes()
                      .AddCoreClass(cls, vocab_->top_class())
                      .ok());
    }
    return cls;
  }

  Result<Directory> Build() { return WitnessBuilder(schema_).Build(); }

  std::shared_ptr<Vocabulary> vocab_;
  DirectorySchema schema_;
};

TEST(WitnessTest, EmptySchemaGivesEmptyDirectory) {
  WitnessHarness h;
  auto witness = h.Build();
  ASSERT_TRUE(witness.ok()) << witness.status();
  EXPECT_EQ(witness->NumEntries(), 0u);
}

TEST(WitnessTest, RequiredClassGetsANode) {
  WitnessHarness h;
  ClassId person = h.C("person");
  h.schema_.mutable_structure().RequireClass(person);
  auto witness = h.Build();
  ASSERT_TRUE(witness.ok()) << witness.status();
  EXPECT_EQ(witness->NumEntries(), 1u);
  EXPECT_EQ(witness->CountWithClass(person), 1u);
}

TEST(WitnessTest, RequiredChainIsBuilt) {
  WitnessHarness h;
  ClassId a = h.C("a");
  ClassId b = h.C("b");
  ClassId c = h.C("c");
  h.schema_.mutable_structure().RequireClass(a);
  h.schema_.mutable_structure().Require(a, Axis::kChild, b);
  h.schema_.mutable_structure().Require(b, Axis::kDescendant, c);
  auto witness = h.Build();
  ASSERT_TRUE(witness.ok()) << witness.status();
  EXPECT_GE(witness->NumEntries(), 3u);
  EXPECT_GE(witness->CountWithClass(c), 1u);
}

TEST(WitnessTest, ParentAndAncestorObligations) {
  WitnessHarness h;
  ClassId a = h.C("a");
  ClassId b = h.C("b");
  ClassId c = h.C("c");
  h.schema_.mutable_structure().RequireClass(a);
  h.schema_.mutable_structure().Require(a, Axis::kParent, b);
  h.schema_.mutable_structure().Require(b, Axis::kAncestor, c);
  auto witness = h.Build();
  ASSERT_TRUE(witness.ok()) << witness.status();
  EXPECT_GE(witness->CountWithClass(b), 1u);
  EXPECT_GE(witness->CountWithClass(c), 1u);
}

TEST(WitnessTest, ForbiddenChildRoutedThroughIntermediate) {
  WitnessHarness h;
  ClassId a = h.C("a");
  ClassId b = h.C("b");
  h.schema_.mutable_structure().RequireClass(a);
  h.schema_.mutable_structure().Require(a, Axis::kDescendant, b);
  ASSERT_TRUE(
      h.schema_.mutable_structure().Forbid(a, Axis::kChild, b).ok());
  auto witness = h.Build();
  ASSERT_TRUE(witness.ok()) << witness.status();
  // The b node must be at depth >= 2 below the a node.
  EXPECT_GE(witness->NumEntries(), 3u);
}

TEST(WitnessTest, InconsistentSchemaRefused) {
  WitnessHarness h;
  ClassId a = h.C("a");
  ClassId b = h.C("b");
  h.schema_.mutable_structure().RequireClass(a);
  h.schema_.mutable_structure().Require(a, Axis::kDescendant, b);
  ASSERT_TRUE(
      h.schema_.mutable_structure().Forbid(a, Axis::kDescendant, b).ok());
  auto witness = h.Build();
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), StatusCode::kInconsistent);
}

TEST(WitnessTest, RequiredAttributesSynthesized) {
  WitnessHarness h;
  ClassId person = h.C("person");
  AttributeId name =
      h.vocab_->DefineAttribute("name", ValueType::kString).value();
  AttributeId age =
      h.vocab_->DefineAttribute("age", ValueType::kInteger).value();
  h.schema_.mutable_attributes().AddRequired(person, name);
  h.schema_.mutable_attributes().AddRequired(person, age);
  h.schema_.mutable_structure().RequireClass(person);
  auto witness = h.Build();
  ASSERT_TRUE(witness.ok()) << witness.status();
  const Entry& e = witness->entry(witness->roots().front());
  EXPECT_TRUE(e.HasAttribute(name));
  EXPECT_TRUE(e.HasAttribute(age));
}

TEST(WitnessTest, WitnessOfWhitePagesSchemaIsLegal) {
  auto vocab = std::make_shared<Vocabulary>();
  auto schema = MakeWhitePagesSchema(vocab);
  ASSERT_TRUE(schema.ok());
  auto witness = WitnessBuilder(*schema).Build();
  ASSERT_TRUE(witness.ok()) << witness.status();
  LegalityChecker checker(*schema);
  std::vector<Violation> violations;
  EXPECT_TRUE(checker.CheckLegal(*witness, &violations))
      << DescribeViolations(violations, *vocab);
  EXPECT_GT(witness->NumEntries(), 0u);
}

}  // namespace
}  // namespace ldapbound
