// §6.1 extensions: single-valued attributes and key (globally unique)
// attributes.
#include <gtest/gtest.h>

#include "core/legality_checker.h"
#include "schema/schema_format.h"
#include "tests/testing/helpers.h"
#include "update/incremental.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

TEST(SingleValuedTest, VocabularyFlag) {
  Vocabulary vocab;
  AttributeId ssn =
      vocab.DefineAttribute("ssn", ValueType::kString, true).value();
  EXPECT_TRUE(vocab.IsSingleValued(ssn));
  AttributeId mail = vocab.DefineAttribute("mail", ValueType::kString).value();
  EXPECT_FALSE(vocab.IsSingleValued(mail));
  // Conflicting redefinition is rejected.
  EXPECT_EQ(vocab.DefineAttribute("ssn", ValueType::kString, false)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  // Identical redefinition is idempotent.
  EXPECT_EQ(*vocab.DefineAttribute("ssn", ValueType::kString, true), ssn);
}

TEST(SingleValuedTest, DirectoryEnforcesAtMostOneValue) {
  auto vocab = std::make_shared<Vocabulary>();
  AttributeId ssn =
      vocab->DefineAttribute("ssn", ValueType::kString, true).value();
  Directory d(vocab);
  EntryId id = d.AddEntry(kInvalidEntryId, "uid=x", {vocab->top_class()},
                          {{ssn, Value("123-45-6789")}})
                   .value();
  // Identical value: idempotent OK.
  EXPECT_TRUE(d.AddValue(id, ssn, Value("123-45-6789")).ok());
  // A second distinct value is refused.
  EXPECT_EQ(d.AddValue(id, ssn, Value("999-99-9999")).code(),
            StatusCode::kFailedPrecondition);
  // And at entry creation time too.
  auto bad = d.AddEntry(kInvalidEntryId, "uid=y", {vocab->top_class()},
                        {{ssn, Value("1")}, {ssn, Value("2")}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SingleValuedTest, SchemaFormatRoundTrip) {
  auto vocab = std::make_shared<Vocabulary>();
  const char* text =
      "attribute ssn string single\n"
      "attribute mail string\n"
      "key ssn\n"
      "class person : top {\n  allow ssn, mail\n}\n";
  auto schema = ParseDirectorySchema(text, vocab);
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_TRUE(vocab->IsSingleValued(*vocab->FindAttribute("ssn")));
  EXPECT_FALSE(vocab->IsSingleValued(*vocab->FindAttribute("mail")));
  ASSERT_EQ(schema->key_attributes().size(), 1u);
  EXPECT_EQ(schema->key_attributes()[0], *vocab->FindAttribute("ssn"));

  std::string printed = FormatDirectorySchema(*schema);
  EXPECT_NE(printed.find("attribute ssn string single"), std::string::npos);
  EXPECT_NE(printed.find("key ssn"), std::string::npos);
  auto vocab2 = std::make_shared<Vocabulary>();
  auto schema2 = ParseDirectorySchema(printed, vocab2);
  ASSERT_TRUE(schema2.ok()) << schema2.status() << "\n" << printed;
  EXPECT_EQ(FormatDirectorySchema(*schema2), printed);
}

class KeyTest : public ::testing::Test {
 protected:
  KeyTest() : d_(w_.vocab) {
    uid_ = w_.vocab->DefineAttribute("uid", ValueType::kString).value();
    w_.schema.mutable_attributes().AddAllowed(w_.top, uid_);
    w_.schema.AddKeyAttribute(uid_);
  }

  EntryId AddWithUid(EntryId parent, const std::string& rdn,
                     const std::string& uid) {
    return d_.AddEntry(parent, rdn, {w_.top},
                       {{uid_, Value(uid)}})
        .value();
  }

  SimpleWorld w_;
  Directory d_;
  AttributeId uid_;
};

TEST_F(KeyTest, UniqueValuesAreLegal) {
  AddWithUid(kInvalidEntryId, "uid=a", "a");
  AddWithUid(kInvalidEntryId, "uid=b", "b");
  LegalityChecker checker(w_.schema);
  EXPECT_TRUE(checker.CheckKeys(d_));
  EXPECT_TRUE(checker.CheckLegal(d_));
}

TEST_F(KeyTest, DuplicateDetected) {
  AddWithUid(kInvalidEntryId, "uid=a", "same");
  EntryId second = AddWithUid(kInvalidEntryId, "uid=b", "same");
  LegalityChecker checker(w_.schema);
  std::vector<Violation> out;
  EXPECT_FALSE(checker.CheckKeys(d_, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, ViolationKind::kDuplicateKeyValue);
  EXPECT_EQ(out[0].entry, second);
  EXPECT_EQ(out[0].attr, uid_);
  EXPECT_FALSE(checker.CheckLegal(d_));
  // Null-out short circuit agrees.
  EXPECT_FALSE(checker.CheckKeys(d_));
}

TEST_F(KeyTest, UniquenessIsGlobalAcrossClasses) {
  // §6.1: keys are unique across ALL entries, not within a class.
  EntryId a = AddWithUid(kInvalidEntryId, "uid=a", "x");
  ASSERT_TRUE(d_.AddClass(a, w_.org).ok());
  EntryId b = AddWithUid(kInvalidEntryId, "uid=b", "x");
  ASSERT_TRUE(d_.AddClass(b, w_.person).ok());
  LegalityChecker checker(w_.schema);
  EXPECT_FALSE(checker.CheckKeys(d_));
}

TEST_F(KeyTest, IncrementalInsertAgainstOldEntries) {
  AddWithUid(kInvalidEntryId, "uid=a", "taken");
  EntryId fresh = AddWithUid(kInvalidEntryId, "uid=b", "taken");
  EntrySet delta;
  delta.Insert(fresh);
  IncrementalValidator validator(w_.schema);
  std::vector<Violation> out;
  EXPECT_FALSE(validator.CheckAfterInsert(d_, delta, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, ViolationKind::kDuplicateKeyValue);
  EXPECT_EQ(out[0].entry, fresh);
}

TEST_F(KeyTest, IncrementalInsertDuplicateWithinDelta) {
  EntryId x = AddWithUid(kInvalidEntryId, "uid=x", "dup");
  EntryId y = AddWithUid(kInvalidEntryId, "uid=y", "dup");
  EntrySet delta;
  delta.Insert(x);
  delta.Insert(y);
  IncrementalValidator validator(w_.schema);
  EXPECT_FALSE(validator.CheckAfterInsert(d_, delta));
}

TEST_F(KeyTest, IncrementalInsertUniqueIsFine) {
  AddWithUid(kInvalidEntryId, "uid=a", "a");
  EntryId fresh = AddWithUid(kInvalidEntryId, "uid=b", "b");
  EntrySet delta;
  delta.Insert(fresh);
  IncrementalValidator validator(w_.schema);
  EXPECT_TRUE(validator.CheckAfterInsert(d_, delta));
}

TEST_F(KeyTest, DeletionCannotViolateKeys) {
  AddWithUid(kInvalidEntryId, "uid=a", "a");
  EntryId b = AddWithUid(kInvalidEntryId, "uid=b", "b");
  EntrySet delta;
  delta.Insert(b);
  IncrementalValidator validator(w_.schema);
  EXPECT_TRUE(validator.CheckBeforeDelete(d_, b, delta));
}

TEST(KeyValidationTest, ObjectClassCannotBeKey) {
  auto vocab = std::make_shared<Vocabulary>();
  DirectorySchema schema(vocab);
  schema.AddKeyAttribute(vocab->objectclass_attr());
  EXPECT_EQ(schema.Validate().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ldapbound
