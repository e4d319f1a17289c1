#include "query/matcher.h"

#include <gtest/gtest.h>

#include "tests/testing/helpers.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() : directory_(world_.vocab) {
    bob_ = directory_
               .AddEntry(kInvalidEntryId, "uid=bob",
                         {world_.top, world_.person},
                         {{world_.name, Value("Bob")},
                          {world_.age, Value(int64_t{31})}})
               .value();
  }

  Entry bob() const { return directory_.entry(bob_); }

  SimpleWorld world_;
  Directory directory_;
  EntryId bob_;
};

TEST_F(MatcherTest, ClassMatcher) {
  EXPECT_TRUE(MatchClass(world_.person)->Matches(bob()));
  EXPECT_FALSE(MatchClass(world_.org)->Matches(bob()));
  EXPECT_EQ(MatchClass(world_.person)->ToString(*world_.vocab),
            "objectClass=person");
}

TEST_F(MatcherTest, AttrEqualsMatcher) {
  EXPECT_TRUE(MatchAttrEquals(world_.name, Value("Bob"))->Matches(bob()));
  EXPECT_FALSE(MatchAttrEquals(world_.name, Value("Eve"))->Matches(bob()));
  EXPECT_TRUE(
      MatchAttrEquals(world_.age, Value(int64_t{31}))->Matches(bob()));
  EXPECT_EQ(MatchAttrEquals(world_.name, Value("Bob"))
                ->ToString(*world_.vocab),
            "name=Bob");
}

TEST_F(MatcherTest, AttrPresentMatcher) {
  EXPECT_TRUE(MatchAttrPresent(world_.age)->Matches(bob()));
  EXPECT_FALSE(MatchAttrPresent(world_.mail)->Matches(bob()));
  EXPECT_EQ(MatchAttrPresent(world_.age)->ToString(*world_.vocab), "age=*");
}

TEST_F(MatcherTest, TrueAndNot) {
  EXPECT_TRUE(MatchAll()->Matches(bob()));
  EXPECT_FALSE(MatchNot(MatchAll())->Matches(bob()));
  EXPECT_TRUE(MatchNot(MatchClass(world_.org))->Matches(bob()));
}

TEST_F(MatcherTest, AndOr) {
  MatcherPtr person_and_aged =
      MatchAnd({MatchClass(world_.person), MatchAttrPresent(world_.age)});
  EXPECT_TRUE(person_and_aged->Matches(bob()));
  MatcherPtr person_and_org =
      MatchAnd({MatchClass(world_.person), MatchClass(world_.org)});
  EXPECT_FALSE(person_and_org->Matches(bob()));
  MatcherPtr person_or_org =
      MatchOr({MatchClass(world_.org), MatchClass(world_.person)});
  EXPECT_TRUE(person_or_org->Matches(bob()));
  EXPECT_FALSE(MatchOr({})->Matches(bob()));  // empty OR is false
  EXPECT_TRUE(MatchAnd({})->Matches(bob()));  // empty AND is true
}

TEST_F(MatcherTest, NestedToString) {
  MatcherPtr m = MatchAnd({MatchClass(world_.person),
                           MatchNot(MatchAttrPresent(world_.mail))});
  EXPECT_EQ(m->ToString(*world_.vocab),
            "(&objectClass=person(!mail=*))");
}

}  // namespace
}  // namespace ldapbound
