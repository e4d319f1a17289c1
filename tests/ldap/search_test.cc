#include "ldap/search.h"

#include <gtest/gtest.h>

#include "ldap/filter.h"
#include "ldap/ldif.h"
#include "tests/testing/helpers.h"

namespace ldapbound {
namespace {

using testing::SimpleWorld;

class SearchTest : public ::testing::Test {
 protected:
  SearchTest() : directory_(world_.vocab) {
    const char* ldif =
        "dn: o=att\n"
        "objectClass: top\n"
        "objectClass: org\n"
        "ou: att\n"
        "\n"
        "dn: ou=labs,o=att\n"
        "objectClass: top\n"
        "objectClass: org\n"
        "ou: labs\n"
        "\n"
        "dn: uid=laks,ou=labs,o=att\n"
        "objectClass: top\n"
        "objectClass: person\n"
        "name: laks\n"
        "\n"
        "dn: uid=suciu,ou=labs,o=att\n"
        "objectClass: top\n"
        "objectClass: person\n"
        "name: dan\n";
    auto n = LoadLdif(ldif, &directory_);
    EXPECT_TRUE(n.ok()) << n.status();
  }

  std::vector<EntryId> Run(const std::string& base, SearchScope scope,
                           const std::string& filter) {
    SearchRequest request;
    request.base = *DistinguishedName::Parse(base);
    request.scope = scope;
    if (!filter.empty()) {
      request.filter = *ParseFilter(filter, *world_.vocab);
    }
    auto result = Search(directory_, request);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : std::vector<EntryId>{};
  }

  SimpleWorld world_;
  Directory directory_;
};

TEST_F(SearchTest, SubtreeScope) {
  EXPECT_EQ(Run("o=att", SearchScope::kSubtree, "").size(), 4u);
  EXPECT_EQ(Run("o=att", SearchScope::kSubtree, "(objectClass=person)").size(),
            2u);
  EXPECT_EQ(Run("ou=labs,o=att", SearchScope::kSubtree,
                "(objectClass=person)")
                .size(),
            2u);
}

TEST_F(SearchTest, ObjectClassPresenceMatchesEveryEntryInScope) {
  EXPECT_EQ(Run("o=att", SearchScope::kSubtree, "(objectClass=*)").size(),
            4u);
  EXPECT_EQ(
      Run("ou=labs,o=att", SearchScope::kOneLevel, "(objectClass=*)").size(),
      2u);
}

TEST_F(SearchTest, BaseScope) {
  auto hits = Run("ou=labs,o=att", SearchScope::kBase, "");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(directory_.entry(hits[0]).rdn(), "ou=labs");
  EXPECT_TRUE(Run("ou=labs,o=att", SearchScope::kBase,
                  "(objectClass=person)")
                  .empty());
}

TEST_F(SearchTest, OneLevelScope) {
  auto hits = Run("ou=labs,o=att", SearchScope::kOneLevel, "");
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(Run("o=att", SearchScope::kOneLevel, "(objectClass=person)")
                  .empty());
}

TEST_F(SearchTest, WholeForestSearch) {
  SearchRequest request;  // empty base
  request.scope = SearchScope::kSubtree;
  auto all = Search(directory_, request);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 4u);

  request.scope = SearchScope::kOneLevel;
  auto roots = Search(directory_, request);
  ASSERT_TRUE(roots.ok());
  EXPECT_EQ(roots->size(), 1u);

  request.scope = SearchScope::kBase;
  auto none = Search(directory_, request);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(SearchTest, MissingBaseFails) {
  SearchRequest request;
  request.base = *DistinguishedName::Parse("o=nowhere");
  auto result = Search(directory_, request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(SearchTest, FilterWithSubstringOverSubtree) {
  auto hits = Run("o=att", SearchScope::kSubtree, "(name=la*)");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(directory_.entry(hits[0]).rdn(), "uid=laks");
}

}  // namespace
}  // namespace ldapbound
