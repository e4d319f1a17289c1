#include "ldap/ldif.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "ldap/dn.h"
#include "tests/testing/helpers.h"
#include "util/string_util.h"

namespace ldapbound {
namespace {

using testing::SimpleWorld;

constexpr char kSample[] = R"(# a comment
dn: o=att
objectClass: top
objectClass: org
ou: research

dn: uid=laks,o=att
objectClass: top
objectClass: person
name: laks lakshmanan
mail: laks@cs.concordia.ca
mail: laks@cse.iitb.ernet.in
)";

TEST(LdifTest, LoadBasic) {
  SimpleWorld w;
  Directory d(w.vocab);
  auto n = LoadLdif(kSample, &d);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  auto laks = ResolveDn(d, *DistinguishedName::Parse("uid=laks,o=att"));
  ASSERT_TRUE(laks.ok());
  const Entry& e = d.entry(*laks);
  EXPECT_TRUE(e.HasClass(w.person));
  EXPECT_EQ(e.GetValues(w.mail).size(), 2u);
  EXPECT_EQ(e.GetValues(w.name)[0].AsString(), "laks lakshmanan");
}

TEST(LdifTest, ContinuationLines) {
  SimpleWorld w;
  Directory d(w.vocab);
  std::string text =
      "dn: o=att\n"
      "objectClass: top\n"
      "name: a very long\n"
      "  name indeed\n";
  ASSERT_TRUE(LoadLdif(text, &d).ok());
  EntryId root = d.roots().front();
  EXPECT_EQ(d.entry(root).GetValues(w.name)[0].AsString(),
            "a very long name indeed");
}

TEST(LdifTest, MissingParentFails) {
  SimpleWorld w;
  Directory d(w.vocab);
  // o=att appears nowhere in the file, so the child can never resolve.
  std::string text =
      "dn: uid=laks,o=att\n"
      "objectClass: top\n";
  auto n = LoadLdif(text, &d);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(n.status().message().find("does not exist"), std::string::npos)
      << n.status();
  // The diagnostic points at the record's dn: line.
  EXPECT_NE(n.status().message().find("line 1"), std::string::npos)
      << n.status();
}

TEST(LdifTest, ChildrenBeforeParentsResolved) {
  SimpleWorld w;
  Directory d(w.vocab);
  // Records deliberately shuffled: grandchild, root, child.
  std::string text =
      "dn: uid=laks,ou=research,o=att\n"
      "objectClass: top\n"
      "objectClass: person\n"
      "name: laks\n"
      "\n"
      "dn: o=att\n"
      "objectClass: top\n"
      "objectClass: org\n"
      "ou: hq\n"
      "\n"
      "dn: ou=research,o=att\n"
      "objectClass: top\n"
      "objectClass: org\n"
      "ou: research\n";
  auto n = LoadLdif(text, &d);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 3u);
  auto laks = ResolveDn(d, *DistinguishedName::Parse("uid=laks,ou=research,o=att"));
  ASSERT_TRUE(laks.ok());
  EXPECT_EQ(d.entry(*laks).GetValues(w.name)[0].AsString(), "laks");
  // Round-trips: the writer emits preorder, which reloads cleanly.
  std::string out = WriteLdif(d);
  Directory d2(w.vocab);
  ASSERT_TRUE(LoadLdif(out, &d2).ok());
  EXPECT_EQ(WriteLdif(d2), out);
}

TEST(LdifTest, FoldedCommentAtFileStart) {
  SimpleWorld w;
  Directory d(w.vocab);
  // RFC 2849: a leading-space line folds into the previous line — here a
  // comment — so it must be skipped, not treated as a dangling
  // continuation (the old tokenizer errored on this input).
  std::string text =
      "# a comment that is\n"
      "  folded across two lines\n"
      "dn: o=att\n"
      "objectClass: top\n";
  auto n = LoadLdif(text, &d);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 1u);
}

TEST(LdifTest, CommentBetweenValueAndContinuation) {
  SimpleWorld w;
  Directory d(w.vocab);
  // The continuation after the comment extends the *comment*, not the
  // pending name value (the old tokenizer glued it onto the value).
  std::string text =
      "dn: o=att\n"
      "objectClass: top\n"
      "name: laks\n"
      "# interleaved comment\n"
      " with a continuation\n"
      "ou: research\n";
  auto n = LoadLdif(text, &d);
  ASSERT_TRUE(n.ok()) << n.status();
  const Entry& e = d.entry(d.roots().front());
  EXPECT_EQ(e.GetValues(w.name)[0].AsString(), "laks");
  EXPECT_EQ(e.GetValues(w.ou)[0].AsString(), "research");
}

TEST(LdifTest, CommentDoesNotBreakFollowingFold) {
  SimpleWorld w;
  Directory d(w.vocab);
  // A comment before an attr line must not suppress folding of that
  // attr's own continuation lines.
  std::string text =
      "dn: o=att\n"
      "objectClass: top\n"
      "# comment\n"
      "name: a very long\n"
      "  name indeed\n";
  ASSERT_TRUE(LoadLdif(text, &d).ok());
  EXPECT_EQ(d.entry(d.roots().front()).GetValues(w.name)[0].AsString(),
            "a very long name indeed");
}

TEST(LdifTest, OnlyFillSpaceConsumed) {
  SimpleWorld w;
  Directory d(w.vocab);
  // RFC 2849: exactly one FILL space after the colon is separator; any
  // further whitespace belongs to the value (the old parser stripped the
  // whole value on both sides).
  std::string text =
      "dn: o=att\n"
      "objectClass: top\n"
      "name:  two leading means one kept\n"
      "ou: trailing kept \n";
  ASSERT_TRUE(LoadLdif(text, &d).ok());
  const Entry& e = d.entry(d.roots().front());
  EXPECT_EQ(e.GetValues(w.name)[0].AsString(), " two leading means one kept");
  EXPECT_EQ(e.GetValues(w.ou)[0].AsString(), "trailing kept ");
}

TEST(LdifTest, NoFillSpaceAccepted) {
  SimpleWorld w;
  Directory d(w.vocab);
  // "attr:value" with no FILL space is valid LDIF.
  std::string text =
      "dn: o=att\n"
      "objectClass:top\n"
      "name:laks\n";
  ASSERT_TRUE(LoadLdif(text, &d).ok());
  EXPECT_EQ(d.entry(d.roots().front()).GetValues(w.name)[0].AsString(), "laks");
}

TEST(LdifTest, RecordWithoutDnFails) {
  SimpleWorld w;
  Directory d(w.vocab);
  EXPECT_FALSE(LoadLdif("objectClass: top\n", &d).ok());
}

TEST(LdifTest, MalformedLineFails) {
  SimpleWorld w;
  Directory d(w.vocab);
  EXPECT_FALSE(LoadLdif("dn: o=a\nobjectClass top\n", &d).ok());
}

TEST(LdifTest, TypedValueParsing) {
  SimpleWorld w;
  Directory d(w.vocab);
  std::string good =
      "dn: uid=bob\n"
      "objectClass: top\n"
      "age: 42\n";
  ASSERT_TRUE(LoadLdif(good, &d).ok());
  EXPECT_EQ(d.entry(d.roots().front()).GetValues(w.age)[0].AsInteger(), 42);

  Directory d2(w.vocab);
  std::string bad =
      "dn: uid=bob\n"
      "objectClass: top\n"
      "age: forty\n";
  EXPECT_FALSE(LoadLdif(bad, &d2).ok());
}

TEST(LdifTest, WriteThenLoadRoundTrips) {
  SimpleWorld w;
  Directory d(w.vocab);
  ASSERT_TRUE(LoadLdif(kSample, &d).ok());
  std::string out = WriteLdif(d);

  Directory d2(w.vocab);
  auto n = LoadLdif(out, &d2);
  ASSERT_TRUE(n.ok()) << n.status() << "\n" << out;
  EXPECT_EQ(*n, 2u);
  auto laks = ResolveDn(d2, *DistinguishedName::Parse("uid=laks,o=att"));
  ASSERT_TRUE(laks.ok());
  EXPECT_EQ(d2.entry(*laks).GetValues(w.mail).size(), 2u);
  EXPECT_EQ(WriteLdif(d2), out);
}

TEST(LdifTest, Base64ValuesDecoded) {
  SimpleWorld w;
  Directory d(w.vocab);
  // "caf\xc3\xa9 row" base64-encoded.
  std::string text =
      "dn: o=att\n"
      "objectClass: top\n"
      "name:: Y2Fmw6kgcm93\n";
  ASSERT_TRUE(LoadLdif(text, &d).ok());
  EXPECT_EQ(d.entry(d.roots().front()).GetValues(w.name)[0].AsString(),
            "caf\xc3\xa9 row");
}

TEST(LdifTest, UnsafeValuesWrittenAsBase64AndRoundTrip) {
  SimpleWorld w;
  Directory d(w.vocab);
  EntryId root =
      d.AddEntry(kInvalidEntryId, "o=att", {w.top},
                 {{w.name, Value(" leading space and caf\xc3\xa9")}})
          .value();
  (void)root;
  std::string out = WriteLdif(d);
  EXPECT_NE(out.find("name:: "), std::string::npos);
  Directory d2(w.vocab);
  ASSERT_TRUE(LoadLdif(out, &d2).ok());
  EXPECT_EQ(d2.entry(d2.roots().front()).GetValues(w.name)[0].AsString(),
            " leading space and caf\xc3\xa9");
  EXPECT_EQ(WriteLdif(d2), out);
}

TEST(LdifTest, WriteLoadWriteIsByteIdentical) {
  SimpleWorld w;
  Directory d(w.vocab);
  // A directory full of awkward values: leading/trailing whitespace,
  // UTF-8, colons, an empty value. Write → Load → Write must be
  // byte-identical (RFC 2849 fidelity).
  EntryId root =
      d.AddEntry(kInvalidEntryId, "o=att", {w.top, w.org},
                 {{w.ou, Value("research ")},  // trailing space
                  {w.name, Value("caf\xc3\xa9 \xe2\x98\x95")}})
          .value();
  ASSERT_TRUE(d.AddEntry(root, "uid=a", {w.top, w.person},
                         {{w.name, Value(" leading")},
                          {w.mail, Value("a:b::c")},
                          {w.ou, Value("")}})
                  .ok());
  ASSERT_TRUE(d.AddEntry(root, "uid=b", {w.top, w.person},
                         {{w.name, Value("plain value")}})
                  .ok());
  // A depth-3 chain under the root, and an RDN holding an escaped comma.
  EntryId lab = d.AddEntry(root, "ou=lab", {w.top, w.org},
                           {{w.ou, Value("lab")}})
                    .value();
  EntryId team = d.AddEntry(lab, "ou=team", {w.top, w.org},
                            {{w.ou, Value("team")}})
                     .value();
  ASSERT_TRUE(d.AddEntry(team, "uid=deep", {w.top, w.person},
                         {{w.name, Value("deep")}})
                  .ok());
  ASSERT_TRUE(d.AddEntry(root, "cn=a\\,b", {w.top, w.person},
                         {{w.name, Value("comma")}})
                  .ok());

  std::string out1 = WriteLdif(d);
  // Each dn: line is the DN DnOf names for its entry, in preorder.
  std::vector<std::string> dn_lines;
  for (std::string_view line : Split(out1, '\n')) {
    if (line.starts_with("dn: ")) dn_lines.emplace_back(line.substr(4));
  }
  std::vector<std::string> expected_dns;
  for (EntryId id : d.SubtreeEntries(root)) {
    expected_dns.push_back(DnOf(d, id)->ToString());
  }
  EXPECT_EQ(dn_lines, expected_dns);
  EXPECT_NE(out1.find("dn: uid=deep,ou=team,ou=lab,o=att\n"),
            std::string::npos);
  EXPECT_NE(out1.find("dn: cn=a\\,b,o=att\n"), std::string::npos);

  Directory d2(w.vocab);
  auto n = LoadLdif(out1, &d2);
  ASSERT_TRUE(n.ok()) << n.status() << "\n" << out1;
  EXPECT_EQ(*n, 7u);
  std::string out2 = WriteLdif(d2);
  EXPECT_EQ(out2, out1);

  // And once more through a third generation, for good measure.
  Directory d3(w.vocab);
  ASSERT_TRUE(LoadLdif(out2, &d3).ok());
  EXPECT_EQ(WriteLdif(d3), out2);
}

TEST(LdifTest, BadBase64Rejected) {
  SimpleWorld w;
  Directory d(w.vocab);
  std::string text =
      "dn: o=att\n"
      "objectClass: top\n"
      "name:: !!!!\n";
  EXPECT_FALSE(LoadLdif(text, &d).ok());
}

TEST(LdifTest, UrlValuesRejected) {
  SimpleWorld w;
  Directory d(w.vocab);
  std::string text =
      "dn: o=att\n"
      "objectClass: top\n"
      "name:< file:///etc/passwd\n";
  EXPECT_FALSE(LoadLdif(text, &d).ok());
}

TEST(LdifTest, CrLfAccepted) {
  SimpleWorld w;
  Directory d(w.vocab);
  std::string text = "dn: o=att\r\nobjectClass: top\r\n";
  ASSERT_TRUE(LoadLdif(text, &d).ok());
  EXPECT_EQ(d.NumEntries(), 1u);
}

}  // namespace
}  // namespace ldapbound
