// The parallel legality engine must be invisible in its output: every
// CheckOptions configuration (thread count, grain, pool) reports exactly
// the violation list a serial run reports, in the same order. These tests
// build a directory with violations in every category of Definition 2.7
// (plus §6.1 keys) and compare configurations element-wise. They are also
// the primary ThreadSanitizer target for the checker (see LDAPBOUND_TSAN).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/legality_checker.h"
#include "query/evaluator.h"
#include "query/matcher.h"
#include "query/query.h"
#include "tests/testing/helpers.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace ldapbound {
namespace {

using testing::AddBare;
using testing::SimpleWorld;

class ParallelLegalityTest : public ::testing::Test {
 protected:
  ParallelLegalityTest() : d_(w_.vocab), legal_(w_.vocab) {
    // Extra vocabulary: a key attribute, a required-but-absent core class,
    // and a class the schema has never heard of.
    uid_ = w_.vocab->DefineAttribute("uid", ValueType::kString).value();
    w_.schema.mutable_attributes().AddAllowed(w_.top, uid_);
    w_.schema.AddKeyAttribute(uid_);
    board_ = w_.vocab->InternClass("board");
    w_.schema.mutable_classes().AddCoreClass(board_, w_.top);
    ghost_ = w_.vocab->InternClass("ghost");

    StructureSchema& structure = w_.schema.mutable_structure();
    structure.RequireClass(w_.person);
    structure.RequireClass(board_);  // violated: no board entry in d_
    structure.Require(w_.org, Axis::kDescendant, w_.person);
    EXPECT_TRUE(structure.Forbid(w_.person, Axis::kChild, w_.top).ok());

    BuildIllegal();
    BuildLegal();
  }

  // Every violation category, interleaved with legal filler so that small
  // grains split the id space across many shards.
  void BuildIllegal() {
    EntryId acme = AddOrg(d_, kInvalidEntryId, "o=acme", "acme");
    AddFillerPersons(d_, acme, /*count=*/10, /*tag=*/"a");
    AddBare(d_, acme, "cn=ghostly", {w_.top, ghost_});      // kUnknownClass
    AddBare(d_, acme, "cn=box", {w_.mailbox});              // kNoCoreClass
    AddFillerPersons(d_, acme, /*count=*/10, /*tag=*/"b");
    AddBare(d_, acme, "cn=eng", {w_.top, w_.engineer});     // kMissingSuperclass
    {
      // kExclusiveClasses (org and person are incomparable cores); also
      // missing both required attributes, exercising the slow-path
      // fallback of the memoized content check.
      AddBare(d_, acme, "cn=both", {w_.top, w_.org, w_.person});
    }
    {
      EntryId e =
          AddOrg(d_, acme, "ou=post", "post");              // kDisallowedAuxiliary
      EXPECT_TRUE(d_.AddClass(e, w_.mailbox).ok());
      AddPerson(d_, e, "uid=clerk", "clerk", "clerk");
    }
    AddFillerPersons(d_, acme, /*count=*/10, /*tag=*/"c");
    AddBare(d_, acme, "uid=anon", {w_.top, w_.person});     // kMissingRequiredAttribute
    {
      EntryId e = AddOrg(d_, acme, "ou=aged", "aged");      // kDisallowedAttribute
      ASSERT_TRUE(d_.AddValue(e, w_.age, Value(int64_t{9})).ok());
      AddPerson(d_, e, "uid=keeper", "keeper", "keeper");
    }
    AddOrg(d_, acme, "ou=empty", "empty");                  // kRequiredRelationship
    {
      EntryId p = AddPerson(d_, acme, "uid=parent", "parent", "parent");
      AddBare(d_, p, "cn=child", {w_.top});                 // kForbiddenRelationship
    }
    AddFillerPersons(d_, acme, /*count=*/10, /*tag=*/"d");
    AddPerson(d_, acme, "uid=dup1", "dup1", "same");        // kDuplicateKeyValue
    AddPerson(d_, acme, "uid=dup2", "dup2", "same");
    AddPerson(d_, acme, "uid=dup3", "dup3", "same");
  }

  // Satisfies every constraint: persons under the org, a board entry,
  // unique uids, no person children.
  void BuildLegal() {
    EntryId acme = AddOrg(legal_, kInvalidEntryId, "o=acme", "acme");
    AddBare(legal_, kInvalidEntryId, "cn=board", {w_.top, board_});
    AddFillerPersons(legal_, acme, /*count=*/25, /*tag=*/"L");
  }

  EntryId AddOrg(Directory& d, EntryId parent, const std::string& rdn,
                 const std::string& ou) {
    EntryId id = AddBare(d, parent, rdn, {w_.top, w_.org});
    EXPECT_TRUE(d.AddValue(id, w_.ou, Value(ou)).ok());
    return id;
  }

  EntryId AddPerson(Directory& d, EntryId parent, const std::string& rdn,
                    const std::string& name, const std::string& uid) {
    EntryId id = AddBare(d, parent, rdn, {w_.top, w_.person});
    EXPECT_TRUE(d.AddValue(id, w_.name, Value(name)).ok());
    EXPECT_TRUE(d.AddValue(id, uid_, Value(uid)).ok());
    return id;
  }

  void AddFillerPersons(Directory& d, EntryId parent, int count,
                        const std::string& tag) {
    for (int i = 0; i < count; ++i) {
      std::string n = tag + std::to_string(i);
      AddPerson(d, parent, "uid=" + n, n, n);
    }
  }

  static std::vector<CheckOptions> Configurations(ThreadPool* own_pool) {
    return {
        {.num_threads = 1},
        {.num_threads = 2, .grain = 1},
        {.num_threads = 4, .grain = 3},
        {.num_threads = 4, .grain = 5, .pool = own_pool},
        {.num_threads = 0, .grain = 7},  // hardware concurrency
    };
  }

  SimpleWorld w_;
  Directory d_;       // one violation of every kind, plus filler
  Directory legal_;   // satisfies the whole schema
  AttributeId uid_;
  ClassId board_, ghost_;
};

TEST_F(ParallelLegalityTest, SerialReportsEveryCategory) {
  LegalityChecker checker(w_.schema, {.num_threads = 1});
  std::vector<Violation> out;
  EXPECT_FALSE(checker.CheckLegal(d_, &out));
  auto count = [&](ViolationKind kind) {
    size_t n = 0;
    for (const Violation& v : out) n += (v.kind == kind);
    return n;
  };
  EXPECT_EQ(count(ViolationKind::kMissingRequiredAttribute), 3u);  // anon + both×2
  EXPECT_EQ(count(ViolationKind::kDisallowedAttribute), 1u);
  EXPECT_EQ(count(ViolationKind::kUnknownClass), 1u);
  EXPECT_EQ(count(ViolationKind::kNoCoreClass), 1u);
  EXPECT_EQ(count(ViolationKind::kMissingSuperclass), 1u);
  EXPECT_EQ(count(ViolationKind::kExclusiveClasses), 1u);
  EXPECT_EQ(count(ViolationKind::kDisallowedAuxiliary), 1u);
  EXPECT_EQ(count(ViolationKind::kMissingRequiredClass), 1u);
  // ou=empty, plus cn=both (an org with no person below it).
  EXPECT_EQ(count(ViolationKind::kRequiredRelationship), 2u);
  EXPECT_EQ(count(ViolationKind::kForbiddenRelationship), 1u);
  EXPECT_EQ(count(ViolationKind::kDuplicateKeyValue), 2u);  // dup2, dup3
}

TEST_F(ParallelLegalityTest, ParallelCheckLegalIdenticalToSerial) {
  std::vector<Violation> serial;
  EXPECT_FALSE(
      LegalityChecker(w_.schema, {.num_threads = 1}).CheckLegal(d_, &serial));
  ASSERT_FALSE(serial.empty());

  ThreadPool own_pool(4);
  for (const CheckOptions& options : Configurations(&own_pool)) {
    LegalityChecker checker(w_.schema, options);
    std::vector<Violation> out;
    EXPECT_FALSE(checker.CheckLegal(d_, &out));
    ASSERT_EQ(out.size(), serial.size())
        << "threads=" << options.num_threads << " grain=" << options.grain;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(out[i] == serial[i])
          << "violation " << i << " differs (threads=" << options.num_threads
          << " grain=" << options.grain << "):\n  serial:   "
          << serial[i].Describe(*w_.vocab) << "\n  parallel: "
          << out[i].Describe(*w_.vocab);
    }
  }
}

TEST_F(ParallelLegalityTest, ComponentPassesIdenticalToSerial) {
  LegalityChecker serial(w_.schema, {.num_threads = 1});
  std::vector<Violation> content1, structure1, keys1;
  serial.CheckContent(d_, &content1);
  serial.CheckStructure(d_, &structure1);
  serial.CheckKeys(d_, &keys1);
  ASSERT_FALSE(content1.empty());
  ASSERT_FALSE(structure1.empty());
  ASSERT_FALSE(keys1.empty());

  // The snapshot overload is the same Figure-4 checker: on a pinned
  // snapshot it reports exactly the live list, in every configuration.
  d_.PublishSnapshot();
  PinnedSnapshot pin = d_.PinSnapshot();
  ASSERT_TRUE(pin);

  ThreadPool own_pool(4);
  for (const CheckOptions& options : Configurations(&own_pool)) {
    LegalityChecker checker(w_.schema, options);
    std::vector<Violation> content2, structure2, keys2, pinned;
    EXPECT_FALSE(checker.CheckContent(d_, &content2));
    EXPECT_FALSE(checker.CheckStructure(d_, &structure2));
    EXPECT_FALSE(checker.CheckKeys(d_, &keys2));
    EXPECT_FALSE(checker.CheckStructure(*pin, &pinned));
    EXPECT_TRUE(content2 == content1);
    EXPECT_TRUE(structure2 == structure1);
    EXPECT_TRUE(keys2 == keys1);
    EXPECT_TRUE(pinned == structure1);
  }
}

TEST_F(ParallelLegalityTest, ShortCircuitVerdictAgrees) {
  d_.PublishSnapshot();
  legal_.PublishSnapshot();
  PinnedSnapshot illegal_pin = d_.PinSnapshot();
  PinnedSnapshot legal_pin = legal_.PinSnapshot();
  ThreadPool own_pool(4);
  for (const CheckOptions& options : Configurations(&own_pool)) {
    LegalityChecker checker(w_.schema, options);
    // Null `out` takes the short-circuit / lazy-emptiness paths; the
    // verdict must match the materializing run on both directories.
    EXPECT_FALSE(checker.CheckContent(d_));
    EXPECT_FALSE(checker.CheckStructure(d_));
    EXPECT_FALSE(checker.CheckKeys(d_));
    EXPECT_FALSE(checker.CheckLegal(d_));
    EXPECT_TRUE(checker.CheckContent(legal_));
    EXPECT_TRUE(checker.CheckStructure(legal_));
    EXPECT_FALSE(checker.CheckStructure(*illegal_pin));
    EXPECT_TRUE(checker.CheckStructure(*legal_pin));
    EXPECT_TRUE(checker.CheckKeys(legal_));
    EXPECT_TRUE(checker.CheckLegal(legal_));
    std::vector<Violation> none;
    EXPECT_TRUE(checker.CheckLegal(legal_, &none));
    EXPECT_TRUE(none.empty());
  }
}

TEST_F(ParallelLegalityTest, StructureStatsAggregateAcrossWorkers) {
  std::vector<Violation> out1, out4;
  EvaluatorStats serial, parallel;
  LegalityChecker(w_.schema, {.num_threads = 1})
      .CheckStructure(d_, &out1, &serial);
  LegalityChecker(w_.schema, {.num_threads = 4, .grain = 1})
      .CheckStructure(d_, &out4, &parallel);
  EXPECT_TRUE(out1 == out4);
  EXPECT_GT(serial.nodes_evaluated, 0u);
  // Same constraint queries, same per-worker evaluators: the merged
  // counters are independent of how the work was distributed.
  EXPECT_EQ(parallel.nodes_evaluated, serial.nodes_evaluated);
  EXPECT_EQ(parallel.entries_scanned, serial.entries_scanned);
  // The head answers its class selections from the postings a snapshot
  // reads, so a pinned check of the same version does the same work.
  d_.PublishSnapshot();
  std::vector<Violation> pinned_out;
  EvaluatorStats pinned;
  LegalityChecker(w_.schema, {.num_threads = 1})
      .CheckStructure(*d_.PinSnapshot(), &pinned_out, &pinned);
  EXPECT_TRUE(pinned_out == out1);
  EXPECT_EQ(pinned.nodes_evaluated, serial.nodes_evaluated);
  EXPECT_EQ(pinned.entries_scanned, serial.entries_scanned);
}

// The process-wide observability counters must be distribution-invariant
// too: the same directory checked with any thread/grain configuration
// publishes exactly the deltas a serial run publishes. (Materializing
// runs only — the Evaluate path is deterministic; short-circuit runs may
// legitimately do less work per shard.)
TEST_F(ParallelLegalityTest, GlobalMetricDeltasMatchSerial) {
  MetricRegistry& reg = MetricRegistry::Default();
  struct Watched {
    Counter& counter;
    const char* name;
  };
  // Help text is already registered by the instrumented code paths.
  const std::vector<Watched> watched = {
      {reg.GetCounter("ldapbound_checker_entries_checked_total", ""),
       "entries_checked"},
      {reg.GetCounter("ldapbound_checker_memo_screened_total", ""),
       "memo_screened"},
      {reg.GetCounter("ldapbound_checker_memo_fallback_total", ""),
       "memo_fallback"},
      {reg.GetCounter("ldapbound_query_nodes_evaluated_total", ""),
       "query_nodes"},
      {reg.GetCounter("ldapbound_query_entries_scanned_total", ""),
       "query_scanned"},
  };
  auto run_and_delta = [&](const CheckOptions& options) {
    std::vector<uint64_t> before;
    for (const Watched& w : watched) before.push_back(w.counter.Value());
    LegalityChecker checker(w_.schema, options);
    std::vector<Violation> content, structure;
    checker.CheckContent(d_, &content);
    checker.CheckStructure(d_, &structure);
    std::vector<uint64_t> delta;
    for (size_t i = 0; i < watched.size(); ++i) {
      delta.push_back(watched[i].counter.Value() - before[i]);
    }
    return delta;
  };

  std::vector<uint64_t> serial = run_and_delta({.num_threads = 1});
  // Sanity: a serial materializing run touched every family.
  for (size_t i = 0; i < watched.size(); ++i) {
    EXPECT_GT(serial[i], 0u) << watched[i].name;
  }
  ThreadPool own_pool(4);
  for (const CheckOptions& options : Configurations(&own_pool)) {
    std::vector<uint64_t> parallel = run_and_delta(options);
    for (size_t i = 0; i < watched.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << watched[i].name << " (threads=" << options.num_threads
          << " grain=" << options.grain << ")";
    }
  }
}

// Verdict counters: one increment per pass run, on the right side.
TEST_F(ParallelLegalityTest, VerdictCountersTrackPassOutcomes) {
  MetricRegistry& reg = MetricRegistry::Default();
  Counter& content_legal = reg.GetCounter(
      "ldapbound_checker_checks_total", "", "pass=\"content\",verdict=\"legal\"");
  Counter& content_illegal = reg.GetCounter(
      "ldapbound_checker_checks_total", "",
      "pass=\"content\",verdict=\"illegal\"");
  uint64_t legal_before = content_legal.Value();
  uint64_t illegal_before = content_illegal.Value();

  LegalityChecker checker(w_.schema, {.num_threads = 2, .grain = 3});
  EXPECT_FALSE(checker.CheckContent(d_));
  EXPECT_TRUE(checker.CheckContent(legal_));
  EXPECT_FALSE(checker.CheckContent(d_));

  EXPECT_EQ(content_legal.Value(), legal_before + 1);
  EXPECT_EQ(content_illegal.Value(), illegal_before + 2);
}

// The lazy emptiness test must agree with full evaluation on every query
// shape the Figure 4 reduction emits (and the set combinators around them).
TEST_F(ParallelLegalityTest, IsEmptyMatchesEvaluate) {
  auto cls = [](ClassId c) {
    return Query::Select(std::make_shared<ClassMatcher>(c));
  };
  const std::vector<Query> queries = {
      cls(w_.person),
      cls(board_),  // empty in d_
      // Figure 4, required relationship: org-entries lacking a person
      // descendant.
      Query::Diff(cls(w_.org),
                  Query::Descendant(cls(w_.org), cls(w_.person))),
      // Figure 4, forbidden relationship: persons with a child.
      Query::Child(cls(w_.person), cls(w_.top)),
      Query::Parent(cls(w_.person), cls(w_.org)),
      Query::Ancestor(cls(w_.engineer), cls(w_.org)),
      Query::Descendant(cls(board_), cls(w_.person)),
      Query::Diff(cls(w_.person), cls(w_.person)),  // empty by construction
      Query::Union({cls(board_), cls(ghost_)}),
      Query::Union({cls(board_), cls(w_.mailbox)}),
      Query::Intersect({cls(w_.person), cls(w_.engineer)}),
      Query::Intersect({cls(w_.person), cls(board_)}),
      Query::Intersect({}),  // empty intersection = all alive entries
  };
  for (const Directory* dir : {&d_, &legal_}) {
    for (const Query& q : queries) {
      QueryEvaluator eager(*dir);
      QueryEvaluator lazy(*dir);
      EXPECT_EQ(lazy.IsEmpty(q), eager.Evaluate(q).Empty())
          << q.ToString(*w_.vocab);
    }
  }
}

}  // namespace
}  // namespace ldapbound
