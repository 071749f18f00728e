#include <gtest/gtest.h>

#include <limits>

#include "tests/test_world.h"

namespace iq {
namespace {

TEST(EngineTest, CreateAndInspect) {
  auto engine = MakeEngine(50, 30, 3, 70);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->dataset().size(), 50);
  EXPECT_EQ(engine->queries().size(), 30);
  EXPECT_GT(engine->index().num_subdomains(), 0);
}

TEST(EngineTest, TopKMatchesHitSemantics) {
  auto engine = MakeEngine(50, 30, 3, 71);
  ASSERT_TRUE(engine.ok());
  const TopKQuery& q = engine->queries().query(0);
  auto top = engine->TopK(q.weights, q.k);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(static_cast<int>(top->size()), q.k);
  // Every member of the top-k must report query 0 in its hit set, except
  // possible boundary ties (strict rule); check the strictly-better ones.
  for (int i = 0; i + 1 < q.k; ++i) {
    std::vector<int> hits = engine->HitSet((*top)[static_cast<size_t>(i)].id);
    if ((*top)[static_cast<size_t>(i)].score <
        (*top)[static_cast<size_t>(q.k - 1)].score) {
      // strictly inside the top-k
      bool found = false;
      for (int h : hits) found = found || h == 0;
      EXPECT_TRUE(found);
    }
  }
  EXPECT_FALSE(engine->TopK({0.1}, 2).ok());  // wrong arity
}

TEST(EngineTest, SchemeDispatch) {
  auto engine = MakeEngine(60, 40, 3, 72);
  ASSERT_TRUE(engine.ok());
  for (IqScheme scheme : {IqScheme::kEfficient, IqScheme::kRta,
                          IqScheme::kGreedy, IqScheme::kRandom}) {
    auto r = engine->MinCost(1, 5, {}, scheme);
    ASSERT_TRUE(r.ok()) << IqSchemeName(scheme);
    auto mh = engine->MaxHit(1, 0.2, {}, scheme);
    ASSERT_TRUE(mh.ok()) << IqSchemeName(scheme);
    EXPECT_LE(mh->cost, 0.2 + 1e-9);
  }
}

TEST(EngineTest, ExhaustiveSchemeOnTinyEngine) {
  auto engine = MakeEngine(10, 6, 2, 73);
  ASSERT_TRUE(engine.ok());
  auto r = engine->MinCost(0, 2, {}, IqScheme::kExhaustive);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (r->reached_goal) {
    auto h = engine->MinCost(0, 2, {}, IqScheme::kEfficient);
    ASSERT_TRUE(h.ok());
    if (h->reached_goal) {
      EXPECT_LE(r->cost, h->cost + 1e-9);
    }
  }
}

TEST(EngineTest, ApplyStrategyUpdatesHits) {
  auto engine = MakeEngine(60, 40, 3, 74);
  ASSERT_TRUE(engine.ok());
  auto r = engine->MinCost(2, 8);
  ASSERT_TRUE(r.ok());
  if (!r->reached_goal) GTEST_SKIP() << "goal unreachable in this world";
  ASSERT_TRUE(engine->ApplyStrategy(2, r->strategy).ok());
  EXPECT_EQ(engine->HitCount(2), r->hits_after);
}

TEST(EngineTest, LiveMaintenance) {
  auto engine = MakeEngine(40, 25, 3, 75);
  ASSERT_TRUE(engine.ok());
  auto qid = engine->AddQuery({2, {0.5, 0.4, 0.1}});
  ASSERT_TRUE(qid.ok());
  EXPECT_EQ(engine->queries().num_active(), 26);
  ASSERT_TRUE(engine->RemoveQuery(*qid).ok());
  EXPECT_EQ(engine->queries().num_active(), 25);

  auto oid = engine->AddObject({0.01, 0.01, 0.01});
  ASSERT_TRUE(oid.ok());
  EXPECT_GT(engine->HitCount(*oid), 0);  // dominates nearly everything
  ASSERT_TRUE(engine->RemoveObject(*oid).ok());
  EXPECT_FALSE(engine->RemoveObject(*oid).ok());
  EXPECT_FALSE(engine->AddObject({0.1}).ok());  // wrong dim
}

TEST(EngineTest, RejectsNonFiniteInputs) {
  // A non-finite number must come back as InvalidArgument at the public
  // entry, before it reaches the index or the solvers: an infinite query
  // weight used to abort the process in the candidate box setup, and a NaN
  // one was accepted silently.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto expect_invalid = [](const Status& st) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  };
  for (double bad : {inf, -inf, nan}) {
    SCOPED_TRACE(testing::Message() << "value " << bad);
    QueryGenOptions qopts;
    qopts.k_max = 5;
    std::vector<TopKQuery> queries = MakeQueries(20, 3, 81, qopts);
    queries[3].weights[1] = bad;
    auto created = IqEngine::Create(MakeIndependent(30, 3, 80),
                                    LinearForm::Identity(3),
                                    std::move(queries));
    expect_invalid(created.status());
    // Were the engine built, a goal of all 20 queries would drive the greedy
    // search through query 3's non-finite candidate step — the path that
    // aborted the process before Create checked its inputs.
    if (created.ok()) {
      EXPECT_FALSE(created->MinCost(0, 20).ok());
    }

    Dataset data = MakeIndependent(30, 3, 80);
    data.Add({0.5, bad, 0.5});
    expect_invalid(IqEngine::Create(std::move(data), LinearForm::Identity(3),
                                    MakeQueries(20, 3, 81, qopts))
                       .status());

    auto engine = MakeEngine(30, 20, 3, 80);
    ASSERT_TRUE(engine.ok());
    const uint64_t epoch = engine->Snapshot().epoch();
    expect_invalid(engine->AddQuery({2, {0.5, bad, 0.1}}).status());
    expect_invalid(engine->AddObject({bad, 0.2, 0.3}).status());
    expect_invalid(engine->ApplyStrategy(0, {0.0, bad, 0.0}));
    // Rejected writes publish nothing.
    EXPECT_EQ(engine->Snapshot().epoch(), epoch);
  }
  // A finite strategy that overflows the attribute is rejected too.
  auto engine = MakeEngine(30, 20, 3, 80);
  ASSERT_TRUE(engine.ok());
  const double big = std::numeric_limits<double>::max();
  ASSERT_TRUE(engine->ApplyStrategy(0, {big, 0.0, 0.0}).ok());
  expect_invalid(engine->ApplyStrategy(0, {big, 0.0, 0.0}));

  // Options shaped for another dimension: a granularity of length 2 used to
  // abort in the snapping step, a 2-axis box in the candidate solver. Every
  // scheme, single- and multi-target, must reject both up front.
  auto shaped = MakeEngine(40, 20, 3, 82);
  ASSERT_TRUE(shaped.ok());
  IqOptions short_grain;
  short_grain.granularity = {0.1, 0.1};
  IqOptions short_box;
  short_box.box = AdjustBox::Unbounded(2);
  for (const IqOptions& bad : {short_grain, short_box}) {
    for (IqScheme scheme : {IqScheme::kEfficient, IqScheme::kRta,
                            IqScheme::kGreedy, IqScheme::kRandom,
                            IqScheme::kExhaustive}) {
      SCOPED_TRACE(IqSchemeName(scheme));
      expect_invalid(shaped->MinCost(0, 5, bad, scheme).status());
      expect_invalid(shaped->MaxHit(0, 0.3, bad, scheme).status());
    }
    expect_invalid(shaped->MultiMinCost({0, 1}, 5, {bad}).status());
    expect_invalid(shaped->MultiMaxHit({0, 1}, 0.3, {bad}).status());
  }
}

TEST(EngineTest, LargestTauKeepsTheIterationCapFinite) {
  // The automatic Min-Cost iteration cap is 4·tau + 16; at tau = INT_MAX it
  // must saturate rather than overflow (UBSan aborts on the overflow). No
  // engine has that many queries, so every search ends short of the goal.
  auto engine = MakeEngine(40, 20, 3, 83);
  ASSERT_TRUE(engine.ok());
  const int tau = std::numeric_limits<int>::max();
  for (IqScheme scheme : {IqScheme::kEfficient, IqScheme::kGreedy}) {
    SCOPED_TRACE(IqSchemeName(scheme));
    auto r = engine->MinCost(0, tau, {}, scheme);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->reached_goal);
    EXPECT_LE(r->hits_after, engine->queries().num_active());
  }
  auto multi = engine->MultiMinCost({0, 1}, tau, {IqOptions{}});
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  EXPECT_FALSE(multi->reached_goal);
}

TEST(EngineTest, MultiTargetThroughEngine) {
  auto engine = MakeEngine(60, 40, 3, 76);
  ASSERT_TRUE(engine.ok());
  auto r = engine->MultiMinCost({0, 1}, 10, {IqOptions{}});
  ASSERT_TRUE(r.ok());
  auto mh = engine->MultiMaxHit({0, 1}, 0.3, {IqOptions{}});
  ASSERT_TRUE(mh.ok());
  EXPECT_LE(mh->total_cost, 0.3 + 1e-9);
}

TEST(EngineTest, SchemeNames) {
  EXPECT_STREQ(IqSchemeName(IqScheme::kEfficient), "Efficient-IQ");
  EXPECT_STREQ(IqSchemeName(IqScheme::kRta), "RTA-IQ");
  EXPECT_STREQ(IqSchemeName(IqScheme::kGreedy), "Greedy");
  EXPECT_STREQ(IqSchemeName(IqScheme::kRandom), "Random");
  EXPECT_STREQ(IqSchemeName(IqScheme::kExhaustive), "Exhaustive");
}

}  // namespace
}  // namespace iq
