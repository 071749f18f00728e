#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_world.h"
#include "topk/topk.h"

namespace iq {
namespace {

TEST(RankQueriesTest, RankMatchesTopKPosition) {
  auto engine = MakeEngine(40, 20, 3, 130);
  ASSERT_TRUE(engine.ok());
  for (int q = 0; q < 20; q += 4) {
    const TopKQuery& query = engine->queries().query(q);
    auto full = engine->TopK(query.weights, 40);
    ASSERT_TRUE(full.ok());
    for (int pos = 0; pos < 40; pos += 7) {
      int object = (*full)[static_cast<size_t>(pos)].id;
      auto rank = engine->RankUnderQuery(object, q);
      ASSERT_TRUE(rank.ok());
      EXPECT_EQ(*rank, pos + 1) << "query " << q << " pos " << pos;
    }
  }
}

TEST(RankQueriesTest, ReverseTopKEqualsHitSet) {
  auto engine = MakeEngine(30, 25, 2, 131);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 30; i += 5) {
    EXPECT_EQ(engine->ReverseTopK(i), engine->HitSet(i));
  }
}

TEST(RankQueriesTest, ReverseKRanksSortedAndConsistent) {
  auto engine = MakeEngine(50, 30, 3, 132);
  ASSERT_TRUE(engine.ok());
  const int object = 7;
  auto top = engine->ReverseKRanks(object, 5);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 5u);
  // Ranks ascend and match direct computation.
  for (size_t i = 0; i < top->size(); ++i) {
    auto direct = engine->RankUnderQuery(object, (*top)[i].first);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*direct, (*top)[i].second);
    if (i > 0) {
      EXPECT_GE((*top)[i].second, (*top)[i - 1].second);
    }
  }
  // No unlisted query has a strictly better rank than the worst listed one.
  int worst_listed = top->back().second;
  for (int q = 0; q < 30; ++q) {
    bool listed = false;
    for (const auto& [qq, r] : *top) listed = listed || qq == q;
    if (listed) continue;
    auto rank = engine->RankUnderQuery(object, q);
    ASSERT_TRUE(rank.ok());
    EXPECT_GE(*rank, worst_listed);
  }
}

TEST(RankQueriesTest, BestWorkloadRank) {
  auto engine = MakeEngine(50, 30, 3, 133);
  ASSERT_TRUE(engine.ok());
  const int object = 3;
  auto best = engine->BestWorkloadRank(object);
  ASSERT_TRUE(best.ok());
  int min_rank = 1 << 20;
  for (int q = 0; q < 30; ++q) {
    min_rank = std::min(min_rank, *engine->RankUnderQuery(object, q));
  }
  EXPECT_EQ(*best, min_rank);
}

TEST(RankQueriesTest, RankOneMeansHitForTopOneQueries) {
  Dataset data(2);
  data.Add({0.1, 0.1});
  data.Add({0.5, 0.5});
  auto engine = IqEngine::Create(std::move(data), LinearForm::Identity(2),
                                 {{1, {0.7, 0.3}}});
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(*engine->RankUnderQuery(0, 0), 1);
  EXPECT_EQ(*engine->RankUnderQuery(1, 0), 2);
  EXPECT_EQ(engine->HitCount(0), 1);
  EXPECT_EQ(engine->HitCount(1), 0);
}

TEST(RankQueriesTest, ErrorPaths) {
  auto engine = MakeEngine(10, 5, 2, 134);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->RankUnderQuery(-1, 0).ok());
  EXPECT_FALSE(engine->RankUnderQuery(0, 99).ok());
  EXPECT_FALSE(engine->ReverseKRanks(0, 0).ok());
  ASSERT_TRUE(engine->RemoveObject(4).ok());
  EXPECT_FALSE(engine->RankUnderQuery(4, 0).ok());
}

}  // namespace
}  // namespace iq
