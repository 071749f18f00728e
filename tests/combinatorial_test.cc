#include <gtest/gtest.h>

#include <limits>

#include "core/combinatorial.h"
#include "core/evaluator.h"
#include "tests/test_world.h"

namespace iq {
namespace {

// Independent union-hit verification via per-target brute-force contexts.
int UnionHits(const TestWorld& w, const std::vector<int>& targets,
              const std::vector<Vec>& strategies) {
  std::vector<IqContext> contexts;
  std::vector<Vec> improved_coeffs;
  for (size_t t = 0; t < targets.size(); ++t) {
    auto ctx = IqContext::FromView(w.view.get(), w.queries.get(), targets[t]);
    IQ_CHECK(ctx.ok());
    contexts.push_back(std::move(*ctx));
    improved_coeffs.push_back(w.view->CoefficientsFor(
        Add(w.data->attrs(targets[t]), strategies[t])));
  }
  int hits = 0;
  for (int q = 0; q < w.queries->size(); ++q) {
    if (!w.queries->is_active(q)) continue;
    for (size_t t = 0; t < targets.size(); ++t) {
      if (contexts[t].HitBy(q, improved_coeffs[t])) {
        ++hits;
        break;
      }
    }
  }
  return hits;
}

TEST(CombinatorialTest, MinCostReachesUnionGoal) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 41);
  std::vector<int> targets = {1, 5, 9};
  auto r = CombinatorialMinCostIq(*w.index, targets, 20, {IqOptions{}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->targets, targets);
  ASSERT_EQ(r->strategies.size(), 3u);
  if (r->reached_goal) {
    EXPECT_GE(r->hits_after, 20);
  }
  EXPECT_EQ(UnionHits(w, targets, r->strategies), r->hits_after);
  double sum = 0;
  for (double c : r->costs) sum += c;
  EXPECT_NEAR(sum, r->total_cost, 1e-9);
}

TEST(CombinatorialTest, QueriesHitByTwoTargetsCountOnce) {
  // Two identical targets: the union count must not double-count.
  Dataset data(2);
  data.Add({0.5, 0.5});
  data.Add({0.5, 0.5});
  data.Add({0.1, 0.1});
  QuerySet queries(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queries.Add({1, {0.3 + 0.1 * i, 0.4}}).ok());
  }
  FunctionView view(&data, LinearForm::Identity(2));
  auto index = SubdomainIndex::Build(&view, &queries);
  ASSERT_TRUE(index.ok());
  auto r = CombinatorialMinCostIq(*index, {0, 1}, 5, {IqOptions{}});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->hits_after, 5);
  if (r->reached_goal) {
    EXPECT_EQ(r->hits_after, 5);
  }
}

TEST(CombinatorialTest, MaxHitRespectsSharedBudget) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 42);
  std::vector<int> targets = {2, 7};
  const double beta = 0.3;
  auto r = CombinatorialMaxHitIq(*w.index, targets, beta, {IqOptions{}});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->total_cost, beta + 1e-9);
  EXPECT_GE(r->hits_after, r->hits_before);
  EXPECT_EQ(UnionHits(w, targets, r->strategies), r->hits_after);
}

TEST(CombinatorialTest, PerTargetOptions) {
  TestWorld w = TestWorld::Linear(60, 40, 3, 43);
  std::vector<int> targets = {0, 1};
  std::vector<IqOptions> options(2);
  options[0].box = AdjustBox::Unbounded(3);
  options[0].box->Freeze(0);  // target 0 cannot move on axis 0
  options[1].cost = CostFunction::L1();
  auto r = CombinatorialMinCostIq(*w.index, targets, 10, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->strategies[0][0], 0.0);
}

TEST(CombinatorialTest, SingleTargetMatchesPlainMinCost) {
  TestWorld w = TestWorld::Linear(70, 50, 3, 44);
  const int target = 3;
  auto multi = CombinatorialMinCostIq(*w.index, {target}, 12, {IqOptions{}});
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  EseEvaluator ese(w.index.get(), target);
  auto single = MinCostIq(*ctx, &ese, 12);
  ASSERT_TRUE(multi.ok() && single.ok());
  EXPECT_EQ(multi->hits_after, single->hits_after);
  EXPECT_NEAR(multi->total_cost, single->cost, 1e-9);
}

TEST(CombinatorialTest, ErrorPaths) {
  TestWorld w = TestWorld::Linear(30, 20, 2, 45);
  EXPECT_FALSE(CombinatorialMinCostIq(*w.index, {}, 5, {IqOptions{}}).ok());
  EXPECT_FALSE(CombinatorialMinCostIq(*w.index, {0}, 0, {IqOptions{}}).ok());
  EXPECT_FALSE(
      CombinatorialMinCostIq(*w.index, {0, 1}, 5, {IqOptions{}, IqOptions{},
                                                   IqOptions{}})
          .ok());
  EXPECT_FALSE(CombinatorialMaxHitIq(*w.index, {0}, -0.5, {IqOptions{}}).ok());
  EXPECT_FALSE(CombinatorialMaxHitIq(*w.index, {0},
                                     std::numeric_limits<double>::quiet_NaN(),
                                     {IqOptions{}})
                   .ok());
}

}  // namespace
}  // namespace iq
