#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/evaluator.h"
#include "core/exhaustive.h"
#include "core/iq_algorithms.h"
#include "tests/test_world.h"
#include "util/random.h"

namespace iq {
namespace {

struct IqCase {
  int n;
  int m;
  int dim;
  int tau;
  uint64_t seed;
  bool polynomial;
};

class MinCostSweep : public testing::TestWithParam<IqCase> {};

TEST_P(MinCostSweep, ReachesGoalAndReportsTruthfully) {
  const auto& p = GetParam();
  TestWorld w = p.polynomial
                    ? TestWorld::Polynomial(p.n, p.m, p.dim, p.dim, p.seed)
                    : TestWorld::Linear(p.n, p.m, p.dim, p.seed);
  const int target = 1;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  ASSERT_TRUE(ctx.ok());
  EseEvaluator ese(w.index.get(), target);
  auto r = MinCostIq(*ctx, &ese, p.tau);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The reported hit count must match an independent brute-force check.
  EXPECT_EQ(VerifyHits(w, target, r->strategy), r->hits_after);
  if (r->reached_goal) {
    EXPECT_GE(r->hits_after, p.tau);
  }
  EXPECT_GE(r->cost, 0.0);
  EXPECT_NEAR(r->cost, NormL2(r->strategy), 1e-9);  // default L2 cost
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, MinCostSweep,
    testing::Values(IqCase{80, 60, 3, 10, 1, false},
                    IqCase{150, 100, 2, 20, 2, false},
                    IqCase{60, 40, 4, 8, 3, false},
                    IqCase{50, 50, 3, 12, 4, true},
                    IqCase{120, 80, 3, 30, 5, false}));

TEST(MinCostIqTest, EfficientAndRtaFindTheSameStrategy) {
  // The paper notes RTA-IQ shares the searching method, so quality matches.
  TestWorld w = TestWorld::Linear(100, 70, 3, 6);
  const int target = 2;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  ASSERT_TRUE(ctx.ok());
  EseEvaluator ese(w.index.get(), target);
  RtaStrategyEvaluator rta(w.view.get(), w.queries.get(), target);
  auto r1 = MinCostIq(*ctx, &ese, 15);
  auto r2 = MinCostIq(*ctx, &rta, 15);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(ApproxEqual(r1->strategy, r2->strategy, 1e-9));
  EXPECT_EQ(r1->hits_after, r2->hits_after);
}

TEST(MinCostIqTest, RespectsAdjustBox) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 7);
  const int target = 4;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  ASSERT_TRUE(ctx.ok());
  EseEvaluator ese(w.index.get(), target);
  IqOptions options;
  options.box = AdjustBox::Unbounded(3);
  options.box->SetRange(0, -0.05, 0.0);
  options.box->Freeze(1);
  options.box->SetRange(2, -0.3, 0.3);
  auto r = MinCostIq(*ctx, &ese, 10, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(options.box->Contains(r->strategy, 1e-9));
  EXPECT_EQ(r->strategy[1], 0.0);
}

TEST(MinCostIqTest, AlreadySatisfiedReturnsZeroStrategy) {
  TestWorld w = TestWorld::Linear(50, 40, 3, 8);
  // Find a target already hitting at least one query.
  int target = -1;
  for (int i = 0; i < 50; ++i) {
    if (w.index->HitCount(i) >= 1) {
      target = i;
      break;
    }
  }
  ASSERT_GE(target, 0);
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  EseEvaluator ese(w.index.get(), target);
  auto r = MinCostIq(*ctx, &ese, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reached_goal);
  EXPECT_EQ(r->cost, 0.0);
  EXPECT_EQ(r->iterations, 0);
}

TEST(MinCostIqTest, InvalidArguments) {
  TestWorld w = TestWorld::Linear(20, 10, 2, 9);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  EseEvaluator ese(w.index.get(), 0);
  EXPECT_FALSE(MinCostIq(*ctx, &ese, 0).ok());
  EXPECT_FALSE(IqContext::FromIndex(w.index.get(), -1).ok());
  EXPECT_FALSE(IqContext::FromIndex(w.index.get(), 99).ok());
}

TEST(MinCostIqTest, WorksWithL1AndWeightedCosts) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 10);
  const int target = 3;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  EseEvaluator ese(w.index.get(), target);
  for (CostFunction cost :
       {CostFunction::L1(), CostFunction::WeightedL1({1.0, 2.0, 0.5}),
        CostFunction::Quadratic({1.0, 1.0, 1.0})}) {
    IqOptions options;
    options.cost = cost;
    auto r = MinCostIq(*ctx, &ese, 10, options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(VerifyHits(w, target, r->strategy), r->hits_after);
    if (r->reached_goal) {
      EXPECT_GE(r->hits_after, 10);
    }
  }
}

class MaxHitSweep : public testing::TestWithParam<IqCase> {};

TEST_P(MaxHitSweep, RespectsBudgetAndNeverLosesHits) {
  const auto& p = GetParam();
  TestWorld w = p.polynomial
                    ? TestWorld::Polynomial(p.n, p.m, p.dim, p.dim, p.seed)
                    : TestWorld::Linear(p.n, p.m, p.dim, p.seed);
  const int target = 1;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  ASSERT_TRUE(ctx.ok());
  EseEvaluator ese(w.index.get(), target);
  const double beta = 0.3;
  auto r = MaxHitIq(*ctx, &ese, beta);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->cost, beta + 1e-9);
  EXPECT_GE(r->hits_after, r->hits_before);
  EXPECT_EQ(VerifyHits(w, target, r->strategy), r->hits_after);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, MaxHitSweep,
    testing::Values(IqCase{80, 60, 3, 0, 21, false},
                    IqCase{150, 100, 2, 0, 22, false},
                    IqCase{60, 40, 4, 0, 23, false},
                    IqCase{50, 50, 3, 0, 24, true}));

TEST(MaxHitIqTest, ZeroBudgetMeansZeroStrategy) {
  TestWorld w = TestWorld::Linear(40, 30, 3, 25);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  EseEvaluator ese(w.index.get(), 0);
  auto r = MaxHitIq(*ctx, &ese, 0.0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cost, 0.0);
  EXPECT_EQ(r->hits_after, r->hits_before);
  EXPECT_FALSE(MaxHitIq(*ctx, &ese, -1.0).ok());
  // NaN fails every comparison, so a `beta < 0` guard would let it through
  // as a zero budget; every Max-Hit scheme must reject it instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(MaxHitIq(*ctx, &ese, nan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GreedyMaxHit(*ctx, &ese, nan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RandomMaxHit(*ctx, &ese, nan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExhaustiveMaxHit(*ctx, nan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MaxHitIqTest, LargerBudgetNeverHurts) {
  TestWorld w = TestWorld::Linear(100, 80, 3, 26);
  const int target = 6;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  EseEvaluator ese(w.index.get(), target);
  int prev_hits = -1;
  for (double beta : {0.05, 0.2, 0.5, 1.5}) {
    auto r = MaxHitIq(*ctx, &ese, beta);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r->hits_after, prev_hits);
    prev_hits = r->hits_after;
  }
}

// ---- Baselines ----

TEST(GreedyBaselineTest, ValidButNoBetterThanProposed) {
  TestWorld w = TestWorld::Linear(100, 80, 3, 31);
  const int target = 2;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  EseEvaluator ese1(w.index.get(), target);
  EseEvaluator ese2(w.index.get(), target);
  const int tau = 15;
  auto proposed = MinCostIq(*ctx, &ese1, tau);
  auto greedy = GreedyMinCost(*ctx, &ese2, tau);
  ASSERT_TRUE(proposed.ok() && greedy.ok());
  EXPECT_EQ(VerifyHits(w, target, greedy->strategy), greedy->hits_after);
  if (greedy->reached_goal && proposed->reached_goal) {
    // Cost-per-hit of the proposed scheme should not be worse (allowing a
    // tiny numerical slack).
    double q_prop = proposed->cost / std::max(1, proposed->hits_after);
    double q_greedy = greedy->cost / std::max(1, greedy->hits_after);
    EXPECT_LE(q_prop, q_greedy + 1e-6);
  }
}

TEST(GreedyBaselineTest, MaxHitRespectsBudget) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 32);
  auto ctx = IqContext::FromIndex(w.index.get(), 1);
  EseEvaluator ese(w.index.get(), 1);
  auto r = GreedyMaxHit(*ctx, &ese, 0.25);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->cost, 0.25 + 1e-9);
}

TEST(RandomBaselineTest, MinCostReportsHonestHits) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 33);
  auto ctx = IqContext::FromIndex(w.index.get(), 1);
  EseEvaluator ese(w.index.get(), 1);
  IqOptions options;
  options.random_samples = 128;
  auto r = RandomMinCost(*ctx, &ese, 5, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(VerifyHits(w, 1, r->strategy), r->hits_after);
  if (r->reached_goal) {
    EXPECT_GE(r->hits_after, 5);
  }
}

TEST(RandomBaselineTest, MaxHitStaysWithinBudget) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 34);
  auto ctx = IqContext::FromIndex(w.index.get(), 1);
  EseEvaluator ese(w.index.get(), 1);
  IqOptions options;
  options.random_samples = 64;
  auto r = RandomMaxHit(*ctx, &ese, 0.4, options);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->cost, 0.4 + 1e-9);
  EXPECT_EQ(VerifyHits(w, 1, r->strategy), r->hits_after);
}

TEST(RandomBaselineTest, DeterministicForSeed) {
  TestWorld w = TestWorld::Linear(60, 40, 3, 35);
  auto ctx = IqContext::FromIndex(w.index.get(), 1);
  EseEvaluator ese(w.index.get(), 1);
  IqOptions options;
  options.seed = 77;
  auto r1 = RandomMinCost(*ctx, &ese, 5, options);
  auto r2 = RandomMinCost(*ctx, &ese, 5, options);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->strategy, r2->strategy);
}

}  // namespace
}  // namespace iq
