// Differential kernel-equivalence suite (DESIGN.md §13).
//
// The SoA ScoreKernel promises BIT-IDENTICAL results to the scalar
// reference paths — not approximately equal: the per-row accumulation runs
// in the same slot order as Dot(), the top-κ comparator is TopKScan's, the
// hit predicate is HitByThreshold. These tests enforce the promise with a
// randomized differential sweep: 1000 random worlds across dims 2-10,
// diffing raw scores, top-κ signatures, hit sets and the ESE
// rescored/reused work split between the kernel path and the scalar
// fallback, plus the same searches across pools of 0/1/2/4/8 threads. CI
// runs the suite in every lane (and under ASan/TSan) — the assertions are
// exact equality.
//
// The FP-order contract tests at the bottom pin down *why* exactness is
// required: with catastrophic-cancellation rows a reassociated sum gives a
// different hit answer, and with exact score ties the (score, id)
// comparator decides the signature — score comparisons, not raw float
// sums, define equality across code paths, and those comparisons only
// agree because the sums are bit-identical.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/dataset.h"
#include "core/evaluator.h"
#include "core/function_view.h"
#include "core/iq_algorithms.h"
#include "core/score_kernel.h"
#include "core/subdomain_index.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "tests/test_world.h"
#include "topk/topk.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace iq {
namespace {

// ---------------------------------------------------------------------------
// Raw kernel vs scalar reference: 600 lightweight random worlds
// ---------------------------------------------------------------------------

TEST(KernelEquivTest, KernelsBitIdenticalToScalarOnRandomWorlds) {
  Rng rng(20260808);
  for (int trial = 0; trial < 600; ++trial) {
    const int dim = 2 + trial % 9;  // dims 2..10
    const int n = static_cast<int>(rng.UniformInt(4, 48));
    const uint64_t seed = rng.NextUint64(1'000'000);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " n=" << n << " dim=" << dim);

    Dataset data = MakeIndependent(n, dim, seed);
    // Random tombstones so the kernel's dense packing is exercised.
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.2) && data.num_active() > 2) {
        ASSERT_TRUE(data.Remove(i).ok());
      }
    }
    FunctionView view(&data, LinearForm::Identity(dim));
    const int slots = view.form().num_slots();
    std::vector<bool> mask(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) mask[static_cast<size_t>(i)] = data.is_active(i);

    ScoreKernel kernel = ScoreKernel::Build(view.rows(), &mask, slots);
    ASSERT_EQ(kernel.num_rows(), data.num_active());

    const Vec w = rng.UniformVector(slots, -2.0, 2.0);

    // (a) ScoreAll == Dot, bit for bit.
    std::vector<double> scores;
    kernel.ScoreAll(w, &scores);
    ASSERT_EQ(static_cast<int>(scores.size()), kernel.num_rows());
    for (int d = 0; d < kernel.num_rows(); ++d) {
      const int id = kernel.id_at(d);
      EXPECT_EQ(scores[static_cast<size_t>(d)],
                Dot(view.rows()[static_cast<size_t>(id)], w))
          << "dense row " << d << " (id " << id << ")";
    }

    // (b) TopKappaSignature == TopKScan's id sequence, every κ.
    for (int kappa : {1, 2, kernel.num_rows(), kernel.num_rows() + 3}) {
      std::vector<double> scratch;
      std::vector<int> sig = kernel.TopKappaSignature(w, kappa, &scratch);
      std::vector<ScoredObject> top = TopKScan(view.rows(), &mask, w, kappa);
      ASSERT_EQ(sig.size(), top.size()) << "kappa " << kappa;
      for (size_t i = 0; i < sig.size(); ++i) {
        EXPECT_EQ(sig[i], top[i].id) << "kappa " << kappa << " rank " << i;
      }
    }

    // (c) CountHits == the scalar HitByThreshold loop, including NaN
    // thresholds (never hit) and exact-tie thresholds (strict <).
    std::vector<double> thresholds(static_cast<size_t>(kernel.num_rows()));
    int expected_hits = 0;
    for (int d = 0; d < kernel.num_rows(); ++d) {
      const double pick = rng.UniformDouble();
      double t;
      if (pick < 0.1) {
        t = std::numeric_limits<double>::quiet_NaN();
      } else if (pick < 0.3) {
        t = scores[static_cast<size_t>(d)];  // exact tie: must NOT hit
      } else {
        t = rng.UniformDouble(-3.0, 3.0);
      }
      thresholds[static_cast<size_t>(d)] = t;
      if (HitByThreshold(scores[static_cast<size_t>(d)], t)) ++expected_hits;
    }
    EXPECT_EQ(kernel.CountHits(w, thresholds), expected_hits);
  }
}

TEST(KernelEquivTest, EmptyAndDegenerateKernels) {
  Dataset data = MakeIndependent(3, 2, 7);
  FunctionView view(&data, LinearForm::Identity(2));
  std::vector<bool> none(3, false);
  ScoreKernel empty =
      ScoreKernel::Build(view.rows(), &none, view.form().num_slots());
  EXPECT_TRUE(empty.empty());
  std::vector<double> scores(5, 99.0), scratch;
  const Vec w = {1.0, 1.0, 1.0};
  empty.ScoreAll(w, &scores);
  EXPECT_TRUE(scores.empty());
  EXPECT_TRUE(empty.TopKappaSignature(w, 4, &scratch).empty());
  EXPECT_EQ(empty.CountHits(w, {}), 0);

  // Null active mask = every row.
  ScoreKernel all =
      ScoreKernel::Build(view.rows(), nullptr, view.form().num_slots());
  EXPECT_EQ(all.num_rows(), 3);
  EXPECT_GT(all.MemoryBytes(), sizeof(ScoreKernel));
}

// ---------------------------------------------------------------------------
// Index + evaluator routing: kernel path vs scalar fallback on one state
// ---------------------------------------------------------------------------

// The only way to observe the scalar fallback on a semantically identical
// index is the real lifecycle: a maintenance hook drops the kernels (scalar
// takes over), RebuildScoreKernels() restores them. Both evaluators below
// therefore wrap the *same* post-mutation index state.
TEST(KernelEquivTest, EseKernelAndScalarPathsIdenticalOn200Worlds) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const int dim = 2 + trial % 9;
    const int n = static_cast<int>(rng.UniformInt(10, 40));
    const int m = static_cast<int>(rng.UniformInt(6, 24));
    const uint64_t seed = rng.NextUint64(1'000'000);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                    << " m=" << m << " dim=" << dim);
    TestWorld w = TestWorld::Linear(n, m, dim, seed);
    ASSERT_NE(w.index->object_kernel(), nullptr);
    ASSERT_NE(w.index->query_kernel(), nullptr);

    // Mutate through a hook: kernels drop, scalar paths take over.
    const int victim = static_cast<int>(rng.UniformInt(0, n - 1));
    ASSERT_TRUE(w.data->Remove(victim).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(victim).ok());
    ASSERT_EQ(w.index->object_kernel(), nullptr);
    ASSERT_EQ(w.index->query_kernel(), nullptr);

    int target = static_cast<int>(rng.UniformInt(0, n - 1));
    if (target == victim) target = (victim + 1) % n;
    EseEvaluator scalar(w.index.get(), target);

    w.index->RebuildScoreKernels();
    ASSERT_NE(w.index->query_kernel(), nullptr);
    EseEvaluator kernel(w.index.get(), target);

    // Construction-time state matches exactly.
    ASSERT_EQ(scalar.base_hits(), kernel.base_hits());
    ASSERT_EQ(scalar.thresholds().size(), kernel.thresholds().size());
    for (size_t q = 0; q < scalar.thresholds().size(); ++q) {
      const double a = scalar.thresholds()[q], b = kernel.thresholds()[q];
      EXPECT_TRUE(a == b || (std::isnan(a) && std::isnan(b))) << "query " << q;
    }
    EXPECT_EQ(scalar.base_hit_flags(), kernel.base_hit_flags());

    // Random candidate coefficient vectors: identical hit counts AND an
    // identical rescored/reused work split, call by call.
    for (int probe = 0; probe < 8; ++probe) {
      const Vec s = rng.UniformVector(dim, -0.2, 0.2);
      const Vec c = w.view->CoefficientsFor(Add(w.data->attrs(target), s));
      ASSERT_EQ(scalar.HitsForCoeffs(c), kernel.HitsForCoeffs(c))
          << "probe " << probe;
    }
    EXPECT_EQ(scalar.calls(), kernel.calls());
    EXPECT_EQ(scalar.queries_rescored(), kernel.queries_rescored());
    EXPECT_EQ(scalar.queries_reused(), kernel.queries_reused());

    // The geometric wedge path (always scalar) must agree with both scans.
    const Vec s = rng.UniformVector(dim, -0.1, 0.1);
    const Vec c = w.view->CoefficientsFor(Add(w.data->attrs(target), s));
    EseEvaluator wedge_scalar(w.index.get(), target);
    EXPECT_EQ(wedge_scalar.HitsViaWedges(c), kernel.HitsForCoeffs(c));
  }
}

TEST(KernelEquivTest, SignatureRankingIdenticalAcrossLifecycle) {
  // ComputeSignature flows through the object kernel on a freshly built or
  // re-published index and through TopKScan mid-mutation; the subdomain
  // structure must be indistinguishable. Rebuild-from-scratch (kernel path
  // end to end) vs hook-patched (scalar re-rank, then kernels restored).
  Rng rng(5678);
  for (int trial = 0; trial < 50; ++trial) {
    const int dim = 2 + trial % 9;
    const int n = static_cast<int>(rng.UniformInt(12, 48));
    const int m = static_cast<int>(rng.UniformInt(8, 24));
    const uint64_t seed = rng.NextUint64(1'000'000);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                    << " m=" << m << " dim=" << dim);
    TestWorld w = TestWorld::Linear(n, m, dim, seed);
    const int victim = static_cast<int>(rng.UniformInt(0, n - 1));
    ASSERT_TRUE(w.data->Remove(victim).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(victim).ok());
    w.index->RebuildScoreKernels();
    EXPECT_TRUE(w.index->CheckInvariants().ok());

    auto rebuilt = SubdomainIndex::Build(w.view.get(), w.queries.get());
    ASSERT_TRUE(rebuilt.ok());
    for (int q = 0; q < m; ++q) {
      const int sd_p = w.index->subdomain_of(q);
      const int sd_r = rebuilt->subdomain_of(q);
      ASSERT_EQ(sd_p >= 0, sd_r >= 0) << "query " << q;
      if (sd_p >= 0) {
        EXPECT_EQ(w.index->signature(sd_p), rebuilt->signature(sd_r))
            << "query " << q;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Full searches: kernel-backed ESE across thread counts 0/1/2/4/8
// ---------------------------------------------------------------------------

void ExpectIdenticalIqResults(const IqResult& a, const IqResult& b) {
  ASSERT_EQ(a.strategy.size(), b.strategy.size());
  for (size_t j = 0; j < a.strategy.size(); ++j) {
    EXPECT_EQ(a.strategy[j], b.strategy[j]) << "component " << j;
  }
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.hits_after, b.hits_after);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.breakdown.candidates_evaluated, b.breakdown.candidates_evaluated);
  EXPECT_EQ(a.breakdown.queries_rescored, b.breakdown.queries_rescored);
  EXPECT_EQ(a.breakdown.queries_reused, b.breakdown.queries_reused);
}

TEST(KernelEquivTest, SearchesOverKernelIdenticalAcrossThreadCounts) {
  Rng rng(9999);
  ThreadPool pool1(1), pool2(2), pool4(4), pool8(8);
  ThreadPool* pools[] = {nullptr, &pool1, &pool2, &pool4, &pool8};
  for (int trial = 0; trial < 9; ++trial) {
    const int dim = 2 + trial % 9;
    const int n = static_cast<int>(rng.UniformInt(16, 48));
    const int m = static_cast<int>(rng.UniformInt(8, 24));
    const uint64_t seed = rng.NextUint64(1'000'000);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                    << " m=" << m << " dim=" << dim);
    TestWorld w = TestWorld::Linear(n, m, dim, seed);
    ASSERT_NE(w.index->query_kernel(), nullptr);
    const int target = static_cast<int>(rng.UniformInt(0, n - 1));
    const int tau = static_cast<int>(rng.UniformInt(1, m / 2 + 1));
    auto ctx = IqContext::FromIndex(w.index.get(), target);
    ASSERT_TRUE(ctx.ok());

    std::vector<IqResult> results;
    for (ThreadPool* pool : pools) {
      IqOptions options;
      options.pool = pool;
      EseEvaluator ese(w.index.get(), target);
      auto mc = MinCostIq(*ctx, &ese, tau, options);
      ASSERT_TRUE(mc.ok()) << mc.status().ToString();
      results.push_back(*std::move(mc));
    }
    for (size_t i = 1; i < results.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "variant " << i);
      ExpectIdenticalIqResults(results[0], results[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// FP-order contract
// ---------------------------------------------------------------------------

TEST(KernelEquivTest, FpOrderContractCatastrophicCancellation) {
  // Row engineered so the sum's value depends on evaluation order:
  //   1e16 + 1.0 - 1e16  ==  0.0   in index order (1.0 is absorbed),
  //   (1e16 - 1e16) + 1.0 ==  1.0  reassociated.
  // The kernel must produce the index-order answer, and the hit decision at
  // threshold 0.5 flips if it ever reassociates — this is the concrete
  // failure the "no horizontal reduction" rule in score_kernel.h prevents.
  std::vector<Vec> rows = {{1e16, 1.0, -1e16}, {0.25, 0.25, 0.25}};
  const Vec w = {1.0, 1.0, 1.0};
  ScoreKernel kernel = ScoreKernel::Build(rows, nullptr, 3);
  std::vector<double> scores;
  kernel.ScoreAll(w, &scores);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0], Dot(rows[0], w));
  EXPECT_EQ(scores[0], 0.0);  // the index-order sum, not the reassociated 1.0
  EXPECT_EQ(scores[1], 0.75);
  // Same comparison outcome as the scalar predicate.
  EXPECT_EQ(kernel.CountHits(w, {0.5, 0.5}), 1);
  EXPECT_EQ(HitByThreshold(Dot(rows[0], w), 0.5), true);
  EXPECT_EQ(HitByThreshold(Dot(rows[1], w), 0.5), false);
}

TEST(KernelEquivTest, FpOrderContractExactTiesBreakById) {
  // Duplicate rows score exactly equal; the signature order is then decided
  // purely by the (score, id) comparator. Kernel and scalar scan must agree
  // on the full order — equality across paths is defined by these
  // comparisons, which is only safe because the scores are bit-identical.
  // All values are exact binary fractions, so the duplicate rows sum to
  // exactly 1.0 and row 2 to exactly 0.75 — no rounding can perturb the tie.
  std::vector<Vec> rows = {{0.5, 0.5}, {0.5, 0.5}, {0.25, 0.5}, {0.5, 0.5}};
  const Vec w = {1.0, 1.0};
  ScoreKernel kernel = ScoreKernel::Build(rows, nullptr, 2);
  std::vector<double> scratch;
  const std::vector<int> sig = kernel.TopKappaSignature(w, 4, &scratch);
  std::vector<ScoredObject> top = TopKScan(rows, nullptr, w, 4);
  ASSERT_EQ(sig.size(), 4u);
  for (size_t i = 0; i < sig.size(); ++i) EXPECT_EQ(sig[i], top[i].id);
  // All three duplicates tie: ascending id among them.
  EXPECT_EQ(sig[0], 2);
  EXPECT_EQ(sig[1], 0);
  EXPECT_EQ(sig[2], 1);
  EXPECT_EQ(sig[3], 3);
}

}  // namespace
}  // namespace iq
