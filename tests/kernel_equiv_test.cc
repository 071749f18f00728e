// Differential kernel-equivalence suite (DESIGN.md §13).
//
// The SoA ScoreKernel promises BIT-IDENTICAL results to the scalar
// reference paths — not approximately equal: the per-row accumulation runs
// in the same slot order as Dot(), the top-κ order is TopKScan's, the hit
// predicate is HitByThreshold. These tests enforce the promise with a
// randomized differential sweep: 1000 random worlds across dims 2-10,
// diffing raw scores, top-κ signatures, hit sets and the ESE
// rescored/reused work split between the kernel path and scalar loops
// written here, plus the same searches across pools of 0/1/2/4/8 threads.
// They also pin down the index's own invariant: after every maintenance
// hook both kernels mirror their owners. CI runs the suite in every lane
// (and under ASan/TSan) — the assertions are exact equality.
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
#include <functional>
#include <limits>
#include <utility>
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
    const std::vector<bool>& mask = data.active();

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
// CountHitsBatch vs CountHits: every candidate's count, bit for bit
// ---------------------------------------------------------------------------

// out[c] of one batch call against one CountHits call per candidate.
void ExpectBatchMatchesSingle(const ScoreKernel& kernel,
                              const std::vector<Vec>& cands,
                              const std::vector<double>& thresholds) {
  const size_t slots = static_cast<size_t>(kernel.num_slots());
  std::vector<double> flat;
  for (const Vec& c : cands) flat.insert(flat.end(), c.begin(), c.end());
  ASSERT_EQ(flat.size(), cands.size() * slots);
  std::vector<int> batch(cands.size(), -1);
  kernel.CountHitsBatch(flat.data(), static_cast<int>(cands.size()),
                        thresholds, batch.data());
  for (size_t c = 0; c < cands.size(); ++c) {
    EXPECT_EQ(batch[c], kernel.CountHits(cands[c], thresholds))
        << "candidate " << c << " of " << cands.size();
  }
}

// Slot counts 1-6 cover the kBatchSlots specialisation and the generic
// loop; 0, 1, 7, 8, 9 and 33 candidates cover no block, a lone remainder,
// exactly one block, a block plus remainder and several blocks.
TEST(KernelEquivTest, CountHitsBatchBitIdenticalToCountHitsOnRandomWorlds) {
  Rng rng(20261020);
  for (int trial = 0; trial < 120; ++trial) {
    const int slots = 1 + trial % 6;
    const int n = static_cast<int>(rng.UniformInt(0, 300));
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " n=" << n << " slots=" << slots);
    std::vector<Vec> rows;
    std::vector<bool> active;
    for (int i = 0; i < n; ++i) {
      rows.push_back(rng.UniformVector(slots, -1.0, 1.0));
      active.push_back(!rng.Bernoulli(0.2));
    }
    ScoreKernel kernel = ScoreKernel::Build(rows, &active, slots);

    for (int count : {0, 1, 7, 8, 9, 33}) {
      SCOPED_TRACE(testing::Message() << "candidates " << count);
      std::vector<Vec> cands;
      for (int c = 0; c < count; ++c) {
        cands.push_back(rng.UniformVector(slots, -2.0, 2.0));
      }
      // Thresholds mix NaN (never a hit), exact ties with the first
      // candidate's scores (strict <: no hit for it) and random values.
      std::vector<double> first_scores;
      if (count > 0) kernel.ScoreAll(cands[0], &first_scores);
      std::vector<double> thresholds(static_cast<size_t>(kernel.num_rows()));
      for (int d = 0; d < kernel.num_rows(); ++d) {
        const double pick = rng.UniformDouble();
        double t = rng.UniformDouble(-3.0, 3.0);
        if (pick < 0.1) {
          t = std::numeric_limits<double>::quiet_NaN();
        } else if (pick < 0.3 && count > 0) {
          t = first_scores[static_cast<size_t>(d)];
        }
        thresholds[static_cast<size_t>(d)] = t;
      }
      ExpectBatchMatchesSingle(kernel, cands, thresholds);
    }
  }
}

TEST(KernelEquivTest, CountHitsBatchOnEmptyKernelCountsNothing) {
  for (int slots : {2, ScoreKernel::kBatchSlots}) {
    std::vector<Vec> rows(4, Vec(static_cast<size_t>(slots), 0.5));
    std::vector<bool> none(rows.size(), false);
    ScoreKernel empty = ScoreKernel::Build(rows, &none, slots);
    ASSERT_TRUE(empty.empty());
    for (int count : {0, 1, 8, 9}) {
      std::vector<double> flat(static_cast<size_t>(count * slots), 1.0);
      std::vector<int> out(static_cast<size_t>(count), -1);
      empty.CountHitsBatch(flat.data(), count, {}, out.data());
      for (int hits : out) EXPECT_EQ(hits, 0);
    }
  }
}

TEST(KernelEquivTest, CountHitsBatchKeepsCatastrophicCancellationOrder) {
  // The cancellation row of FpOrderContractCatastrophicCancellation, scored
  // in every lane of a full block plus a remainder: each lane must give the
  // index-order sum 0.0 (a hit at 0.5), never the reassociated 1.0.
  std::vector<Vec> rows = {{1e16, 1.0, -1e16}, {0.25, 0.25, 0.25}};
  ScoreKernel kernel = ScoreKernel::Build(rows, nullptr, 3);
  std::vector<Vec> cands(9, Vec{1.0, 1.0, 1.0});
  cands[3] = {1.0, 2.0, 1.0};  // 1e16 + 2.0 - 1e16 == 2.0: no hit at 0.5
  std::vector<double> flat;
  for (const Vec& c : cands) flat.insert(flat.end(), c.begin(), c.end());
  std::vector<int> out(cands.size(), -1);
  kernel.CountHitsBatch(flat.data(), static_cast<int>(cands.size()),
                        {0.5, 0.5}, out.data());
  for (size_t c = 0; c < cands.size(); ++c) {
    EXPECT_EQ(out[c], c == 3 ? 0 : 1) << "candidate " << c;
  }
  ExpectBatchMatchesSingle(kernel, cands, {0.5, 0.5});
}

TEST(KernelEquivTest, CountHitsBatchExactTiesNeverHit) {
  // Exact binary fractions: the duplicate rows score exactly 1.0 and row 2
  // exactly 0.75 under every candidate below, so a threshold of 1.0 ties the
  // duplicates (no hit) and is beaten only by row 2. The zero third slot
  // keeps the rows on the kBatchSlots path; the 2-slot copy takes the
  // generic one.
  for (int slots : {2, 3}) {
    SCOPED_TRACE(testing::Message() << "slots " << slots);
    std::vector<Vec> rows = {{0.5, 0.5}, {0.5, 0.5}, {0.25, 0.5}, {0.5, 0.5}};
    for (Vec& r : rows) r.resize(static_cast<size_t>(slots), 0.0);
    ScoreKernel kernel = ScoreKernel::Build(rows, nullptr, slots);
    std::vector<Vec> cands(33, Vec(static_cast<size_t>(slots), 1.0));
    const std::vector<double> ties(4, 1.0);
    std::vector<double> flat;
    for (const Vec& c : cands) flat.insert(flat.end(), c.begin(), c.end());
    std::vector<int> out(cands.size(), -1);
    kernel.CountHitsBatch(flat.data(), static_cast<int>(cands.size()), ties,
                          out.data());
    for (int hits : out) EXPECT_EQ(hits, 1);
    ExpectBatchMatchesSingle(kernel, cands, ties);
  }
}

// ---------------------------------------------------------------------------
// Index lifecycle: the kernels mirror their owners after every hook
// ---------------------------------------------------------------------------

std::vector<int> ActiveIds(const std::vector<bool>& active) {
  std::vector<int> ids;
  for (size_t i = 0; i < active.size(); ++i) {
    if (active[i]) ids.push_back(static_cast<int>(i));
  }
  return ids;
}

// After every maintenance hook both kernels exist, hold exactly the active
// ids, and score every dense row bit-identically to Dot on the row they
// mirror; a copy-on-write clone shares them.
TEST(KernelEquivTest, KernelsMirrorOwnersAfterEveryHook) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const int dim = 2 + trial % 5;
    const int n = static_cast<int>(rng.UniformInt(12, 40));
    const uint64_t seed = rng.NextUint64(1'000'000);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                    << " dim=" << dim);
    TestWorld w = TestWorld::Linear(n, /*m=*/12, dim, seed);
    const int victim = static_cast<int>(rng.UniformInt(0, n - 1));
    const int changed = (victim + 1) % n;
    const std::pair<const char*, std::function<Status()>> hooks[] = {
        {"OnQueryAdded",
         [&] {
           IQ_ASSIGN_OR_RETURN(
               int q, w.queries->Add(MakeQueries(1, dim, seed + 7)[0]));
           return w.index->OnQueryAdded(q);
         }},
        {"OnQueryRemoved",
         [&] {
           IQ_RETURN_IF_ERROR(w.queries->Remove(3));
           return w.index->OnQueryRemoved(3);
         }},
        {"OnObjectAdded",
         [&] {
           const int id = w.data->Add(rng.UniformVector(dim, 0.0, 0.2));
           w.view->AppendRow(id);
           return w.index->OnObjectAdded(id);
         }},
        {"OnObjectRemoved",
         [&] {
           IQ_RETURN_IF_ERROR(w.data->Remove(victim));
           return w.index->OnObjectRemoved(victim);
         }},
        {"OnObjectChanged",
         [&] {
           IQ_RETURN_IF_ERROR(
               w.data->SetAttrs(changed, rng.UniformVector(dim, 0.0, 0.2)));
           w.view->RefreshRow(changed);
           return w.index->OnObjectChanged(changed);
         }},
    };
    for (const auto& [name, hook] : hooks) {
      SCOPED_TRACE(name);
      ASSERT_TRUE(hook().ok());
      const ScoreKernel* objects = w.index->object_kernel().get();
      const ScoreKernel* queries = w.index->query_kernel().get();
      ASSERT_NE(objects, nullptr);
      ASSERT_NE(queries, nullptr);
      EXPECT_EQ(objects->ids(), ActiveIds(w.data->active()));
      EXPECT_EQ(queries->ids(), ActiveIds(w.queries->active()));
      const Vec v = rng.UniformVector(w.view->form().num_slots(), -2.0, 2.0);
      std::vector<double> scores;
      objects->ScoreAll(v, &scores);
      for (int d = 0; d < objects->num_rows(); ++d) {
        EXPECT_EQ(scores[static_cast<size_t>(d)],
                  Dot(w.view->rows()[static_cast<size_t>(objects->id_at(d))],
                      v));
      }
      queries->ScoreAll(v, &scores);
      for (int d = 0; d < queries->num_rows(); ++d) {
        EXPECT_EQ(scores[static_cast<size_t>(d)],
                  Dot(w.index->aug_weights(queries->id_at(d)), v));
      }
      const Status st = w.index->CheckInvariants();
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    const SubdomainIndex clone =
        w.index->CloneCow(w.view.get(), w.queries.get(), /*epoch=*/1);
    EXPECT_EQ(clone.object_kernel(), w.index->object_kernel());
    EXPECT_EQ(clone.query_kernel(), w.index->query_kernel());
  }
}

// ---------------------------------------------------------------------------
// Evaluator: kernel scan vs a scalar loop on a hook-maintained index
// ---------------------------------------------------------------------------

// A maintenance hook leaves the index's kernels current, so the evaluator
// built right after it scans through the query kernel. It must agree call
// by call with a plain HitByThreshold(Dot) loop over the active queries.
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

    const int victim = static_cast<int>(rng.UniformInt(0, n - 1));
    ASSERT_TRUE(w.data->Remove(victim).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(victim).ok());

    int target = static_cast<int>(rng.UniformInt(0, n - 1));
    if (target == victim) target = (victim + 1) % n;
    EseEvaluator kernel(w.index.get(), target);

    // The scalar reference: one Dot and one HitByThreshold per active query.
    const std::vector<double> thresholds = w.index->HitThresholds(target);
    auto scalar_hits = [&](const Vec& c) {
      int hits = 0;
      for (int q = 0; q < w.queries->size(); ++q) {
        if (!w.queries->is_active(q)) continue;
        if (HitByThreshold(Dot(c, w.index->aug_weights(q)),
                           thresholds[static_cast<size_t>(q)])) {
          ++hits;
        }
      }
      return hits;
    };

    // Construction-time state matches exactly.
    ASSERT_EQ(kernel.thresholds().size(), thresholds.size());
    for (size_t q = 0; q < thresholds.size(); ++q) {
      const double a = thresholds[q], b = kernel.thresholds()[q];
      EXPECT_TRUE(a == b || (std::isnan(a) && std::isnan(b))) << "query " << q;
    }
    EXPECT_EQ(kernel.base_hits(), scalar_hits(w.view->coeffs(target)));

    // Random candidate coefficient vectors: identical hit counts call by
    // call, and every call rescores every active query.
    const int probes = 8;
    for (int probe = 0; probe < probes; ++probe) {
      const Vec s = rng.UniformVector(dim, -0.2, 0.2);
      const Vec c = w.view->CoefficientsFor(Add(w.data->attrs(target), s));
      ASSERT_EQ(kernel.HitsForCoeffs(c), scalar_hits(c)) << "probe " << probe;
    }
    const size_t active = static_cast<size_t>(w.queries->num_active());
    EXPECT_EQ(kernel.calls(), static_cast<size_t>(probes));
    EXPECT_EQ(kernel.queries_rescored(), probes * active);
    EXPECT_EQ(kernel.queries_reused(), 0u);

    // The geometric wedge path (always scalar) must agree with both scans.
    const Vec s = rng.UniformVector(dim, -0.1, 0.1);
    const Vec c = w.view->CoefficientsFor(Add(w.data->attrs(target), s));
    EseEvaluator wedge(w.index.get(), target);
    const int wedge_hits = wedge.HitsViaWedges(c);
    EXPECT_EQ(wedge_hits, kernel.HitsForCoeffs(c));
    EXPECT_EQ(wedge_hits, scalar_hits(c));
    EXPECT_EQ(wedge.queries_rescored() + wedge.queries_reused(), active);
  }
}

TEST(KernelEquivTest, SignatureRankingIdenticalAcrossLifecycle) {
  // Rebuild-from-scratch vs hook-patched: the re-ranks inside
  // OnObjectRemoved and a fresh Build must produce indistinguishable
  // subdomain structures, and an explicit kernel rebuild changes nothing.
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
      ExpectIdenticalResults(results[0], results[i], "MinCost");
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
