// Differential oracle for the parallel execution layer (DESIGN.md §8).
//
// The determinism contract says: for identical inputs, every parallel code
// path (greedy candidate generation + ESE evaluation, subdomain-index build,
// IqEngine::SolveBatch) produces results *byte-identical* to the serial path
// for every thread count. These tests enforce the contract by running
// randomized small workloads through pools of 0 (null = serial fallback),
// 1, 2, 4 and 8 threads and diffing everything observable — strategies,
// costs, hit counts, iteration counts and the EvalBreakdown work counters —
// plus an independent brute-force hit recount and (on tiny workloads) the
// exhaustive optimum as an outside-the-implementation oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/epoch.h"
#include "core/evaluator.h"
#include "core/exhaustive.h"
#include "core/iq_algorithms.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/trace.h"
#include "tests/test_world.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace iq {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      visits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, DynamicClaimsVisitEveryIndexExactlyOnceHeavyTailed) {
  // Per-item claiming under the workload it exists for: a heavy head
  // (items 0..7 spin ~1000x longer than the tail) forces the fast
  // participants past their fair share, so claims beyond it — steals — must
  // happen, and still every index runs exactly once.
  ThreadPool pool(4);
  constexpr int64_t kN = 4'000;
  std::vector<std::atomic<int>> visits(kN);
  std::atomic<uint64_t> burned{0};
  pool.ParallelFor(
      kN,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          uint64_t acc = static_cast<uint64_t>(i);
          const int spins = i < 8 ? 200'000 : 200;
          for (int s = 0; s < spins; ++s) acc = acc * 2862933555777941757ULL + 3037000493ULL;
          burned.fetch_add(acc & 1, std::memory_order_relaxed);
          visits[static_cast<size_t>(i)].fetch_add(1,
                                                   std::memory_order_relaxed);
        }
      },
      "test.dynamic_exactly_once");
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleItemRunsInlineOnCaller) {
  // n == 1 takes the inline shortcut: one body call, on the caller.
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(1, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 1);
    EXPECT_FALSE(ThreadPool::InWorker());
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ThreadCountClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool pool_neg(-3);
  EXPECT_EQ(pool_neg.num_threads(), 1);
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](int64_t, int64_t) { called = true; });
  pool.ParallelFor(-5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
  ParallelForOrSerial(nullptr, 0, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NullPoolRunsSerialInline) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelForOrSerial(nullptr, 17, [&](int64_t begin, int64_t end) {
    ranges.emplace_back(begin, end);
    EXPECT_FALSE(ThreadPool::InWorker());
  });
  // Serial fallback = one inline call covering the whole range.
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0);
  EXPECT_EQ(ranges[0].second, 17);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCallerAndPoolSurvives) {
  ThreadPool pool(3);
  // Every item from 500 on throws; the first capture wins, later claims
  // stop, and the caller sees one rethrow.
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [&](int64_t begin, int64_t) {
                         if (begin >= 500) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed call.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineOnWorkers) {
  ThreadPool pool(4);
  std::atomic<int64_t> inner_total{0};
  pool.ParallelFor(64, [&](int64_t begin, int64_t end) {
    // From a worker thread this must run inline (no queue re-entry, no
    // deadlock); from the participating caller it re-enters the pool, which
    // is also fine — either way all inner indices are covered.
    pool.ParallelFor(end - begin, [&](int64_t b, int64_t e) {
      inner_total.fetch_add(e - b, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

// ---------------------------------------------------------------------------
// Differential oracle: greedy searches across thread counts
// ---------------------------------------------------------------------------

int VerifyHits(const TestWorld& w, int target, const Vec& s) {
  BruteForceEvaluator brute(w.view.get(), w.queries.get(), target);
  return brute.HitsForCoeffs(
      w.view->CoefficientsFor(Add(w.data->attrs(target), s)));
}

/// Everything observable about an IqResult except wall-clock timings.
void ExpectIdenticalResults(const IqResult& a, const IqResult& b,
                            const char* what) {
  ASSERT_EQ(a.strategy.size(), b.strategy.size()) << what;
  for (size_t j = 0; j < a.strategy.size(); ++j) {
    // Bit-identical, not approximately equal: the deterministic reduction
    // guarantees the same floating-point operations in the same order.
    EXPECT_EQ(a.strategy[j], b.strategy[j]) << what << " component " << j;
  }
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.hits_before, b.hits_before) << what;
  EXPECT_EQ(a.hits_after, b.hits_after) << what;
  EXPECT_EQ(a.reached_goal, b.reached_goal) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.evaluator_calls, b.evaluator_calls) << what;
  EXPECT_EQ(a.breakdown.iterations, b.breakdown.iterations) << what;
  EXPECT_EQ(a.breakdown.candidates_generated, b.breakdown.candidates_generated)
      << what;
  EXPECT_EQ(a.breakdown.candidates_evaluated, b.breakdown.candidates_evaluated)
      << what;
  EXPECT_EQ(a.breakdown.evaluator_calls, b.breakdown.evaluator_calls) << what;
  EXPECT_EQ(a.breakdown.queries_rescored, b.breakdown.queries_rescored)
      << what;
  EXPECT_EQ(a.breakdown.queries_reused, b.breakdown.queries_reused) << what;
}

TEST(ParallelDiffTest, GreedySearchesIdenticalAcrossThreadCounts) {
  // Randomized sweep: world shapes drawn from a seeded Rng, results compared
  // across num_threads in {0 (serial fallback), 1, 2, 4, 8}.
  Rng rng(20260806);
  ThreadPool pool1(1), pool2(2), pool4(4), pool8(8);
  ThreadPool* pools[] = {nullptr, &pool1, &pool2, &pool4, &pool8};
  for (int trial = 0; trial < 6; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(16, 64));
    const int m = static_cast<int>(rng.UniformInt(8, 32));
    const int dim = static_cast<int>(rng.UniformInt(2, 3));
    const uint64_t seed = rng.NextUint64(1'000'000);
    TestWorld w = TestWorld::Linear(n, m, dim, seed);
    const int target = static_cast<int>(rng.UniformInt(0, n - 1));
    const int tau = static_cast<int>(rng.UniformInt(1, m / 2 + 1));
    const double beta = rng.UniformDouble(0.05, 0.5);
    auto ctx = IqContext::FromIndex(w.index.get(), target);
    ASSERT_TRUE(ctx.ok());

    std::vector<IqResult> min_cost, max_hit;
    for (ThreadPool* pool : pools) {
      IqOptions options;
      options.pool = pool;
      EseEvaluator ese(w.index.get(), target);
      auto mc = MinCostIq(*ctx, &ese, tau, options);
      ASSERT_TRUE(mc.ok()) << mc.status().ToString();
      min_cost.push_back(*std::move(mc));
      EseEvaluator ese2(w.index.get(), target);
      auto mh = MaxHitIq(*ctx, &ese2, beta, options);
      ASSERT_TRUE(mh.ok()) << mh.status().ToString();
      max_hit.push_back(*std::move(mh));
    }
    for (size_t i = 1; i < min_cost.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " pool #" << i << " (n=" << n
                   << " m=" << m << " d=" << dim << ")");
      ExpectIdenticalResults(min_cost[0], min_cost[i], "MinCost");
      ExpectIdenticalResults(max_hit[0], max_hit[i], "MaxHit");
    }
    // Independent recount: the reported hit count must match brute force.
    EXPECT_EQ(VerifyHits(w, target, min_cost[0].strategy),
              min_cost[0].hits_after);
    EXPECT_EQ(VerifyHits(w, target, max_hit[0].strategy),
              max_hit[0].hits_after);
    EXPECT_LE(max_hit[0].cost, beta + 1e-9);
  }
}

TEST(ParallelDiffTest, GreedyNeverBeatsExhaustiveOnTinyWorlds) {
  // Outside-the-implementation oracle: on m <= 8 the exhaustive subset
  // search is tractable, and the parallel greedy result must respect the
  // optimality inequalities regardless of thread count.
  ThreadPool pool8(8);
  Rng rng(424242);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(10, 24));
    const int m = static_cast<int>(rng.UniformInt(4, 8));
    const uint64_t seed = rng.NextUint64(1'000'000);
    TestWorld w = TestWorld::Linear(n, m, 2, seed);
    auto ctx = IqContext::FromIndex(w.index.get(), 0);
    ASSERT_TRUE(ctx.ok());
    IqOptions options;
    options.pool = &pool8;

    const int tau = 2;
    auto exact = ExhaustiveMinCost(*ctx, tau);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EseEvaluator ese(w.index.get(), 0);
    auto greedy = MinCostIq(*ctx, &ese, tau, options);
    ASSERT_TRUE(greedy.ok());
    if (exact->reached_goal && greedy->reached_goal) {
      EXPECT_GE(greedy->cost + 1e-9, exact->cost);
    }
    if (greedy->reached_goal) {
      EXPECT_TRUE(exact->reached_goal);
    }

    const double beta = 0.3;
    auto exact_mh = ExhaustiveMaxHit(*ctx, beta);
    ASSERT_TRUE(exact_mh.ok()) << exact_mh.status().ToString();
    EseEvaluator ese2(w.index.get(), 0);
    auto greedy_mh = MaxHitIq(*ctx, &ese2, beta, options);
    ASSERT_TRUE(greedy_mh.ok());
    EXPECT_LE(greedy_mh->hits_after, exact_mh->hits_after);
  }
}

// ---------------------------------------------------------------------------
// Differential oracle: subdomain-index build across thread counts
// ---------------------------------------------------------------------------

TEST(ParallelDiffTest, IndexBuildIdenticalAcrossThreadCounts) {
  Rng rng(77);
  ThreadPool pool1(1), pool2(2), pool4(4), pool8(8);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(16, 64));
    const int m = static_cast<int>(rng.UniformInt(8, 32));
    const int dim = static_cast<int>(rng.UniformInt(2, 3));
    const uint64_t seed = rng.NextUint64(1'000'000);
    TestWorld w = TestWorld::Linear(n, m, dim, seed);

    auto serial = SubdomainIndex::Build(w.view.get(), w.queries.get());
    ASSERT_TRUE(serial.ok());
    for (ThreadPool* pool : {&pool1, &pool2, &pool4, &pool8}) {
      SubdomainIndexOptions options;
      options.pool = pool;
      auto parallel =
          SubdomainIndex::Build(w.view.get(), w.queries.get(), options);
      ASSERT_TRUE(parallel.ok());
      // Subdomain ids, membership and cached signatures all match: the
      // parallel build only fans out the per-query ranking; cells are
      // created serially in query-id order.
      ASSERT_EQ(parallel->num_subdomains(), serial->num_subdomains());
      for (int q = 0; q < m; ++q) {
        ASSERT_EQ(parallel->subdomain_of(q), serial->subdomain_of(q))
            << "query " << q;
      }
      for (int q = 0; q < m; ++q) {
        int sd = serial->subdomain_of(q);
        if (sd < 0) continue;
        EXPECT_EQ(parallel->signature(sd), serial->signature(sd));
        EXPECT_EQ(parallel->subdomain_queries(sd),
                  serial->subdomain_queries(sd));
      }
      EXPECT_TRUE(parallel->CheckInvariants().ok());
    }
  }
}

TEST(ParallelDiffTest, ParallelMaintenanceMatchesSerialRebuild) {
  // OnObjectRemoved re-ranks affected queries through the pool; the patched
  // index must equal a from-scratch serial rebuild.
  TestWorld w = TestWorld::Linear(48, 24, 3, 99);
  ThreadPool pool4(4);
  SubdomainIndexOptions options;
  options.pool = &pool4;
  auto patched = SubdomainIndex::Build(w.view.get(), w.queries.get(), options);
  ASSERT_TRUE(patched.ok());

  const int victim = 7;
  ASSERT_TRUE(w.data->Remove(victim).ok());
  ASSERT_TRUE(patched->OnObjectRemoved(victim).ok());
  EXPECT_TRUE(patched->CheckInvariants().ok());

  auto rebuilt = SubdomainIndex::Build(w.view.get(), w.queries.get());
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_EQ(patched->num_subdomains(), rebuilt->num_subdomains());
  for (int q = 0; q < 24; ++q) {
    int sd_p = patched->subdomain_of(q);
    int sd_r = rebuilt->subdomain_of(q);
    ASSERT_EQ(sd_p >= 0, sd_r >= 0) << "query " << q;
    if (sd_p >= 0) {
      EXPECT_EQ(patched->signature(sd_p), rebuilt->signature(sd_r))
          << "query " << q;
    }
  }
}

// ---------------------------------------------------------------------------
// SolveBatch: cross-thread-count identity + determinism regression
// ---------------------------------------------------------------------------

Result<IqEngine> MakeEngine(int n, int m, int dim, uint64_t seed,
                            int num_threads) {
  Dataset data = MakeIndependent(n, dim, seed);
  QueryGenOptions qopts;
  qopts.k_max = 5;
  EngineOptions options;
  options.num_threads = num_threads;
  return IqEngine::Create(std::move(data), LinearForm::Identity(dim),
                          MakeQueries(m, dim, seed + 1, qopts), options);
}

std::vector<BatchItem> MakeBatch(int n, int m) {
  std::vector<BatchItem> items;
  for (int t = 0; t < n; t += 3) {
    BatchItem item;
    item.target = t;
    if (t % 2 == 0) {
      item.kind = BatchItem::Kind::kMinCost;
      item.tau = 1 + t % (m / 2 + 1);
    } else {
      item.kind = BatchItem::Kind::kMaxHit;
      item.beta = 0.05 + 0.01 * static_cast<double>(t % 10);
    }
    items.push_back(item);
  }
  return items;
}

TEST(ParallelDiffTest, SolveBatchIdenticalAcrossThreadCounts) {
  constexpr int kN = 40, kM = 24;
  const std::vector<BatchItem> items = MakeBatch(kN, kM);
  std::vector<std::vector<IqResult>> per_engine;
  for (int num_threads : {0, 1, 2, 4, 8}) {
    auto engine = MakeEngine(kN, kM, 3, 2026, num_threads);
    ASSERT_TRUE(engine.ok());
    auto batch = engine->SolveBatch(items);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), items.size());
    per_engine.push_back(*std::move(batch));
  }
  for (size_t e = 1; e < per_engine.size(); ++e) {
    for (size_t i = 0; i < items.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "engine #" << e << " item " << i);
      ExpectIdenticalResults(per_engine[0][i], per_engine[e][i], "SolveBatch");
    }
  }
}

TEST(ParallelDiffTest, SolveBatchRunTwiceIsDeterministic) {
  // Determinism regression: the same engine solving the same batch twice
  // must reproduce every result byte-for-byte, including the EvalBreakdown
  // reuse counters (a drift there means hidden shared mutable state).
  auto engine = MakeEngine(40, 24, 3, 4711, 4);
  ASSERT_TRUE(engine.ok());
  const std::vector<BatchItem> items = MakeBatch(40, 24);
  auto first = engine->SolveBatch(items);
  ASSERT_TRUE(first.ok());
  auto second = engine->SolveBatch(items);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    SCOPED_TRACE(testing::Message() << "item " << i);
    ExpectIdenticalResults((*first)[i], (*second)[i], "repeat");
  }
}

TEST(ParallelDiffTest, SolveBatchCoversEverySchemeAndReportsErrors) {
  auto engine = MakeEngine(24, 10, 2, 31337, 2);
  ASSERT_TRUE(engine.ok());
  std::vector<BatchItem> items = MakeBatch(24, 10);
  for (IqScheme scheme : {IqScheme::kEfficient, IqScheme::kRta,
                          IqScheme::kGreedy, IqScheme::kRandom}) {
    auto batch = engine->SolveBatch(items, scheme);
    ASSERT_TRUE(batch.ok()) << IqSchemeName(scheme);
    ASSERT_EQ(batch->size(), items.size());
    // Each result must agree with the equivalent single-target call.
    for (size_t i = 0; i < items.size(); ++i) {
      const BatchItem& item = items[i];
      auto single =
          item.kind == BatchItem::Kind::kMinCost
              ? engine->MinCost(item.target, item.tau, item.options, scheme)
              : engine->MaxHit(item.target, item.beta, item.options, scheme);
      ASSERT_TRUE(single.ok());
      SCOPED_TRACE(testing::Message()
                   << IqSchemeName(scheme) << " item " << i);
      EXPECT_EQ((*batch)[i].hits_after, single->hits_after);
      EXPECT_EQ((*batch)[i].cost, single->cost);
    }
  }
  // Deterministic error policy: the lowest-index failing item wins.
  items[2].target = 9999;  // out of range -> InvalidArgument
  items[5].target = -7;
  auto failed = engine->SolveBatch(items);
  ASSERT_FALSE(failed.ok());
  auto direct = engine->MinCost(9999, 1);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(failed.status().code(), direct.status().code());
}

TEST(ParallelDiffTest, SolveBatchEmptyAndEngineAccessors) {
  auto engine = MakeEngine(16, 8, 2, 5, 2);
  ASSERT_TRUE(engine.ok());
  ASSERT_NE(engine->pool(), nullptr);
  EXPECT_EQ(engine->pool()->num_threads(), 2);
  auto batch = engine->SolveBatch({});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());

  auto serial_engine = MakeEngine(16, 8, 2, 5, 0);
  ASSERT_TRUE(serial_engine.ok());
  EXPECT_EQ(serial_engine->pool(), nullptr);

  auto bad = MakeEngine(16, 8, 2, 5, -1);
  EXPECT_FALSE(bad.ok());
}

TEST(ParallelDiffTest, SolveBatchOnPinnedEpochIdenticalUnderChurn) {
  // The epoch extension of the determinism contract (DESIGN.md §12): a
  // batch solved on a *pinned* epoch answers from that epoch alone, so the
  // result is byte-identical across thread counts and completely unaffected
  // by updates published while the batch is in flight.
  constexpr int kN = 40, kM = 24;
  const std::vector<BatchItem> items = MakeBatch(kN, kM);

  // Reference: the build epoch solved with no churn at all.
  std::vector<IqResult> reference;
  {
    auto engine = MakeEngine(kN, kM, 3, 2027, 0);
    ASSERT_TRUE(engine.ok());
    auto batch = engine->SolveBatchOn(engine->Snapshot(), items);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    reference = *std::move(batch);
  }

  for (int num_threads : {0, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "num_threads=" << num_threads);
    auto engine = MakeEngine(kN, kM, 3, 2027, num_threads);
    ASSERT_TRUE(engine.ok());
    EpochHandle pinned = engine->Snapshot();
    ASSERT_EQ(pinned.epoch(), 1u);

    // One guaranteed publish before the rounds: on a loaded host the
    // writer thread may not get scheduled before the solves finish, and
    // the epoch-moved-on assertion below must not hinge on that.
    ASSERT_TRUE(engine->ApplyStrategy(0, {0.01, -0.01, 0.01}).ok());

    // Churn the engine underneath the pin: every apply publishes a new
    // epoch whose cells may COW away from the pinned one mid-batch.
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      Rng rng(2028);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_TRUE(
            engine->ApplyStrategy(i++ % kN, rng.UniformVector(3, -0.02, 0.02))
                .ok());
      }
    });

    for (int round = 0; round < 3; ++round) {
      auto batch = engine->SolveBatchOn(pinned, items);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch->size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "round " << round << " item " << i);
        ExpectIdenticalResults(reference[i], (*batch)[i], "SolveBatchOn");
      }
    }

    stop.store(true, std::memory_order_relaxed);
    writer.join();
    // The live engine moved on; only the pin stayed put.
    EXPECT_GT(engine->Snapshot().epoch(), 1u);
  }

  // A default-constructed (never pinned) handle is an input error.
  auto engine = MakeEngine(kN, kM, 3, 2027, 0);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->SolveBatchOn(EpochHandle(), items).ok());
}

TEST(ParallelDiffTest, SolveBatchIdenticalWithTracingOnAndOff) {
  // Causal tracing (DESIGN.md §14) is observation-only: a forced-retention
  // run (1 ns slow-trace threshold traces every root solve) must reproduce
  // the untraced results byte for byte, at every thread count.
  constexpr int kN = 40, kM = 24;
  const std::vector<BatchItem> items = MakeBatch(kN, kM);
  for (int num_threads : {0, 4}) {
    SCOPED_TRACE(testing::Message() << "num_threads=" << num_threads);
    auto plain = MakeEngine(kN, kM, 3, 6060, num_threads);
    ASSERT_TRUE(plain.ok());
    auto baseline = plain->SolveBatch(items);
    ASSERT_TRUE(baseline.ok());

    Dataset data = MakeIndependent(kN, 3, 6060);
    QueryGenOptions qopts;
    qopts.k_max = 5;
    EngineOptions options;
    options.num_threads = num_threads;
    options.slow_trace_nanos = 1;  // retain every solve
    auto traced = IqEngine::Create(std::move(data), LinearForm::Identity(3),
                                   MakeQueries(kM, 3, 6061, qopts), options);
    ASSERT_TRUE(traced.ok());
    auto traced_batch = traced->SolveBatch(items);
    ASSERT_TRUE(traced_batch.ok());

    ASSERT_EQ(baseline->size(), traced_batch->size());
    for (size_t i = 0; i < baseline->size(); ++i) {
      SCOPED_TRACE(testing::Message() << "item " << i);
      ExpectIdenticalResults((*baseline)[i], (*traced_batch)[i], "tracing");
    }
  }
  TraceCollector::Global().SetEnabled(false);
  TraceCollector::Global().Clear();
  TraceCollector::Global().ClearRetained();
}

TEST(ParallelDiffTest, MovedEngineKeepsPoolAndSolves) {
  auto engine = MakeEngine(24, 12, 2, 6, 2);
  ASSERT_TRUE(engine.ok());
  auto before = engine->SolveBatch(MakeBatch(24, 12));
  ASSERT_TRUE(before.ok());

  IqEngine moved(std::move(*engine));
  ASSERT_NE(moved.pool(), nullptr);
  auto after = moved.SolveBatch(MakeBatch(24, 12));
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    SCOPED_TRACE(testing::Message() << "item " << i);
    ExpectIdenticalResults((*before)[i], (*after)[i], "moved engine");
  }
}

}  // namespace
}  // namespace iq
