// Linearizability harness for the epoch-snapshot layer (DESIGN.md §12).
//
// The epoch contract says: a pinned EpochHandle is a frozen, internally
// consistent version of the engine's entire logical state, and every answer
// computed from it is *byte-identical* to the answer a from-scratch serial
// index over that epoch's logical dataset would give — no matter how many
// copy-on-write deltas produced the epoch, which cells still share storage
// with older epochs, or how many updates were published after the pin.
//
// The differential oracle below enforces that: it drives a seeded random
// op stream (ApplyStrategy, add/remove object, add/remove query) through an
// engine, pins epochs at random points while mirroring the logical state
// into a plain shadow copy, and at the end rebuilds a fresh serial index
// from each shadow and diffs everything observable — per-object hit
// counts/sets, top-k answers, and full MinCost/MaxHit solve results
// including the EvalBreakdown counters. The refcount tests then pin down
// the retirement protocol itself: no epoch is freed while pinned, every
// epoch is freed at shutdown.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/epoch.h"
#include "core/evaluator.h"
#include "core/iq_algorithms.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "topk/topk.h"
#include "util/check.h"
#include "util/random.h"

namespace iq {
namespace {

// ---------------------------------------------------------------------------
// Shadow state: the logical dataset/workload an epoch is supposed to freeze
// ---------------------------------------------------------------------------

/// A plain mirror of the engine's logical state, maintained op-by-op
/// alongside the real engine. Tombstoned slots are kept (ids are stable).
struct Shadow {
  int dim = 0;
  std::vector<Vec> rows;
  std::vector<bool> row_active;
  std::vector<TopKQuery> queries;
  std::vector<bool> query_active;

  int NumActiveObjects() const {
    int n = 0;
    for (bool a : row_active) n += a ? 1 : 0;
    return n;
  }
  int NumActiveQueries() const {
    int n = 0;
    for (bool a : query_active) n += a ? 1 : 0;
    return n;
  }
};

/// A from-scratch serial world over one shadow: ids preserved via
/// add-then-tombstone, exactly how the engine's state evolved logically.
struct RebuiltWorld {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<QuerySet> queries;
  std::unique_ptr<FunctionView> view;
  std::unique_ptr<SubdomainIndex> index;

  static RebuiltWorld FromShadow(const Shadow& shadow) {
    RebuiltWorld w;
    w.data = std::make_unique<Dataset>(shadow.dim);
    for (size_t i = 0; i < shadow.rows.size(); ++i) {
      w.data->Add(shadow.rows[i]);
      if (!shadow.row_active[i]) {
        IQ_CHECK(w.data->Remove(static_cast<int>(i)).ok());
      }
    }
    w.queries = std::make_unique<QuerySet>(shadow.dim);
    for (size_t q = 0; q < shadow.queries.size(); ++q) {
      IQ_CHECK(w.queries->Add(shadow.queries[q]).ok());
      if (!shadow.query_active[q]) {
        IQ_CHECK(w.queries->Remove(static_cast<int>(q)).ok());
      }
    }
    w.view = std::make_unique<FunctionView>(
        w.data.get(), LinearForm::Identity(shadow.dim));
    auto index = SubdomainIndex::Build(w.view.get(), w.queries.get());
    IQ_CHECK(index.ok());
    w.index = std::make_unique<SubdomainIndex>(std::move(*index));
    return w;
  }
};

void ExpectIdenticalSolves(const IqResult& a, const IqResult& b,
                           const char* what) {
  ASSERT_EQ(a.strategy.size(), b.strategy.size()) << what;
  for (size_t j = 0; j < a.strategy.size(); ++j) {
    // Bit-identical, not approximately equal: the pinned epoch and the
    // rebuild must run the same floating-point operations in the same
    // order.
    EXPECT_EQ(a.strategy[j], b.strategy[j]) << what << " component " << j;
  }
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.hits_before, b.hits_before) << what;
  EXPECT_EQ(a.hits_after, b.hits_after) << what;
  EXPECT_EQ(a.reached_goal, b.reached_goal) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
}

/// Solves one improvement query serially against an arbitrary index (the
/// pinned epoch's or the rebuild's).
Result<IqResult> SolveSerially(const SubdomainIndex* index, int target,
                               bool min_cost, int tau, double beta) {
  auto ctx = IqContext::FromIndex(index, target);
  if (!ctx.ok()) return ctx.status();
  EseEvaluator ese(index, target);
  return min_cost ? MinCostIq(*ctx, &ese, tau, {})
                  : MaxHitIq(*ctx, &ese, beta, {});
}

/// The full differential check for one pinned epoch against its shadow.
void ExpectEpochMatchesShadow(const EpochHandle& pin, const Shadow& shadow,
                              Rng& rng) {
  ASSERT_TRUE(pin.valid());
  RebuiltWorld fresh = RebuiltWorld::FromShadow(shadow);

  // The pinned epoch's own structures validate, cells shared or not.
  ASSERT_TRUE(pin.index().CheckInvariants().ok());

  // The pinned dataset is the shadow, bit for bit.
  ASSERT_EQ(pin.dataset().size(), static_cast<int>(shadow.rows.size()));
  for (size_t i = 0; i < shadow.rows.size(); ++i) {
    const int id = static_cast<int>(i);
    ASSERT_EQ(pin.dataset().is_active(id), shadow.row_active[i]) << "id " << i;
    EXPECT_EQ(pin.dataset().attrs(id), shadow.rows[i]) << "id " << i;
  }
  ASSERT_EQ(pin.queries().size(), static_cast<int>(shadow.queries.size()));
  ASSERT_EQ(pin.queries().num_active(), shadow.NumActiveQueries());

  // Hit counts and hit sets: every active object, against the rebuild.
  for (size_t i = 0; i < shadow.rows.size(); ++i) {
    if (!shadow.row_active[i]) continue;
    const int id = static_cast<int>(i);
    EXPECT_EQ(pin.index().HitCount(id), fresh.index->HitCount(id))
        << "object " << id;
    EXPECT_EQ(pin.index().HitSet(id), fresh.index->HitSet(id))
        << "object " << id;
  }

  // Top-k answers under a few random preference vectors.
  for (int probe = 0; probe < 3; ++probe) {
    Vec weights = rng.UniformVector(shadow.dim, 0.0, 1.0);
    const int k = 1 + static_cast<int>(rng.UniformInt(0, 3));
    std::vector<bool> mask(shadow.rows.size());
    for (size_t i = 0; i < shadow.rows.size(); ++i) {
      mask[i] = shadow.row_active[i];
    }
    Vec aug = pin.view().form().AugmentWeights(weights);
    auto pinned = TopKScan(pin.view().rows(), &mask, aug, k);
    auto rebuilt = TopKScan(fresh.view->rows(), &mask, aug, k);
    ASSERT_EQ(pinned.size(), rebuilt.size()) << "probe " << probe;
    for (size_t r = 0; r < pinned.size(); ++r) {
      EXPECT_EQ(pinned[r].id, rebuilt[r].id) << "probe " << probe;
      EXPECT_EQ(pinned[r].score, rebuilt[r].score) << "probe " << probe;
    }
  }

  // Full improvement-query solves on sampled active targets.
  int solves = 0;
  for (size_t i = 0; i < shadow.rows.size() && solves < 3; ++i) {
    if (!shadow.row_active[i]) continue;
    if (rng.UniformInt(0, 2) != 0) continue;
    ++solves;
    const int target = static_cast<int>(i);
    const int tau =
        1 + static_cast<int>(rng.UniformInt(0, shadow.NumActiveQueries() / 2));
    const double beta = rng.UniformDouble(0.05, 0.4);
    for (bool min_cost : {true, false}) {
      auto a = SolveSerially(pin.index_ptr(), target, min_cost, tau, beta);
      auto b = SolveSerially(fresh.index.get(), target, min_cost, tau, beta);
      ASSERT_EQ(a.ok(), b.ok()) << "target " << target;
      if (!a.ok()) continue;
      SCOPED_TRACE(testing::Message() << (min_cost ? "MinCost" : "MaxHit")
                                      << " target " << target);
      ExpectIdenticalSolves(*a, *b, "solve");
    }
  }
}

// ---------------------------------------------------------------------------
// The randomized op stream
// ---------------------------------------------------------------------------

constexpr int kInitialObjects = 40;
constexpr int kInitialQueries = 20;
constexpr int kDim = 3;
constexpr int kOps = 30;

struct TrialEngine {
  IqEngine engine;
  Shadow shadow;
};

Result<IqEngine> MakeEngine(const Shadow& shadow, int num_threads) {
  Dataset data(shadow.dim);
  for (const Vec& row : shadow.rows) data.Add(row);
  std::vector<TopKQuery> queries = shadow.queries;
  EngineOptions options;
  options.num_threads = num_threads;
  return IqEngine::Create(std::move(data), LinearForm::Identity(shadow.dim),
                          std::move(queries), options);
}

Shadow MakeInitialShadow(uint64_t seed) {
  Shadow shadow;
  shadow.dim = kDim;
  Dataset data = MakeIndependent(kInitialObjects, kDim, seed);
  for (int i = 0; i < data.size(); ++i) shadow.rows.push_back(data.attrs(i));
  shadow.row_active.assign(shadow.rows.size(), true);
  QueryGenOptions qopts;
  qopts.k_max = 5;
  shadow.queries = MakeQueries(kInitialQueries, kDim, seed + 1, qopts);
  shadow.query_active.assign(shadow.queries.size(), true);
  return shadow;
}

int PickActive(const std::vector<bool>& active, Rng& rng) {
  for (;;) {
    const int id =
        static_cast<int>(rng.UniformInt(0, static_cast<int>(active.size()) - 1));
    if (active[static_cast<size_t>(id)]) return id;
  }
}

/// Applies one random valid op to both the engine and the shadow. Returns
/// false when the op was a no-op (population floor reached).
bool ApplyRandomOp(IqEngine& engine, Shadow& shadow, int max_query_k,
                   Rng& rng) {
  const int roll = static_cast<int>(rng.UniformInt(0, 99));
  if (roll < 50) {
    // ApplyStrategy on a random active target: the §4.3 remove-modify-
    // reactivate protocol, the heaviest COW path.
    const int target = PickActive(shadow.row_active, rng);
    Vec strategy = rng.UniformVector(shadow.dim, -0.05, 0.05);
    IQ_CHECK(engine.ApplyStrategy(target, strategy).ok());
    shadow.rows[static_cast<size_t>(target)] =
        Add(shadow.rows[static_cast<size_t>(target)], strategy);
    return true;
  }
  if (roll < 65) {
    Vec attrs = rng.UniformVector(shadow.dim, 0.0, 1.0);
    auto id = engine.AddObject(attrs);
    IQ_CHECK(id.ok());
    IQ_CHECK(*id == static_cast<int>(shadow.rows.size()));
    shadow.rows.push_back(std::move(attrs));
    shadow.row_active.push_back(true);
    return true;
  }
  if (roll < 75) {
    if (shadow.NumActiveObjects() <= 8) return false;
    const int id = PickActive(shadow.row_active, rng);
    IQ_CHECK(engine.RemoveObject(id).ok());
    shadow.row_active[static_cast<size_t>(id)] = false;
    return true;
  }
  if (roll < 90) {
    TopKQuery q;
    q.k = 1 + static_cast<int>(rng.UniformInt(0, max_query_k - 1));
    q.weights = rng.UniformVector(shadow.dim, 0.0, 1.0);
    auto id = engine.AddQuery(q);
    IQ_CHECK(id.ok());
    IQ_CHECK(*id == static_cast<int>(shadow.queries.size()));
    shadow.queries.push_back(std::move(q));
    shadow.query_active.push_back(true);
    return true;
  }
  if (shadow.NumActiveQueries() <= 4) return false;
  const int q = PickActive(shadow.query_active, rng);
  IQ_CHECK(engine.RemoveQuery(q).ok());
  shadow.query_active[static_cast<size_t>(q)] = false;
  return true;
}

/// The harness: random ops, random pins, then the differential check for
/// every pin — including the oldest epochs, whose cells are by then shared
/// with many newer ones.
void RunDifferentialTrial(int num_threads, uint64_t seed) {
  Rng rng(seed);
  Shadow shadow = MakeInitialShadow(seed);
  auto engine = MakeEngine(shadow, num_threads);
  ASSERT_TRUE(engine.ok());
  // Cap added queries at the built index's prefix capacity: κ fixes the
  // deepest rank the index can answer for, exactly like a live deployment
  // sizing κ for its workload.
  const int max_query_k = engine->queries().max_k();
  ASSERT_GE(max_query_k, 1);

  std::vector<std::pair<EpochHandle, Shadow>> pins;
  pins.emplace_back(engine->Snapshot(), shadow);  // the build epoch
  for (int op = 0; op < kOps; ++op) {
    if (!ApplyRandomOp(*engine, shadow, max_query_k, rng)) continue;
    if (rng.UniformInt(0, 3) == 0) {
      pins.emplace_back(engine->Snapshot(), shadow);
    }
  }
  // Pin the final epoch too — unless the last op was already pinned, in
  // which case a second handle would alias the same epoch.
  EpochHandle final_pin = engine->Snapshot();
  if (final_pin.epoch() != pins.back().first.epoch()) {
    pins.emplace_back(std::move(final_pin), shadow);
  }

  uint64_t last_epoch = 0;
  for (size_t p = 0; p < pins.size(); ++p) {
    SCOPED_TRACE(testing::Message()
                 << "pin " << p << " epoch " << pins[p].first.epoch()
                 << " num_threads " << num_threads);
    // Engine epochs start at 1 and pins were taken in publish order.
    EXPECT_GT(pins[p].first.epoch(), last_epoch);
    last_epoch = pins[p].first.epoch();
    ExpectEpochMatchesShadow(pins[p].first, pins[p].second, rng);
  }
}

TEST(EpochSnapshotTest, DifferentialOracleSerial) {
  RunDifferentialTrial(/*num_threads=*/0, /*seed=*/20260808);
}

TEST(EpochSnapshotTest, DifferentialOracleOneWorker) {
  RunDifferentialTrial(/*num_threads=*/1, /*seed=*/20260808);
}

TEST(EpochSnapshotTest, DifferentialOracleTwoWorkers) {
  RunDifferentialTrial(/*num_threads=*/2, /*seed=*/20260809);
}

TEST(EpochSnapshotTest, DifferentialOracleFourWorkers) {
  RunDifferentialTrial(/*num_threads=*/4, /*seed=*/20260811);
}

TEST(EpochSnapshotTest, DifferentialOracleEightWorkers) {
  RunDifferentialTrial(/*num_threads=*/8, /*seed=*/20260810);
}

// ---------------------------------------------------------------------------
// Refcounted retirement protocol
// ---------------------------------------------------------------------------

struct EpochCounters {
  int64_t live;
  uint64_t retired;

  static EpochCounters Read() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return {reg.GetGauge("iq.index.epochs_live")->value(),
            reg.GetCounter("iq.index.epochs_retired")->value()};
  }
};

TEST(EpochSnapshotTest, PinnedEpochSurvivesPublishAndRetiresOnRelease) {
  const EpochCounters before = EpochCounters::Read();
  Shadow shadow = MakeInitialShadow(7);
  auto engine = MakeEngine(shadow, 0);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(EpochCounters::Read().live, before.live + 1);

  EpochHandle pin = engine->Snapshot();
  ASSERT_EQ(pin.epoch(), 1u);
  const int pinned_hits = pin.index().HitCount(0);

  // Publish epochs 2 and 3 on top of the pin.
  ASSERT_TRUE(engine->ApplyStrategy(0, Vec(kDim, 0.02)).ok());
  ASSERT_TRUE(engine->RemoveObject(5).ok());
  ASSERT_EQ(engine->Snapshot().epoch(), 3u);

  // Epoch 2 had no pins, so it retired at the publish of epoch 3; epoch 1
  // is still pinned and must not have been freed: its answers still stand.
  EXPECT_EQ(EpochCounters::Read().live, before.live + 2);
  EXPECT_EQ(EpochCounters::Read().retired, before.retired + 1);
  EXPECT_EQ(pin.index().HitCount(0), pinned_hits);
  EXPECT_TRUE(pin.dataset().is_active(5));

  // Releasing the pin retires epoch 1.
  pin.reset();
  EXPECT_EQ(EpochCounters::Read().live, before.live + 1);
  EXPECT_EQ(EpochCounters::Read().retired, before.retired + 2);

  // Destroying the engine retires the published epoch 3: nothing leaks.
  engine = Status::InvalidArgument("released");
  EXPECT_EQ(EpochCounters::Read().live, before.live);
  EXPECT_EQ(EpochCounters::Read().retired, before.retired + 3);
}

TEST(EpochSnapshotTest, EveryEpochRetiredAtShutdown) {
  const EpochCounters before = EpochCounters::Read();
  {
    Shadow shadow = MakeInitialShadow(8);
    auto engine = MakeEngine(shadow, 2);
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine->ApplyStrategy(i, Vec(kDim, 0.01)).ok());
    }
    ASSERT_EQ(engine->Snapshot().epoch(), 11u);
    // No pins held: only the published epoch is alive.
    EXPECT_EQ(EpochCounters::Read().live, before.live + 1);
  }
  // Engine gone: epochs 1..11 all retired, none leaked.
  EXPECT_EQ(EpochCounters::Read().live, before.live);
  EXPECT_EQ(EpochCounters::Read().retired, before.retired + 11);
}

TEST(EpochSnapshotTest, FailedUpdatePublishesNothing) {
  Shadow shadow = MakeInitialShadow(9);
  auto engine = MakeEngine(shadow, 0);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->RemoveObject(3).ok());
  const uint64_t epoch = engine->Snapshot().epoch();
  const EpochCounters before = EpochCounters::Read();

  // Invalid ops of every kind: the delta is discarded, no epoch appears.
  EXPECT_FALSE(engine->RemoveObject(3).ok());        // already tombstoned
  EXPECT_FALSE(engine->RemoveObject(9999).ok());     // out of range
  EXPECT_FALSE(engine->ApplyStrategy(3, Vec(kDim, 0.1)).ok());  // inactive
  EXPECT_FALSE(engine->ApplyStrategy(0, Vec(kDim + 2, 0.1)).ok());  // dim
  EXPECT_FALSE(engine->AddObject(Vec(kDim + 1, 0.5)).ok());
  EXPECT_FALSE(engine->RemoveQuery(12345).ok());

  EXPECT_EQ(engine->Snapshot().epoch(), epoch);
  EXPECT_EQ(EpochCounters::Read().live, before.live);
  // The discarded deltas' clones never became epochs; the engine still
  // validates and answers.
  EXPECT_TRUE(engine->CheckInvariants().ok());
  EXPECT_GE(engine->HitCount(0), 0);
}

TEST(EpochSnapshotTest, CowSharesUntouchedCellsAcrossEpochs) {
  Shadow shadow = MakeInitialShadow(10);
  auto engine = MakeEngine(shadow, 0);
  ASSERT_TRUE(engine.ok());
  Counter* cloned =
      MetricsRegistry::Global().GetCounter("iq.index.cow_cells_cloned");
  const uint64_t before = cloned->value();
  const int subdomains = engine->index().num_subdomains();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine->ApplyStrategy(i % 4, Vec(kDim, 0.005)).ok());
  }
  const uint64_t after = cloned->value();
  // COW must have cloned *some* cells (each apply touches the target's
  // affected subdomains) but far fewer than a full copy of every cell on
  // every publish would (8 epochs x all subdomains).
  EXPECT_GT(after, before);
  EXPECT_LT(after - before,
            static_cast<uint64_t>(8 * subdomains));
}

}  // namespace
}  // namespace iq
