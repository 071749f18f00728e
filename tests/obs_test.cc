// Tests for the observability layer (src/obs/): metric semantics, histogram
// bucketing, snapshot/reset, multithreaded increments, trace JSON export,
// and the engine-level ESE counters the instrumentation feeds.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/evaluator.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_world.h"
#include "util/stats.h"

namespace iq {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  // The top bucket absorbs everything above its lower bound.
  EXPECT_EQ(Histogram::BucketIndex(~0ull), Histogram::kNumBuckets - 1);
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    uint64_t lo = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(lo - 1), i - 1) << "bucket " << i;
  }
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
}

TEST(HistogramTest, RecordAndSnapshotStats) {
  Histogram h;
  for (uint64_t v : {0ull, 1ull, 2ull, 4ull, 1000ull}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1007u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(10), 0u);
}

TEST(HistogramTest, SnapshotPercentiles) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.percentiles");
  h->Reset();
  // 100 samples of 8 and 100 of 1024: p50 falls in bucket 4, p99 in 11.
  for (int i = 0; i < 100; ++i) h->Record(8);
  for (int i = 0; i < 100; ++i) h->Record(1024);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("test.percentiles");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 200u);
  EXPECT_DOUBLE_EQ(hs->Mean(), (100.0 * 8 + 100.0 * 1024) / 200.0);
  double p25 = hs->Percentile(25);
  EXPECT_GE(p25, 8.0);
  EXPECT_LT(p25, 16.0);
  double p99 = hs->Percentile(99);
  EXPECT_GE(p99, 1024.0);
  EXPECT_LE(p99, 2048.0);
  // p0 = the lower bound of the lowest occupied bucket ([8, 16)).
  EXPECT_DOUBLE_EQ(hs->Percentile(0), 8.0);
}

TEST(MetricsRegistryTest, StablePointersAndSnapshot) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("test.registry.counter");
  Counter* b = reg.GetCounter("test.registry.counter");
  EXPECT_EQ(a, b);  // same name -> same object
  a->Reset();
  a->Increment(5);
  reg.GetGauge("test.registry.gauge")->Set(-17);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("test.registry.counter"), 5u);
  EXPECT_EQ(snap.CounterValue("test.registry.never_registered"), 0u);
  bool found_gauge = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test.registry.gauge") {
      found_gauge = true;
      EXPECT_EQ(value, -17);
    }
  }
  EXPECT_TRUE(found_gauge);
  // Text and JSON dumps carry the metric.
  EXPECT_NE(snap.ToText().find("test.registry.counter"), std::string::npos);
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"test.registry.counter\": 5"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsNames) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test.reset.counter");
  c->Increment(9);
  reg.GetHistogram("test.reset.hist")->Record(100);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("test.reset.counter"), 0u);
  const HistogramSnapshot* hs = snap.FindHistogram("test.reset.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 0u);
}

TEST(MetricsRegistryTest, MultithreadedIncrementsAreExact) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test.mt.counter");
  Histogram* h = reg.GetHistogram("test.mt.hist");
  c->Reset();
  h->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Half the threads look the metrics up themselves — registration must
      // be thread-safe too, not just recording.
      Counter* mc = reg.GetCounter("test.mt.counter");
      Histogram* mh = reg.GetHistogram("test.mt.hist");
      for (int i = 0; i < kPerThread; ++i) {
        mc->Increment();
        mh->Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) bucket_total += h->bucket(i);
  EXPECT_EQ(bucket_total, h->count());
}

TEST(ScopedTimerTest, RecordsIntoHistogramOnDestruction) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.scoped_timer");
  h->Reset();
  {
    ScopedTimer t(h);
    EXPECT_EQ(h->count(), 0u);  // nothing recorded mid-scope
    (void)t.ElapsedNanos();
  }
  EXPECT_EQ(h->count(), 1u);
  { ScopedTimer t(nullptr); }  // null histogram is a no-op, not a crash
}

TEST(PercentileTrackerTest, NthElementMatchesSortedDefinition) {
  PercentileTracker t;
  for (int i = 100; i >= 1; --i) t.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(t.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(t.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(t.Percentile(50), 50.5);  // interpolated between 50 and 51
  EXPECT_NEAR(t.Percentile(99), 99.01, 1e-9);
  PercentileTracker empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0.0);
}

TEST(PercentileTrackerTest, MergeCombinesSamples) {
  PercentileTracker a, b;
  for (int i = 1; i <= 50; ++i) a.Add(static_cast<double>(i));
  for (int i = 51; i <= 100; ++i) b.Add(static_cast<double>(i));
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(a.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(a.Percentile(50), 50.5);
}

TEST(TraceTest, DisabledRecordsNothing) {
  TraceCollector& tc = TraceCollector::Global();
  tc.Clear();
  tc.SetEnabled(false);
  { IQ_TRACE_SCOPE("should_not_appear"); }
  EXPECT_EQ(tc.EventCount(), 0u);
}

TEST(TraceTest, JsonIsWellFormedChromeTrace) {
  TraceCollector& tc = TraceCollector::Global();
  tc.Clear();
  tc.SetEnabled(true);
  {
    IQ_TRACE_SCOPE("outer");
    { IQ_TRACE_SCOPE("inner"); }
  }
  tc.SetEnabled(false);
  EXPECT_EQ(tc.EventCount(), 2u);
  std::string json = tc.ToJson();
  // Chrome trace-event format: one complete ("ph":"X") event per scope.
  EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"iq\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check, no parser dep).
  int braces = 0, brackets = 0;
  for (char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  tc.Clear();
}

TEST(TraceTest, RingOverwritesOldestBeyondCapacity) {
  TraceCollector& tc = TraceCollector::Global();
  tc.Clear();
  tc.SetEnabled(true);
  const size_t total = TraceCollector::kRingCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    IQ_TRACE_SCOPE("ring_fill");
  }
  tc.SetEnabled(false);
  EXPECT_EQ(tc.EventCount(), TraceCollector::kRingCapacity);
  EXPECT_EQ(tc.DroppedCount(), 100u);
  tc.Clear();
  EXPECT_EQ(tc.EventCount(), 0u);
  EXPECT_EQ(tc.DroppedCount(), 0u);
}

TEST(TraceTest, FlatExportCarriesThreadMetadataAndCausalArgs) {
  // The flat whole-process export (PR 2's ToJson, kept for
  // examples/trace_demo.cpp) now renders real per-thread lanes: a
  // thread_name metadata event per recording thread, tids on every span,
  // and — for spans recorded under a root — the causal ids in "args".
  TraceCollector& tc = TraceCollector::Global();
  tc.Clear();
  tc.SetEnabled(true);
  {
    IQ_TRACE_ROOT_SCOPE(root, "flat_root");
    { IQ_TRACE_SCOPE("flat_child"); }
    std::thread other([] { IQ_TRACE_SCOPE("flat_other_thread"); });
    other.join();
  }
  { IQ_TRACE_SCOPE_ARG("flat_arged", 42); }
  tc.SetEnabled(false);
  std::string json = tc.ToJson();
  EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\": "), std::string::npos);
  // Causal ids surface for rooted spans; the flat arg payload renders too.
  EXPECT_NE(json.find("\"trace_id\": "), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\": "), std::string::npos);
  EXPECT_NE(json.find("\"arg0\": 42"), std::string::npos);
  // Two recording threads = two metadata events.
  size_t meta = 0;
  for (size_t pos = 0;
       (pos = json.find("\"thread_name\"", pos)) != std::string::npos; ++pos) {
    ++meta;
  }
  EXPECT_GE(meta, 2u);
  int braces = 0, brackets = 0;
  for (char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  tc.Clear();
  tc.ClearRetained();  // the root above may have been retained
}

// ---- Engine-level counters on a known workload ----

TEST(ObsEngineTest, EseScanCountsEveryActiveQueryAsReranked) {
  TestWorld w = TestWorld::Linear(200, 40, 3, /*seed=*/11);
  MetricsRegistry::Global().Reset();
  EseEvaluator ese(w.index.get(), 0);
  const uint64_t m = static_cast<uint64_t>(w.queries->num_active());
  (void)ese.HitsForCoeffs(w.view->coeffs(0));
  (void)ese.HitsForCoeffs(w.view->coeffs(1));
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("iq.ese.queries_reranked"), 2 * m);
  EXPECT_EQ(snap.CounterValue("iq.ese.queries_reused"), 0u);
  EXPECT_EQ(snap.CounterValue("iq.ese.scan_evaluations"), 2u);
  EXPECT_EQ(ese.queries_rescored(), 2 * m);
}

TEST(ObsEngineTest, EseWedgePathSplitsRerankedAndReused) {
  TestWorld w = TestWorld::Linear(400, 80, 3, /*seed=*/13);
  MetricsRegistry::Global().Reset();
  EseEvaluator ese(w.index.get(), 0);
  const uint64_t m = static_cast<uint64_t>(w.queries->num_active());
  // A small strategy step: most queries keep their cached hit state.
  Vec s = {0.01, -0.01, 0.005};
  Vec c = w.view->CoefficientsFor(Add(w.data->attrs(0), s));
  int hits_wedge = ese.HitsViaWedges(c);
  int hits_scan = ese.HitsForCoeffs(c);
  EXPECT_EQ(hits_wedge, hits_scan);  // both paths agree
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  uint64_t reranked = snap.CounterValue("iq.ese.queries_reranked");
  uint64_t reused = snap.CounterValue("iq.ese.queries_reused");
  // Wedge pass: reranked_w + reused_w == m. Scan pass adds m more reranks.
  EXPECT_EQ(reranked + reused, 2 * m);
  EXPECT_GT(reused, 0u) << "a small step must reuse most cached hit states";
  EXPECT_EQ(snap.CounterValue("iq.ese.wedge_evaluations"), 1u);
  EXPECT_GT(snap.CounterValue("iq.ese.affected_subspaces"), 0u);
  EXPECT_GT(snap.CounterValue("iq.rtree.nodes_expanded"), 0u);
  EXPECT_EQ(ese.queries_rescored() + ese.queries_reused(), 2 * m);
}

TEST(ObsEngineTest, ApplyStrategyReuseCountersAndLatency) {
  Dataset data = MakeIndependent(300, 3, /*seed=*/17);
  QueryGenOptions qopts;
  qopts.k_max = 10;
  auto engine = IqEngine::Create(std::move(data), LinearForm::Identity(3),
                                 MakeQueries(60, 3, 18, qopts));
  ASSERT_TRUE(engine.ok());
  MetricsRegistry::Global().Reset();
  auto r = engine->MinCost(0, /*tau=*/5);
  ASSERT_TRUE(r.ok());
  const uint64_t m = static_cast<uint64_t>(engine->queries().num_active());
  ASSERT_TRUE(engine->ApplyStrategy(0, r->strategy).ok());
  MetricsSnapshot snap = engine->GetStatsSnapshot();
  // ApplyStrategy accounting: every active query either kept its cached
  // subdomain assignment or was re-ranked by the §4.3 maintenance.
  uint64_t reranked = snap.CounterValue("iq.engine.apply.queries_reranked");
  uint64_t reused = snap.CounterValue("iq.engine.apply.queries_reused");
  EXPECT_EQ(reranked + reused, m);
  EXPECT_GT(reused, 0u);
  // Latency histograms recorded end to end.
  const HistogramSnapshot* mc = snap.FindHistogram("iq.engine.min_cost_nanos");
  ASSERT_NE(mc, nullptr);
  EXPECT_EQ(mc->count, 1u);
  EXPECT_GT(mc->sum, 0u);
  const HistogramSnapshot* ap =
      snap.FindHistogram("iq.engine.apply_strategy_nanos");
  ASSERT_NE(ap, nullptr);
  EXPECT_EQ(ap->count, 1u);
  // The greedy search fed the solver/eval histograms and counters.
  EXPECT_GT(snap.CounterValue("iq.search.iterations"), 0u);
  EXPECT_GT(snap.CounterValue("iq.search.candidates_generated"), 0u);
  const HistogramSnapshot* sv = snap.FindHistogram("iq.search.solver_nanos");
  ASSERT_NE(sv, nullptr);
  EXPECT_GT(sv->count, 0u);
}

TEST(ObsEngineTest, EvalBreakdownIsPopulated) {
  TestWorld w = TestWorld::Linear(300, 50, 3, /*seed=*/19);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  ASSERT_TRUE(ctx.ok());
  EseEvaluator ese(w.index.get(), 0);
  auto r = MinCostIq(*ctx, &ese, /*tau=*/5);
  ASSERT_TRUE(r.ok());
  const EvalBreakdown& bd = r->breakdown;
  EXPECT_EQ(bd.iterations, r->iterations);
  EXPECT_EQ(bd.evaluator_calls, r->evaluator_calls);
  EXPECT_GT(bd.candidates_generated, 0u);
  EXPECT_GT(bd.candidates_evaluated, 0u);
  EXPECT_GE(bd.candidates_generated, bd.candidates_evaluated);
  EXPECT_GT(bd.queries_rescored, 0u);
  EXPECT_GT(bd.total_seconds, 0.0);
  EXPECT_GE(bd.total_seconds, bd.solver_seconds);
  EXPECT_LE(bd.solver_seconds + bd.eval_seconds, bd.total_seconds * 1.5);
}

}  // namespace
}  // namespace iq
