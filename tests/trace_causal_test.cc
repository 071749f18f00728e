// Cross-thread causal tracing (DESIGN.md §14): the spans of one solve must
// form one tree under one trace id no matter how many workers executed its
// chunks. The tests force retention with a 1 ns slow-trace threshold, run
// SolveBatch across num_threads in {0, 1, 2, 8} (serial fallback, caller
// participation, multi-worker fan-out), and assert on the retained trace:
// every span carries the root trace id, parent links resolve into a tree
// rooted at the batch root, span intervals nest inside their parents, and a
// multi-threaded batch shows spans from at least two recording threads.
// Tail-capture policy (error retention, keep-first-N warmup, bounded store)
// and the `iq_obs trace` analysis layer are covered on the same traces, and
// the critical-path walk on hand-built fixtures.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "util/thread_pool.h"
#include "util/trace_context.h"

namespace iq {
namespace {

/// Retain-everything policy: every finished root is "slow".
TraceTailConfig RetainAll() {
  TraceTailConfig config;
  config.slow_trace_nanos = 1;
  return config;
}

/// Scoped collector reset: fresh rings, fresh store, tracing on with the
/// given policy; everything off again when the test ends so the flat-export
/// tests in obs_test.cc keep their expectations.
class ScopedTracing {
 public:
  explicit ScopedTracing(const TraceTailConfig& config) {
    TraceCollector& tc = TraceCollector::Global();
    tc.SetEnabled(false);
    tc.Clear();
    tc.ClearRetained();
    tc.ConfigureTailCapture(config);
    tc.SetEnabled(true);
  }
  ~ScopedTracing() {
    TraceCollector& tc = TraceCollector::Global();
    tc.SetEnabled(false);
    tc.Clear();
    tc.ClearRetained();
  }
};

/// Structural invariants of a retained trace: unique span ids, one root
/// whose span id is the trace id, every parent link resolving, no cycles,
/// and child intervals nested inside their parents'.
void ExpectWellFormedTree(const RetainedTrace& rt) {
  ASSERT_FALSE(rt.spans.empty());
  std::map<uint64_t, const TraceEvent*> by_id;
  for (const TraceEvent& s : rt.spans) {
    EXPECT_EQ(s.trace_id, rt.trace_id) << s.name;
    EXPECT_NE(s.span_id, 0u) << s.name;
    EXPECT_GT(s.tid, 0) << s.name;
    EXPECT_TRUE(by_id.emplace(s.span_id, &s).second)
        << "duplicate span id " << s.span_id;
  }
  const TraceEvent* root = nullptr;
  for (const TraceEvent& s : rt.spans) {
    if (s.parent_span_id == 0) {
      ASSERT_EQ(root, nullptr) << "second root span " << s.name;
      root = &s;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->span_id, rt.trace_id);
  for (const TraceEvent& s : rt.spans) {
    const TraceEvent* cur = &s;
    size_t steps = 0;
    while (cur->parent_span_id != 0) {
      auto it = by_id.find(cur->parent_span_id);
      ASSERT_NE(it, by_id.end())
          << cur->name << " parent " << cur->parent_span_id << " missing";
      const TraceEvent* parent = it->second;
      // Intervals nest: the parent opened before and closed after (the
      // steady clock is process-wide, and the parent's destructor runs
      // strictly after the child's).
      EXPECT_LE(parent->start_ns, cur->start_ns)
          << parent->name << " -> " << cur->name;
      EXPECT_GE(parent->start_ns + parent->dur_ns,
                cur->start_ns + cur->dur_ns)
          << parent->name << " -> " << cur->name;
      cur = parent;
      ASSERT_LE(++steps, rt.spans.size()) << "parent cycle at " << s.name;
    }
    EXPECT_EQ(cur->span_id, root->span_id);
  }
}

int CountSpansNamed(const RetainedTrace& rt, const std::string& name) {
  return static_cast<int>(std::count_if(
      rt.spans.begin(), rt.spans.end(),
      [&](const TraceEvent& s) { return name == s.name; }));
}

int CountSpansOfKind(const RetainedTrace& rt, SpanKind kind) {
  return static_cast<int>(std::count_if(
      rt.spans.begin(), rt.spans.end(),
      [&](const TraceEvent& s) { return s.kind == kind; }));
}

Result<IqEngine> MakeTracedEngine(int n, int m, int dim, uint64_t seed,
                                  int num_threads) {
  EngineOptions options;
  options.num_threads = num_threads;
  options.slow_trace_nanos = 1;  // everything is "slow": retain every root
  options.slow_trace_max_retained = 8;
  return IqEngine::Create(MakeIndependent(n, dim, seed),
                          LinearForm::Identity(dim),
                          MakeQueries(m, dim, seed + 1), options);
}

std::vector<BatchItem> MakeBatch(int n, int m) {
  std::vector<BatchItem> items;
  for (int t = 0; t < n; t += 2) {
    BatchItem item;
    item.target = t;
    if (t % 4 == 0) {
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

// ---------------------------------------------------------------------------
// Context propagation primitives
// ---------------------------------------------------------------------------

TEST(TraceCausalTest, NestedScopesFormOneTreeOnOneThread) {
  ScopedTracing tracing(RetainAll());
  {
    IQ_TRACE_ROOT_SCOPE(root, "test.root");
    EXPECT_TRUE(root.owns_trace());
    EXPECT_NE(root.trace_id(), 0u);
    IQ_TRACE_SCOPE("test.outer");
    { IQ_TRACE_SCOPE("test.inner"); }
  }
  std::vector<RetainedTrace> retained =
      TraceCollector::Global().RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  const RetainedTrace& rt = retained[0];
  EXPECT_STREQ(rt.op, "test.root");
  EXPECT_FALSE(rt.erred);
  ASSERT_EQ(rt.spans.size(), 3u);
  ExpectWellFormedTree(rt);
  EXPECT_EQ(rt.NumThreads(), 1);
  // The context slot is clean again after the root closed.
  EXPECT_FALSE(CurrentTraceContext().active());
}

TEST(TraceCausalTest, ManualContextHandoffLinksAnotherThread) {
  // The propagation primitive in isolation: install the dispatching
  // context on a raw std::thread (exactly what ParallelFor's helper tasks
  // do) and the remote span must join the same trace under its parent.
  ScopedTracing tracing(RetainAll());
  uint64_t trace_id = 0;
  {
    IQ_TRACE_ROOT_SCOPE(root, "test.handoff");
    trace_id = root.trace_id();
    const TraceContext ctx = CurrentTraceContext();
    std::thread remote([ctx] {
      const TraceContext saved = ExchangeTraceContext(ctx);
      { IQ_TRACE_SCOPE("test.remote"); }
      SetTraceContext(saved);
    });
    remote.join();
  }
  std::vector<RetainedTrace> retained =
      TraceCollector::Global().RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  const RetainedTrace& rt = retained[0];
  EXPECT_EQ(rt.trace_id, trace_id);
  ASSERT_EQ(rt.spans.size(), 2u);
  ExpectWellFormedTree(rt);
  // Root thread + remote thread: two distinct recording tids,
  // deterministically.
  EXPECT_EQ(rt.NumThreads(), 2);
  EXPECT_EQ(CountSpansNamed(rt, "test.remote"), 1);
}

TEST(TraceCausalTest, ParallelForChunksJoinTheDispatchersTrace) {
  // All three execution paths of ParallelFor carry the context: pooled
  // per-item claims, serial fallback (null pool), and nested-inline
  // (ParallelFor from inside a worker).
  ScopedTracing tracing(RetainAll());
  ThreadPool pool(4);
  constexpr int64_t kN = 64;
  TraceCollector::Global().ClearRetained();
  TraceCollector::Global().Clear();
  {
    IQ_TRACE_ROOT_SCOPE(root, "test.fanout");
    pool.ParallelFor(
        kN,
        [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            IQ_TRACE_SCOPE_ARG("test.chunk_item", i);
            // Enough work per item that several workers claim items.
            volatile uint64_t acc = static_cast<uint64_t>(i);
            for (int s = 0; s < 20'000; ++s) {
              acc = acc * 2862933555777941757ULL + 3037000493ULL;
            }
          }
        },
        "test.fanout");
  }
  std::vector<RetainedTrace> retained =
      TraceCollector::Global().RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  const RetainedTrace& rt = retained[0];
  // The root, one ParallelFor call span, its chunk spans, and one span per
  // item. Runs of claims close after 200 µs, so their count depends on
  // timing, but together they cover every item exactly once. A worker that
  // found the range drained adds an empty chunk.
  const int chunks = CountSpansOfKind(rt, SpanKind::kChunk);
  int nonempty_chunks = 0;
  int64_t chunk_items = 0;
  for (const TraceEvent& s : rt.spans) {
    if (s.kind != SpanKind::kChunk) continue;
    nonempty_chunks += s.arg0 > 0 ? 1 : 0;
    chunk_items += s.arg0;
  }
  EXPECT_LE(chunks - nonempty_chunks, 4);  // at most one per worker
  EXPECT_EQ(chunk_items, kN);
  EXPECT_EQ(CountSpansOfKind(rt, SpanKind::kParallelFor), 1);
  ASSERT_EQ(rt.spans.size(), static_cast<size_t>(kN + 2 + chunks));
  ExpectWellFormedTree(rt);
  EXPECT_EQ(CountSpansNamed(rt, "test.chunk_item"), kN);
  EXPECT_GE(rt.NumThreads(), 2) << "fan-out never left the caller thread";

  // Serial fallback: same tree shape, one thread.
  TraceCollector::Global().ClearRetained();
  {
    IQ_TRACE_ROOT_SCOPE(root, "test.serial");
    ParallelForOrSerial(nullptr, 4, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        IQ_TRACE_SCOPE("test.serial_item");
      }
    });
  }
  retained = TraceCollector::Global().RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  ExpectWellFormedTree(retained[0]);
  EXPECT_EQ(retained[0].NumThreads(), 1);
}

// ---------------------------------------------------------------------------
// Engine-level: SolveBatch is one trace across workers
// ---------------------------------------------------------------------------

TEST(TraceCausalTest, SolveBatchRetainsOneCrossThreadTrace) {
  constexpr int kN = 32, kM = 16;
  const std::vector<BatchItem> items = MakeBatch(kN, kM);
  for (int num_threads : {0, 1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "num_threads=" << num_threads);
    auto engine = MakeTracedEngine(kN, kM, 3, 2026, num_threads);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    TraceCollector& tc = TraceCollector::Global();
    tc.ClearRetained();
    tc.Clear();

    auto batch = engine->SolveBatch(items);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();

    // Exactly one retained trace: the per-item roots joined the batch root
    // instead of finishing traces of their own.
    std::vector<RetainedTrace> retained = tc.RetainedTraces();
    ASSERT_EQ(retained.size(), 1u);
    const RetainedTrace& rt = retained[0];
    EXPECT_STREQ(rt.op, "IqEngine::SolveBatch");
    EXPECT_FALSE(rt.erred);
    ExpectWellFormedTree(rt);
    EXPECT_EQ(CountSpansNamed(rt, "SolveBatch.item"),
              static_cast<int>(items.size()));
    if (num_threads >= 2) {
      EXPECT_GE(rt.NumThreads(), 2)
          << "a " << num_threads << "-thread batch never left one thread";
    }
    tc.SetEnabled(false);
    tc.Clear();
    tc.ClearRetained();
  }
}

TEST(TraceCausalTest, ErredSolveIsRetainedRegardlessOfLatency) {
  ScopedTracing tracing([] {
    TraceTailConfig config;
    config.slow_trace_nanos = INT64_MAX;  // nothing is slow
    return config;
  }());
  TraceCollector& tc = TraceCollector::Global();
  const uint64_t discarded_before = tc.discarded_total();

  EngineOptions options;  // tracing already on; engine knobs stay off
  auto engine = IqEngine::Create(MakeIndependent(16, 2, 7),
                                 LinearForm::Identity(2), MakeQueries(8, 2, 8),
                                 options);
  ASSERT_TRUE(engine.ok());

  // A fast, successful solve: discarded.
  ASSERT_TRUE(engine->MinCost(0, 1).ok());
  EXPECT_EQ(tc.RetainedTraces().size(), 0u);
  EXPECT_GT(tc.discarded_total(), discarded_before);

  // A failing solve: retained with the error flag, however fast.
  ASSERT_FALSE(engine->MinCost(9999, 1).ok());
  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_TRUE(retained[0].erred);
  EXPECT_FALSE(retained[0].warmup);
  EXPECT_STREQ(retained[0].op, "IqEngine::MinCost");
}

TEST(TraceCausalTest, KeepFirstNWarmupAndBoundedStore) {
  TraceTailConfig config;
  config.slow_trace_nanos = INT64_MAX;
  config.keep_first_n = 2;
  config.max_retained = 2;
  ScopedTracing tracing(config);
  TraceCollector& tc = TraceCollector::Global();
  const uint64_t discarded_before = tc.discarded_total();

  for (int i = 0; i < 3; ++i) {
    IQ_TRACE_ROOT_SCOPE(root, "test.warmup");
    static_cast<void>(root);
  }
  // First two kept as warmup examples, third discarded (fast, no error).
  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_TRUE(retained[0].warmup);
  EXPECT_TRUE(retained[1].warmup);
  EXPECT_EQ(tc.discarded_total(), discarded_before + 1);

  // The bounded store drops oldest first.
  TraceTailConfig two = RetainAll();
  two.max_retained = 2;
  tc.ConfigureTailCapture(two);
  uint64_t first_id = 0, last_id = 0;
  for (int i = 0; i < 4; ++i) {
    IQ_TRACE_ROOT_SCOPE(root, "test.rolling");
    if (i == 0) first_id = root.trace_id();
    last_id = root.trace_id();
  }
  retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained.back().trace_id, last_id);
  for (const RetainedTrace& rt : retained) {
    EXPECT_NE(rt.trace_id, first_id);
  }
}

TEST(TraceCausalTest, MetricsMirrorRetentionCounters) {
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  ScopedTracing tracing(RetainAll());
  TraceCollector& tc = TraceCollector::Global();
  { IQ_TRACE_ROOT_SCOPE(root, "test.mirrored"); }
  TraceTailConfig none;
  none.slow_trace_nanos = INT64_MAX;
  tc.ConfigureTailCapture(none);
  { IQ_TRACE_ROOT_SCOPE(root, "test.discarded"); }
  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.CounterValue("iq.trace.slow_retained"),
            before.CounterValue("iq.trace.slow_retained") + 1);
  EXPECT_GE(after.CounterValue("iq.trace.discarded"),
            before.CounterValue("iq.trace.discarded") + 1);
}

// ---------------------------------------------------------------------------
// /tracez payload + `iq_obs trace` analysis over real traces
// ---------------------------------------------------------------------------

TEST(TraceCausalTest, TracezRoundTripsThroughAnalysis) {
  constexpr int kN = 24, kM = 12;
  auto engine = MakeTracedEngine(kN, kM, 3, 99, 4);
  ASSERT_TRUE(engine.ok());
  TraceCollector& tc = TraceCollector::Global();
  tc.ClearRetained();
  tc.Clear();
  auto batch = engine->SolveBatch(MakeBatch(kN, kM));
  ASSERT_TRUE(batch.ok());
  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);

  const std::string payload = tc.TracezJson();
  TraceDump dump = ParseTracezDump(payload);
  EXPECT_EQ(dump.config.slow_trace_nanos, 1);
  ASSERT_EQ(dump.traces.size(), 1u);
  const ParsedTrace& trace = dump.traces[0];
  EXPECT_EQ(trace.trace_id, retained[0].trace_id);
  EXPECT_EQ(trace.spans.size(), retained[0].spans.size());
  EXPECT_EQ(trace.num_threads, retained[0].NumThreads());

  TraceAnalysis analysis = AnalyzeTrace(trace);
  EXPECT_EQ(analysis.trace_id, trace.trace_id);
  ASSERT_FALSE(analysis.critical_path.empty());
  EXPECT_EQ(analysis.critical_path.front().name, "IqEngine::SolveBatch");
  // Child spans (the batch's ParallelFor call and its items) explain
  // essentially all of the root's wall clock; the acceptance bar is 90%.
  EXPECT_GE(analysis.accounted_fraction, 0.9);
  EXPECT_FALSE(analysis.self_time.empty());
  EXPECT_NE(TraceVerdict(analysis).find("critical path"), std::string::npos);

  const std::string report = FormatTraceReport(dump, 5);
  EXPECT_NE(report.find("IqEngine::SolveBatch"), std::string::npos);
  const std::string json = TraceReportJson(dump);
  EXPECT_NE(json.find("\"iq_trace\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_analysis\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\""), std::string::npos);

  tc.SetEnabled(false);
  tc.Clear();
  tc.ClearRetained();
}

TEST(TraceCausalTest, TracezSpanNameWithJsonSpecialsRoundTrips) {
  ScopedTracing tracing(RetainAll());
  static constexpr const char* kOdd = "win \"a\\b\"\tx\ny";
  {
    IQ_TRACE_ROOT_SCOPE(root, kOdd);
    IQ_TRACE_SCOPE(kOdd);
  }
  const TraceDump dump =
      ParseTracezDump(TraceCollector::Global().TracezJson());
  ASSERT_EQ(dump.traces.size(), 1u);
  EXPECT_EQ(dump.traces[0].op, kOdd);
  ASSERT_EQ(dump.traces[0].spans.size(), 2u);
  for (const ParsedSpan& span : dump.traces[0].spans) {
    EXPECT_EQ(span.name, kOdd);
  }
}

TEST(TraceCausalTest, SerialMaxHitTraceSplitsCandidateSolveAndEval) {
  // With ParallelFor spans in the rings, a serial greedy search splits into
  // its layers: every BuildCandidates span has a candidate-solve and a
  // candidate-eval child, each iteration's select/apply span sits beside it
  // under MaxHitIq, and the analyzer ranks all three by self time.
  auto engine = MakeTracedEngine(60, 30, 3, 77, /*num_threads=*/0);
  ASSERT_TRUE(engine.ok());
  TraceCollector& tc = TraceCollector::Global();
  tc.ClearRetained();
  tc.Clear();
  ASSERT_TRUE(engine->MaxHit(0, 0.3).ok());
  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  const RetainedTrace& rt = retained[0];
  ExpectWellFormedTree(rt);
  EXPECT_EQ(rt.NumThreads(), 1);
  std::map<uint64_t, std::multiset<std::string>> child_names;
  for (const TraceEvent& s : rt.spans) {
    child_names[s.parent_span_id].insert(s.name);
  }
  std::map<uint64_t, std::string> name_of;
  for (const TraceEvent& s : rt.spans) name_of[s.span_id] = s.name;
  int build_candidates = 0;
  int select_apply = 0;
  uint64_t last_build_start = 0;
  for (const TraceEvent& s : rt.spans) {
    if (std::string(s.name) == "BuildCandidates") {
      last_build_start = std::max(last_build_start, s.start_ns);
    }
  }
  for (const TraceEvent& s : rt.spans) {
    if (std::string(s.name) == "greedy.select_apply") {
      ++select_apply;
      EXPECT_EQ(name_of[s.parent_span_id], "MaxHitIq");
    }
    if (std::string(s.name) != "BuildCandidates") continue;
    ++build_candidates;
    const std::multiset<std::string>& kids = child_names[s.span_id];
    EXPECT_EQ(kids.count("greedy.candidate_solve"), 1u);
    // Max-Hit drops the steps over its budget before H is computed, so the
    // iteration that ends the search may have nothing left to evaluate;
    // every iteration that applies a step evaluated its candidates.
    if (s.start_ns == last_build_start) {
      EXPECT_LE(kids.count("greedy.candidate_eval"), 1u);
    } else {
      EXPECT_EQ(kids.count("greedy.candidate_eval"), 1u);
    }
  }
  EXPECT_GT(build_candidates, 1);
  // One select/apply span per iteration, after its candidates.
  EXPECT_GT(select_apply, 0);
  EXPECT_LE(select_apply, build_candidates);

  const TraceDump dump = ParseTracezDump(tc.TracezJson());
  ASSERT_EQ(dump.traces.size(), 1u);
  const TraceAnalysis analysis = AnalyzeTrace(dump.traces[0]);
  for (const char* layer : {"greedy.candidate_solve", "greedy.candidate_eval",
                            "greedy.select_apply"}) {
    auto ranked = std::find_if(
        analysis.self_time.begin(), analysis.self_time.end(),
        [&](const SelfTimeRollup& r) { return r.name == layer; });
    ASSERT_NE(ranked, analysis.self_time.end()) << layer;
    EXPECT_GT(ranked->self_ns, 0u) << layer;
  }
  const std::string report =
      FormatTraceReport(dump, static_cast<int>(analysis.self_time.size()));
  EXPECT_NE(report.find("greedy.candidate_solve"), std::string::npos);
  EXPECT_NE(report.find("greedy.candidate_eval"), std::string::npos);

  tc.SetEnabled(false);
  tc.Clear();
  tc.ClearRetained();
}

TEST(TraceCausalTest, PerfettoExportCarriesTidsAndFlows) {
  constexpr int kN = 24, kM = 12;
  auto engine = MakeTracedEngine(kN, kM, 3, 1234, 4);
  ASSERT_TRUE(engine.ok());
  TraceCollector& tc = TraceCollector::Global();
  tc.ClearRetained();
  tc.Clear();
  ASSERT_TRUE(engine->SolveBatch(MakeBatch(kN, kM)).ok());
  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);

  const std::string json = tc.TraceJson(retained[0].trace_id);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  if (retained[0].NumThreads() >= 2) {
    // Cross-thread parent/child pairs get flow arrows.
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  }
  int braces = 0, brackets = 0;
  for (char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  // Unknown ids export nothing.
  EXPECT_TRUE(tc.TraceJson(0xdeadbeef).empty());

  tc.SetEnabled(false);
  tc.Clear();
  tc.ClearRetained();
}

// ---------------------------------------------------------------------------
// Critical-path walk on fixtures where descending into the last-ending
// child alone gives the wrong answer
// ---------------------------------------------------------------------------

/// A one-thread trace from (name, span id, parent id, start, end) rows; the
/// first row is the root.
struct FixtureSpan {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t start;
  uint64_t end;
};

ParsedTrace FixtureTrace(const std::vector<FixtureSpan>& rows) {
  ParsedTrace t;
  t.trace_id = rows.front().id;
  t.op = rows.front().name;
  t.start_ns = rows.front().start;
  t.dur_ns = rows.front().end - rows.front().start;
  t.num_threads = 1;
  for (const FixtureSpan& r : rows) {
    ParsedSpan s;
    s.trace_id = t.trace_id;
    s.span_id = r.id;
    s.parent_span_id = r.parent;
    s.name = r.name;
    s.tid = 1;
    s.start_ns = r.start;
    s.dur_ns = r.end - r.start;
    t.spans.push_back(s);
  }
  return t;
}

/// "name:self" per critical-path step, in path order.
std::vector<std::string> PathOf(const TraceAnalysis& a) {
  std::vector<std::string> path;
  for (const CriticalPathStep& s : a.critical_path) {
    path.push_back(s.name + ":" + std::to_string(s.self_ns));
  }
  return path;
}

TEST(TraceAnalysisTest, SerialSiblingsAreAllOnTheCriticalPath) {
  // The root waited on A, then on B. Descending into B alone would call
  // A's 60 ns root self time.
  const TraceAnalysis a = AnalyzeTrace(FixtureTrace({
      {"root", 1, 0, 0, 100},
      {"A", 2, 1, 0, 60},
      {"B", 3, 1, 60, 100},
  }));
  EXPECT_EQ(PathOf(a), (std::vector<std::string>{"root:0", "A:60", "B:40"}));
  EXPECT_EQ(a.accounted_ns, 100u);
  EXPECT_DOUBLE_EQ(a.accounted_fraction, 1.0);
  EXPECT_NE(TraceVerdict(a).find("60.0% of the wall clock is self time in A"),
            std::string::npos)
      << TraceVerdict(a);
}

TEST(TraceAnalysisTest, GapBetweenChildrenIsParentSelfTime) {
  // Descending into B alone would drop A and give the root 90 ns.
  const TraceAnalysis a = AnalyzeTrace(FixtureTrace({
      {"root", 1, 0, 0, 100},
      {"A", 2, 1, 0, 10},
      {"B", 3, 1, 90, 100},
  }));
  EXPECT_EQ(PathOf(a),
            (std::vector<std::string>{"root:80", "A:10", "B:10"}));
  EXPECT_EQ(a.accounted_ns, 20u);
  EXPECT_DOUBLE_EQ(a.accounted_fraction, 0.2);
  EXPECT_NE(TraceVerdict(a).find("80.0% of the wall clock is self time in "
                                 "root"),
            std::string::npos)
      << TraceVerdict(a);
}

TEST(TraceAnalysisTest, OverlappingParallelChildLeavesThePath) {
  // C ran first; then A and B ran in parallel and the root waited for B.
  // A overlaps B, so it is off the path; C ends before B starts, so it is
  // on it, and only the 5 ns between C and B is root self time.
  const TraceAnalysis a = AnalyzeTrace(FixtureTrace({
      {"root", 1, 0, 0, 100},
      {"C", 2, 1, 0, 15},
      {"A", 3, 1, 15, 90},
      {"B", 4, 1, 20, 100},
      {"B.inner", 5, 4, 30, 70},
  }));
  EXPECT_EQ(PathOf(a), (std::vector<std::string>{"root:5", "C:15", "B:40",
                                                 "B.inner:40"}));
  EXPECT_EQ(a.critical_path[3].depth, 2);
  EXPECT_EQ(a.accounted_ns, 95u);
  // Whole-trace self time still counts the parallel child.
  ASSERT_FALSE(a.self_time.empty());
  EXPECT_EQ(a.self_time.front().name, "A");
  EXPECT_EQ(a.self_time.front().self_ns, 75u);
}

}  // namespace
}  // namespace iq
