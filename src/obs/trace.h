#ifndef IQ_OBS_TRACE_H_
#define IQ_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/annotations.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/trace_context.h"

// Causal, request-scoped tracing with tail-based slow-solve capture
// (DESIGN.md §14). Two layers:
//
//  * Scoped spans (PR 2, upgraded): IQ_TRACE_SCOPE("name") records a
//    completed scope into the calling thread's ring buffer. Spans now carry
//    a trace id / span id / parent span id read from the thread's
//    util/trace_context.h slot, which ThreadPool::ParallelFor propagates
//    into every chunk body — so the spans of one solve link into a tree
//    even when they ran on different workers. ParallelFor records its own
//    call and chunk spans into the same rings (util/thread_pool.h), which
//    makes the rings the one span store: traces split into ParallelFor
//    layers, and obs/profile.h builds its chunk statistics from them.
//
//  * Root spans + tail retention: IQ_TRACE_ROOT_SCOPE(root, "op") opens a
//    *root* span at a solve entry point (MinCost / MaxHit / ApplyStrategy /
//    SolveBatch). It allocates a fresh trace id, installs the context, and
//    at destruction asks the collector to keep or discard the whole trace:
//    retained iff the solve erred, its latency cleared the configured
//    slow-trace threshold, or it fell in the keep-first-N warmup — into a
//    bounded last-K store served at /tracez. Discarding is free (the scratch
//    rings are simply left to be overwritten), which is what makes always-on
//    capture affordable in production. A TraceRoot constructed while a trace
//    is already active joins it as a child span instead (per-item roots
//    inside a SolveBatch root), so one batch is one trace.
//
// Construction of TraceScope / TraceRoot outside this header is banned by
// iq_lint (direct-trace-record): instrumented code uses the macros, so every
// span site is greppable as one idiom.
//
// Tracing is always compiled in; one run-time gate keeps it off the hot
// path: collection starts only after SetEnabled(true) (the engine flips it
// when EngineOptions::slow_trace_nanos > 0), and a disabled scope costs a
// single relaxed atomic load (bench/micro_solver.cc
// BM_TraceOverheadDisabled gates this).

namespace iq {

class Counter;

/// Tail-based retention policy (DESIGN.md §14). All three knobs combine
/// with OR: a finished root trace is retained if it erred, OR ran at least
/// `slow_trace_nanos` (when > 0), OR was one of the first `keep_first_n`
/// roots since configuration (warmup — so a fresh process always has a few
/// example traces even before anything is slow).
struct TraceTailConfig {
  int64_t slow_trace_nanos = 0;
  int keep_first_n = 0;
  size_t max_retained = 32;
};

/// One retained trace: the root solve's identity plus every span collected
/// from the scratch rings, sorted by start time.
struct RetainedTrace {
  uint64_t trace_id = 0;
  const char* op = nullptr;  // root span name ("IqEngine::SolveBatch")
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  bool erred = false;
  /// Retained by the keep-first-N warmup rather than by latency/error.
  bool warmup = false;
  std::vector<TraceEvent> spans;

  /// Distinct recording threads among `spans`.
  int NumThreads() const;
};

class TraceCollector {
 public:
  /// Events kept per thread; older events are overwritten once full.
  static constexpr size_t kRingCapacity = 1 << 13;

  static TraceCollector& Global();

  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a completed span to the calling thread's ring buffer, stamping
  /// the thread's collector tid. Overwrites the oldest span when the ring
  /// is full (mirrored to iq.trace.dropped).
  void Record(TraceEvent e);

  /// Every buffered event across all threads, sorted by start time.
  std::vector<TraceEvent> BufferedEvents() const;

  /// BufferedEvents() as Perfetto/Chrome JSON (the flat PR 2 export, kept
  /// for whole-process captures like examples/trace_demo.cpp).
  std::string ToJson() const;
  /// ToJson() written to `path`.
  Status WriteJson(const std::string& path) const;

  /// Drops all buffered events (buffers stay registered to their threads).
  void Clear();

  /// Buffered events across all threads (ring overwrites included), and how
  /// many were overwritten — exposed so tests can assert ring semantics.
  size_t EventCount() const;
  uint64_t DroppedCount() const;

  // ---- tail-based capture (root spans; DESIGN.md §14) ----

  /// Installs the retention policy. Takes effect for roots finishing after
  /// the call; resets the keep-first-N warmup counter.
  void ConfigureTailCapture(const TraceTailConfig& config);
  TraceTailConfig tail_config() const;

  /// Called by a finishing TraceRoot that owns its trace: applies the
  /// retention policy and, when the trace is kept, collects its spans from
  /// every thread's ring into the bounded last-K store. Not user API — the
  /// root-span macro is the entry point.
  void FinishRoot(const char* op, uint64_t trace_id, uint64_t start_ns,
                  uint64_t dur_ns, bool erred);

  /// The retained slow traces, oldest first.
  std::vector<RetainedTrace> RetainedTraces() const;
  /// Drops all retained traces (counters keep running).
  void ClearRetained();

  /// Roots retained / discarded since process start (also mirrored to the
  /// metrics registry as iq.trace.slow_retained / iq.trace.discarded).
  uint64_t retained_total() const {
    return retained_total_.load(std::memory_order_relaxed);
  }
  uint64_t discarded_total() const {
    return discarded_total_.load(std::memory_order_relaxed);
  }

  /// The /tracez payload: retention config, drop/retain counters, and every
  /// retained trace with its spans. Line-oriented JSON (one "trace_summary"
  /// or "span" object per line) so `iq_obs trace` re-ingests it with the
  /// util/json.h line scanner — same idiom as obs/profile.h reports.
  std::string TracezJson() const;

  /// Single-trace Perfetto/Chrome JSON for a retained trace (same renderer
  /// as ToJson). Empty string when `trace_id` is not in the store.
  std::string TraceJson(uint64_t trace_id) const;

 private:
  struct ThreadBuffer {
    /// Uncontended in steady state: only the owning thread records, and the
    /// lock is shared with readers only while a flush is running (which
    /// holds the registry lock first — hence the higher rank).
    Mutex mu{LockRank::kTraceBuffer, "TraceBuffer::mu"};
    /// Assigned once at registration, under the collector's mu_; read-only
    /// afterwards.  // iq-lint: allow(unguarded-member)
    int tid = 0;  // iq-lint: allow(unguarded-member)
    std::vector<TraceEvent> ring IQ_GUARDED_BY(mu);
    /// Events recorded since the last Clear(); next % kRingCapacity is the
    /// overwrite cursor, next - ring.size() the number overwritten.
    size_t next IQ_GUARDED_BY(mu) = 0;
  };

  TraceCollector();

  ThreadBuffer* BufferForThisThread();

  /// Copies every buffered span of `trace_id` out of the rings, sorted by
  /// (start_ns, span_id).
  std::vector<TraceEvent> CollectSpans(uint64_t trace_id) const;

  mutable Mutex mu_{LockRank::kTraceRegistry, "TraceCollector::mu_"};
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ IQ_GUARDED_BY(mu_);
  int next_tid_ IQ_GUARDED_BY(mu_) = 1;
  std::atomic<bool> enabled_{false};

  // Tail-capture state. Config knobs are relaxed atomics so the per-root
  // discard decision takes no lock.
  std::atomic<int64_t> slow_trace_nanos_{0};
  std::atomic<int> keep_first_n_{0};
  std::atomic<size_t> max_retained_{32};
  std::atomic<uint64_t> roots_finished_{0};
  std::atomic<uint64_t> retained_total_{0};
  std::atomic<uint64_t> discarded_total_{0};

  /// Bounded last-K slow-trace store. Rank kTraceStore: only ever taken
  /// with no other trace lock held (FinishRoot collects first, inserts
  /// after releasing the registry/buffer locks).
  mutable Mutex store_mu_{LockRank::kTraceStore, "TraceCollector::store_mu_"};
  std::deque<RetainedTrace> retained_ IQ_GUARDED_BY(store_mu_);

  /// Metric mirrors (iq.trace.*), resolved once in the constructor so
  /// incrementing under the ring locks is a lock-free atomic add.
  Counter* dropped_counter_ = nullptr;        // iq-lint: allow(unguarded-member)
  Counter* slow_retained_counter_ = nullptr;  // iq-lint: allow(unguarded-member)
  Counter* discarded_counter_ = nullptr;      // iq-lint: allow(unguarded-member)
};

/// RAII body of IQ_TRACE_SCOPE. The enabled check happens at construction;
/// a scope that started while tracing was on is recorded even if tracing is
/// switched off before it closes. While open, the scope is the thread's
/// current span (children recorded inside parent under it).
class TraceScope {
 public:
  explicit TraceScope(const char* name,
                      int64_t arg0 = TraceEvent::kNoArg,
                      int64_t arg1 = TraceEvent::kNoArg) {
    TraceCollector& tc = TraceCollector::Global();
    if (!tc.enabled()) return;
    name_ = name;
    arg0_ = arg0;
    arg1_ = arg1;
    const TraceContext ctx = CurrentTraceContext();
    trace_id_ = ctx.trace_id;
    parent_span_id_ = ctx.span_id;
    span_id_ = NewSpanId();
    SetTraceContext(TraceContext{trace_id_, span_id_});
    start_ns_ = MonotonicNanos();
  }
  ~TraceScope() {
    if (name_ == nullptr) return;
    const uint64_t end_ns = MonotonicNanos();
    SetTraceContext(TraceContext{trace_id_, parent_span_id_});
    TraceEvent e;
    e.name = name_;
    e.trace_id = trace_id_;
    e.span_id = span_id_;
    e.parent_span_id = parent_span_id_;
    e.start_ns = start_ns_;
    e.dur_ns = end_ns - start_ns_;
    e.arg0 = arg0_;
    e.arg1 = arg1_;
    TraceCollector::Global().Record(e);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  uint64_t start_ns_ = 0;
  int64_t arg0_ = TraceEvent::kNoArg;
  int64_t arg1_ = TraceEvent::kNoArg;
};

/// RAII body of IQ_TRACE_ROOT_SCOPE: the root span of one solve. Allocates
/// a fresh trace id and owns the keep/discard decision at destruction —
/// unless a trace is already active on the thread, in which case it joins
/// as a plain child span (per-item roots inside a SolveBatch trace) and the
/// enclosing root decides. The engine stamps trace_id() onto the flight
/// recorder's solve events and calls NoteError() on failed solves so erred
/// traces are always retained.
class TraceRoot {
 public:
  explicit TraceRoot(const char* op,
                     int64_t arg0 = TraceEvent::kNoArg,
                     int64_t arg1 = TraceEvent::kNoArg) {
    TraceCollector& tc = TraceCollector::Global();
    if (!tc.enabled()) return;
    op_ = op;
    arg0_ = arg0;
    arg1_ = arg1;
    prev_ = CurrentTraceContext();
    if (prev_.active()) {
      trace_id_ = prev_.trace_id;
      parent_span_id_ = prev_.span_id;
      span_id_ = NewSpanId();
      owns_trace_ = false;
    } else {
      // The root span's id doubles as the trace id.
      trace_id_ = NewSpanId();
      span_id_ = trace_id_;
      parent_span_id_ = 0;
      owns_trace_ = true;
    }
    SetTraceContext(TraceContext{trace_id_, span_id_});
    start_ns_ = MonotonicNanos();
  }
  ~TraceRoot() {
    if (op_ == nullptr) return;
    const uint64_t end_ns = MonotonicNanos();
    SetTraceContext(prev_);
    TraceEvent e;
    e.name = op_;
    e.trace_id = trace_id_;
    e.span_id = span_id_;
    e.parent_span_id = parent_span_id_;
    e.start_ns = start_ns_;
    e.dur_ns = end_ns - start_ns_;
    e.arg0 = arg0_;
    e.arg1 = arg1_;
    TraceCollector& tc = TraceCollector::Global();
    tc.Record(e);
    if (owns_trace_) {
      tc.FinishRoot(op_, trace_id_, start_ns_, end_ns - start_ns_, erred_);
    }
  }

  TraceRoot(const TraceRoot&) = delete;
  TraceRoot& operator=(const TraceRoot&) = delete;

  /// Marks the solve as failed: the trace is retained regardless of
  /// latency. No-op for joined (non-owning) roots — the enclosing solve
  /// fails too and its root retains the shared trace.
  void NoteError() { erred_ = true; }

  /// The id stamped on this solve's spans and flight-recorder events;
  /// 0 when tracing is disabled.
  uint64_t trace_id() const { return trace_id_; }

  /// False when this root joined an enclosing trace instead of starting
  /// its own.
  bool owns_trace() const { return owns_trace_; }

 private:
  const char* op_ = nullptr;
  TraceContext prev_;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  uint64_t start_ns_ = 0;
  int64_t arg0_ = TraceEvent::kNoArg;
  int64_t arg1_ = TraceEvent::kNoArg;
  bool owns_trace_ = false;
  bool erred_ = false;
};

}  // namespace iq

#define IQ_TRACE_CONCAT2_(a, b) a##b
#define IQ_TRACE_CONCAT_(a, b) IQ_TRACE_CONCAT2_(a, b)
#define IQ_TRACE_SCOPE(name) \
  ::iq::TraceScope IQ_TRACE_CONCAT_(iq_trace_scope_, __LINE__)(name)
/// Span with a small fixed arg payload (candidate index, epoch id, ...).
#define IQ_TRACE_SCOPE_ARG(name, a0) \
  ::iq::TraceScope IQ_TRACE_CONCAT_(iq_trace_scope_, __LINE__)( \
      name, static_cast<int64_t>(a0))
#define IQ_TRACE_SCOPE_ARG2(name, a0, a1)                        \
  ::iq::TraceScope IQ_TRACE_CONCAT_(iq_trace_scope_, __LINE__)(  \
      name, static_cast<int64_t>(a0), static_cast<int64_t>(a1))
/// Root span of one solve; declares `var` so the call site can reach
/// NoteError() / trace_id().
#define IQ_TRACE_ROOT_SCOPE(var, op, ...) \
  ::iq::TraceRoot var(op __VA_OPT__(, ) __VA_ARGS__)

#endif  // IQ_OBS_TRACE_H_
