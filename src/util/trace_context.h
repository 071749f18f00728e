#ifndef IQ_UTIL_TRACE_CONTEXT_H_
#define IQ_UTIL_TRACE_CONTEXT_H_

#include <cstdint>

// Request-scoped trace context (DESIGN.md §14). A solve entering the engine
// opens a *root span* (obs/trace.h), which installs a TraceContext — the
// 64-bit trace id of the request plus the id of the innermost open span —
// in a thread-local slot. Every span opened afterwards on that thread reads
// the slot to link itself (trace id + parent span id) and every
// ThreadPool::ParallelFor captures the dispatcher's context and installs it
// around the chunk bodies it runs on workers, so spans recorded from worker
// threads still belong to the solve that dispatched them.
//
// The carrier, the span record and span-id allocation live in util — not
// obs — because ThreadPool (util) propagates the context and records its
// own ParallelFor spans, and util may not depend on obs. Everything else
// (the rings, tail-based retention, export) stays in obs/trace.h.
//
// Propagation is observation-only: nothing on a solve path reads the
// context to make a decision, so the PR 3/8 bit-identity contract is
// untouched (tests/parallel_diff_test.cc runs tracing on vs off).

namespace iq {

/// The ambient trace identity of the calling thread. `trace_id == 0` means
/// "no request in flight" (spans recorded then are flat, PR 2 style).
/// `span_id` is the innermost open span — the parent for new children.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool active() const { return trace_id != 0; }
};

/// What recorded a span. IQ_TRACE_SCOPE and IQ_TRACE_ROOT_SCOPE record
/// kScope. ThreadPool::ParallelFor records one kParallelFor span per call
/// (arg0 = the call's item count) that parents one kChunk span per
/// executed chunk (arg0 = items in the chunk). A run of pooled claims also
/// sets arg1 = its steals: items claimed after its participant had run its
/// fair share of the range. A pool worker that
/// found the range already drained records one empty chunk (arg0 = 0).
enum class SpanKind : uint8_t { kScope, kParallelFor, kChunk };

/// One completed span. `name` must have static storage duration (the macros
/// pass string literals, ParallelFor its call-site label); the collector
/// stores the pointer, not a copy. trace/span/parent ids are 0 for flat
/// spans recorded outside any root.
struct TraceEvent {
  /// "unset" sentinel for the fixed arg payload (args are small facts like
  /// a candidate index or an epoch id, rendered only when set).
  static constexpr int64_t kNoArg = INT64_MIN;

  const char* name = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint64_t start_ns = 0;  // util/timer.h MonotonicNanos()
  uint64_t dur_ns = 0;
  /// Collector-assigned id of the recording thread (stamped on record).
  int tid = 0;
  SpanKind kind = SpanKind::kScope;
  int64_t arg0 = kNoArg;
  int64_t arg1 = kNoArg;
};

/// Allocates a process-unique nonzero span id. A root span's id doubles as
/// its trace id.
uint64_t NewSpanId();

/// The calling thread's current context ({0, 0} when none is installed).
TraceContext CurrentTraceContext();

/// Installs `ctx` as the calling thread's context.
void SetTraceContext(const TraceContext& ctx);

/// Installs `ctx` and returns the previous context, for save/restore around
/// a delegated task (ThreadPool helper tasks, scope destructors).
TraceContext ExchangeTraceContext(const TraceContext& ctx);

}  // namespace iq

#endif  // IQ_UTIL_TRACE_CONTEXT_H_
