#include "util/trace_context.h"

#include <atomic>

namespace iq {
namespace {

/// One slot per thread for the process lifetime. Plain POD thread_local:
/// reading/writing it is two word moves, cheap enough for the per-task
/// save/restore in ThreadPool's dispatch path even with tracing disabled.
thread_local TraceContext t_trace_context;

std::atomic<uint64_t> g_next_span_id{1};

}  // namespace

uint64_t NewSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

TraceContext CurrentTraceContext() { return t_trace_context; }

void SetTraceContext(const TraceContext& ctx) { t_trace_context = ctx; }

TraceContext ExchangeTraceContext(const TraceContext& ctx) {
  TraceContext prev = t_trace_context;
  t_trace_context = ctx;
  return prev;
}

}  // namespace iq
