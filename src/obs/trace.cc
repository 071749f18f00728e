#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace iq {
namespace {

/// Bridges ThreadPool's layering-safe observer hook into obs: util/ may not
/// depend on obs/, so the pool publishes one callback per executed task
/// (turned into iq.pool.* metrics here) and one per finished pool span
/// (recorded into the calling thread's ring like any other span).
const ThreadPool::TaskObserver kPoolObserver{
    +[](uint64_t queue_wait_nanos) {
      struct Cached {
        Counter* tasks;
        Histogram* queue_wait;
      };
      static Cached c = [] {
        MetricsRegistry& reg = MetricsRegistry::Global();
        return Cached{reg.GetCounter("iq.pool.tasks"),
                      reg.GetHistogram("iq.pool.queue_wait_nanos")};
      }();
      c.tasks->Increment();
      c.queue_wait->Record(queue_wait_nanos);
    },
    +[](const TraceEvent& span) { TraceCollector::Global().Record(span); }};

struct PoolObserverInstaller {
  PoolObserverInstaller() { ThreadPool::SetTaskObserver(&kPoolObserver); }
};
const PoolObserverInstaller g_pool_observer_installer;

}  // namespace

int RetainedTrace::NumThreads() const {
  std::set<int> tids;
  for (const TraceEvent& e : spans) tids.insert(e.tid);
  return static_cast<int>(tids.size());
}

TraceCollector::TraceCollector() {
  // Metric mirrors are resolved here, with no collector lock held:
  // MetricsRegistry::mu_ ranks *below* the trace locks (kMetricsRegistry <
  // kTraceRegistry), so a lazy GetCounter inside Record/FinishRoot would
  // invert the order. Counter::Increment itself is a relaxed atomic add —
  // legal under any lock.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  dropped_counter_ = metrics.GetCounter("iq.trace.dropped");
  slow_retained_counter_ = metrics.GetCounter("iq.trace.slow_retained");
  discarded_counter_ = metrics.GetCounter("iq.trace.discarded");
}

TraceCollector& TraceCollector::Global() {
  // Leaked on purpose, like the metrics registry: thread_local buffer
  // pointers must never dangle during late static destruction.
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

TraceCollector::ThreadBuffer* TraceCollector::BufferForThisThread() {
  // One buffer per thread for the process lifetime. The collector is a
  // process singleton, so a per-thread static is the right granularity.
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    buffer = owned.get();
    MutexLock lock(&mu_);
    buffer->tid = next_tid_++;
    buffers_.push_back(std::move(owned));
  }
  return buffer;
}

void TraceCollector::Record(TraceEvent e) {
  ThreadBuffer* buf = BufferForThisThread();
  e.tid = buf->tid;
  MutexLock lock(&buf->mu);
  if (buf->ring.size() < kRingCapacity) {
    buf->ring.push_back(e);
  } else {
    buf->ring[buf->next % kRingCapacity] = e;
    // Ring overwrite: the span falls out of tail capture. Mirrored to the
    // registry so /metrics shows trace loss the same way it shows
    // iq.eventlog.dropped.
    dropped_counter_->Increment();
  }
  ++buf->next;
}

namespace {

/// The trailing `"args": {...}` clause of one exported span; empty when the
/// span carries neither causal ids nor an arg payload (flat pre-root spans).
/// Pool spans name their payload: items, and steals for dynamic chunks.
std::string EventArgsJson(const TraceEvent& e) {
  if (e.trace_id == 0 && e.arg0 == TraceEvent::kNoArg) return "";
  std::string args = StrFormat(
      ", \"args\": {\"trace_id\": %llu, \"span_id\": %llu, "
      "\"parent_span_id\": %llu",
      static_cast<unsigned long long>(e.trace_id),
      static_cast<unsigned long long>(e.span_id),
      static_cast<unsigned long long>(e.parent_span_id));
  const bool pool = e.kind != SpanKind::kScope;
  if (e.arg0 != TraceEvent::kNoArg) {
    args += StrFormat(", \"%s\": %lld", pool ? "items" : "arg0",
                      static_cast<long long>(e.arg0));
  }
  if (e.arg1 != TraceEvent::kNoArg) {
    args += StrFormat(", \"%s\": %lld", pool ? "steals" : "arg1",
                      static_cast<long long>(e.arg1));
  }
  args += "}";
  return args;
}

const char* SpanCategory(SpanKind kind) {
  if (kind == SpanKind::kParallelFor) return "iq.parallel_for";
  return kind == SpanKind::kChunk ? "iq.chunk" : "iq";
}

/// The one Perfetto/Chrome trace-event renderer (timestamps in µs): a
/// thread-name metadata event ("ph": "M") per recording thread so viewers
/// label lanes "iq-thread-N", one complete event ("ph": "X") per span, and
/// flow arrows binding each cross-thread child span to its parent.
std::string PerfettoJson(const std::vector<TraceEvent>& spans) {
  // tid per span id, for the cross-thread flow arrows below.
  std::map<uint64_t, int> span_tid;
  std::set<int> tids;
  for (const TraceEvent& e : spans) {
    span_tid[e.span_id] = e.tid;
    tids.insert(e.tid);
  }
  std::string out = "{\"traceEvents\": [";
  const char* sep = "";
  for (int tid : tids) {
    out += StrFormat(
        "%s\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": %d, \"args\": {\"name\": \"iq-thread-%d\"}}",
        sep, tid, tid);
    sep = ",";
  }
  for (const TraceEvent& e : spans) {
    out += StrFormat(
        "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d%s}",
        sep, JsonEscape(e.name).c_str(), SpanCategory(e.kind),
        static_cast<double>(e.start_ns) / 1e3,
        static_cast<double>(e.dur_ns) / 1e3, e.tid, EventArgsJson(e).c_str());
    sep = ",";
    // Cross-thread parentage is invisible in a per-lane view; a flow arrow
    // from the parent's lane to the child's start makes the causal hop
    // explicit in Perfetto. Same-thread children just nest visually.
    auto parent = span_tid.find(e.parent_span_id);
    if (parent == span_tid.end() || parent->second == e.tid) continue;
    const double ts = static_cast<double>(e.start_ns) / 1e3;
    out += StrFormat(
        ",\n  {\"name\": \"parent\", \"cat\": \"iq.flow\", \"ph\": \"s\", "
        "\"id\": %llu, \"ts\": %.3f, \"pid\": 1, \"tid\": %d}",
        static_cast<unsigned long long>(e.span_id), ts, parent->second);
    out += StrFormat(
        ",\n  {\"name\": \"parent\", \"cat\": \"iq.flow\", \"ph\": \"f\", "
        "\"bp\": \"e\", \"id\": %llu, \"ts\": %.3f, \"pid\": 1, "
        "\"tid\": %d}",
        static_cast<unsigned long long>(e.span_id), ts, e.tid);
  }
  out += "\n], \"displayTimeUnit\": \"ns\"}\n";
  return out;
}

}  // namespace

std::vector<TraceEvent> TraceCollector::BufferedEvents() const {
  std::vector<TraceEvent> events;
  {
    MutexLock lock(&mu_);
    for (const auto& buf : buffers_) {
      MutexLock buf_lock(&buf->mu);
      events.insert(events.end(), buf->ring.begin(), buf->ring.end());
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return events;
}

std::string TraceCollector::ToJson() const {
  return PerfettoJson(BufferedEvents());
}

Status TraceCollector::WriteJson(const std::string& path) const {
  std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::Internal("short write to trace file " + path);
  }
  return Status::Ok();
}

void TraceCollector::Clear() {
  MutexLock lock(&mu_);
  for (const auto& buf : buffers_) {
    MutexLock buf_lock(&buf->mu);
    buf->ring.clear();
    buf->next = 0;
  }
}

size_t TraceCollector::EventCount() const {
  MutexLock lock(&mu_);
  size_t n = 0;
  for (const auto& buf : buffers_) {
    MutexLock buf_lock(&buf->mu);
    n += buf->ring.size();
  }
  return n;
}

uint64_t TraceCollector::DroppedCount() const {
  MutexLock lock(&mu_);
  uint64_t dropped = 0;
  for (const auto& buf : buffers_) {
    MutexLock buf_lock(&buf->mu);
    if (buf->next > buf->ring.size()) {
      dropped += buf->next - buf->ring.size();
    }
  }
  return dropped;
}

void TraceCollector::ConfigureTailCapture(const TraceTailConfig& config) {
  slow_trace_nanos_.store(config.slow_trace_nanos, std::memory_order_relaxed);
  keep_first_n_.store(config.keep_first_n, std::memory_order_relaxed);
  max_retained_.store(std::max<size_t>(1, config.max_retained),
                      std::memory_order_relaxed);
  // Restart the keep-first-N warmup under the new policy.
  roots_finished_.store(0, std::memory_order_relaxed);
}

TraceTailConfig TraceCollector::tail_config() const {
  TraceTailConfig config;
  config.slow_trace_nanos = slow_trace_nanos_.load(std::memory_order_relaxed);
  config.keep_first_n = keep_first_n_.load(std::memory_order_relaxed);
  config.max_retained = max_retained_.load(std::memory_order_relaxed);
  return config;
}

std::vector<TraceEvent> TraceCollector::CollectSpans(uint64_t trace_id) const {
  std::vector<TraceEvent> spans;
  {
    MutexLock lock(&mu_);
    for (const auto& buf : buffers_) {
      MutexLock buf_lock(&buf->mu);
      for (const TraceEvent& e : buf->ring) {
        if (e.trace_id == trace_id) spans.push_back(e);
      }
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.span_id < b.span_id;
            });
  return spans;
}

void TraceCollector::FinishRoot(const char* op, uint64_t trace_id,
                                uint64_t start_ns, uint64_t dur_ns,
                                bool erred) {
  const uint64_t seen = roots_finished_.fetch_add(1, std::memory_order_relaxed);
  const int keep_first = keep_first_n_.load(std::memory_order_relaxed);
  const bool warmup =
      keep_first > 0 && seen < static_cast<uint64_t>(keep_first);
  const int64_t slow_ns = slow_trace_nanos_.load(std::memory_order_relaxed);
  const bool slow = slow_ns > 0 && dur_ns >= static_cast<uint64_t>(slow_ns);
  if (!erred && !slow && !warmup) {
    // The fast path of tail-based capture: discarding costs nothing — the
    // trace's spans stay in the scratch rings until overwritten, and trace
    // ids are process-unique so stale entries can never alias a later solve.
    discarded_total_.fetch_add(1, std::memory_order_relaxed);
    discarded_counter_->Increment();
    return;
  }
  RetainedTrace trace;
  trace.trace_id = trace_id;
  trace.op = op;
  trace.start_ns = start_ns;
  trace.dur_ns = dur_ns;
  trace.erred = erred;
  trace.warmup = !erred && !slow;
  // Collect under the registry/buffer locks, insert under the store lock —
  // strictly after releasing the former (kTraceBuffer < kTraceStore).
  trace.spans = CollectSpans(trace_id);
  retained_total_.fetch_add(1, std::memory_order_relaxed);
  slow_retained_counter_->Increment();
  const size_t max_retained = max_retained_.load(std::memory_order_relaxed);
  MutexLock lock(&store_mu_);
  retained_.push_back(std::move(trace));
  while (retained_.size() > max_retained) retained_.pop_front();
}

std::vector<RetainedTrace> TraceCollector::RetainedTraces() const {
  MutexLock lock(&store_mu_);
  return std::vector<RetainedTrace>(retained_.begin(), retained_.end());
}

void TraceCollector::ClearRetained() {
  MutexLock lock(&store_mu_);
  retained_.clear();
}

namespace {

/// One /tracez span line. Line-oriented on purpose: `iq_obs trace` and
/// tools/check_metrics.sh re-ingest the payload with the util/json.h line
/// scanner (the obs/profile.h idiom) instead of a JSON parser.
std::string TracezSpanLine(const TraceEvent& e) {
  std::string line = StrFormat(
      "{\"span\": {\"trace_id\": %llu, \"span_id\": %llu, "
      "\"parent_span_id\": %llu, \"name\": \"%s\", \"tid\": %d, "
      "\"start_ns\": %llu, \"dur_ns\": %llu",
      static_cast<unsigned long long>(e.trace_id),
      static_cast<unsigned long long>(e.span_id),
      static_cast<unsigned long long>(e.parent_span_id),
      JsonEscape(e.name).c_str(), e.tid,
      static_cast<unsigned long long>(e.start_ns),
      static_cast<unsigned long long>(e.dur_ns));
  if (e.arg0 != TraceEvent::kNoArg) {
    line += StrFormat(", \"arg0\": %lld", static_cast<long long>(e.arg0));
  }
  if (e.arg1 != TraceEvent::kNoArg) {
    line += StrFormat(", \"arg1\": %lld", static_cast<long long>(e.arg1));
  }
  line += "}}";
  return line;
}

std::string TracezSummaryLine(const RetainedTrace& t) {
  return StrFormat(
      "{\"trace_summary\": {\"trace_id\": %llu, \"op\": \"%s\", "
      "\"start_ns\": %llu, \"dur_ns\": %llu, \"erred\": %s, "
      "\"warmup\": %s, \"num_spans\": %zu, \"num_threads\": %d}}",
      static_cast<unsigned long long>(t.trace_id),
      JsonEscape(t.op != nullptr ? t.op : "?").c_str(),
      static_cast<unsigned long long>(t.start_ns),
      static_cast<unsigned long long>(t.dur_ns), t.erred ? "true" : "false",
      t.warmup ? "true" : "false", t.spans.size(), t.NumThreads());
}

}  // namespace

std::string TraceCollector::TracezJson() const {
  const TraceTailConfig config = tail_config();
  const std::vector<RetainedTrace> traces = RetainedTraces();
  std::string out = "{\"tracez\": {\n";
  out += StrFormat(
      "\"config\": {\"slow_trace_nanos\": %lld, \"keep_first_n\": %d, "
      "\"max_retained\": %zu},\n",
      static_cast<long long>(config.slow_trace_nanos), config.keep_first_n,
      config.max_retained);
  out += StrFormat(
      "\"counters\": {\"dropped\": %llu, \"slow_retained\": %llu, "
      "\"discarded\": %llu},\n",
      static_cast<unsigned long long>(DroppedCount()),
      static_cast<unsigned long long>(retained_total()),
      static_cast<unsigned long long>(discarded_total()));
  out += "\"traces\": [";
  bool first = true;
  for (const RetainedTrace& t : traces) {
    out += StrFormat("%s\n%s", first ? "" : ",", TracezSummaryLine(t).c_str());
    first = false;
    for (const TraceEvent& e : t.spans) {
      out += StrFormat(",\n%s", TracezSpanLine(e).c_str());
    }
  }
  out += "\n]\n}}\n";
  return out;
}

std::string TraceCollector::TraceJson(uint64_t trace_id) const {
  std::vector<TraceEvent> spans;
  {
    MutexLock lock(&store_mu_);
    auto it = std::find_if(
        retained_.begin(), retained_.end(),
        [trace_id](const RetainedTrace& t) { return t.trace_id == trace_id; });
    if (it == retained_.end()) return "";
    spans = it->spans;
  }
  return PerfettoJson(spans);
}

}  // namespace iq
