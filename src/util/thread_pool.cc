#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>

#include "util/check.h"
#include "util/prof.h"
#include "util/timer.h"
#include "util/trace_context.h"

namespace iq {
namespace {

/// Marks threads that belong to some pool, so nested ParallelFor calls run
/// inline instead of deadlocking on their own queue.
thread_local bool t_in_pool_worker = false;

std::atomic<const ThreadPool::TaskObserver*> g_task_observer{nullptr};

/// Whether a ParallelFor call records spans: profiling is on, or the
/// dispatching thread is inside a trace. Decided once per call, so a call
/// span and its chunk spans are recorded all or none.
bool CaptureSpans(const TraceContext& dispatch_ctx) {
  return prof::Enabled() || dispatch_ctx.active();
}

/// One open pool span: opened under the calling thread's current context
/// and installed as that context while open (so spans opened inside a chunk
/// body parent under it), then restored and handed to the observer when it
/// closes — also when the body throws.
class PoolSpan {
 public:
  PoolSpan(const char* site, SpanKind kind, int64_t items,
           int64_t steals = TraceEvent::kNoArg)
      : prev_(CurrentTraceContext()) {
    event_.name = site != nullptr ? site : "(unlabeled)";
    event_.kind = kind;
    event_.trace_id = prev_.trace_id;
    event_.parent_span_id = prev_.span_id;
    event_.span_id = NewSpanId();
    event_.arg0 = items;
    event_.arg1 = steals;
    SetTraceContext(TraceContext{prev_.trace_id, event_.span_id});
    event_.start_ns = MonotonicNanos();
  }
  ~PoolSpan() {
    event_.dur_ns = MonotonicNanos() - event_.start_ns;
    SetTraceContext(prev_);
    const ThreadPool::TaskObserver* observer =
        g_task_observer.load(std::memory_order_acquire);
    if (observer != nullptr) observer->on_span(event_);
  }

  PoolSpan(const PoolSpan&) = delete;
  PoolSpan& operator=(const PoolSpan&) = delete;

  /// Folds one claimed item into the span.
  void AddClaim(bool stolen) {
    ++event_.arg0;
    event_.arg1 += stolen ? 1 : 0;
  }
  uint64_t ElapsedNanos() const { return MonotonicNanos() - event_.start_ns; }

 private:
  const TraceContext prev_;
  TraceEvent event_;
};

/// Runs body(0, n) as the single chunk of one call on the calling thread:
/// the nested-inline, n == 1 and serial-fallback paths.
void RunInline(const std::function<void(int64_t, int64_t)>& body, int64_t n,
               const char* site) {
  if (!CaptureSpans(CurrentTraceContext())) {
    body(0, n);
    return;
  }
  PoolSpan call(site, SpanKind::kParallelFor, n);
  PoolSpan chunk(site, SpanKind::kChunk, n);
  body(0, n);
}

}  // namespace

void ThreadPool::SetTaskObserver(const TaskObserver* observer) {
  g_task_observer.store(observer, std::memory_order_release);
}

bool ThreadPool::InWorker() { return t_in_pool_worker; }

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

/// Shared per-call coordination state for ParallelFor.
struct CallState {
  std::atomic<int64_t> next{0};
  std::atomic<bool> failed{false};
  Mutex err_mu{LockRank::kPoolError, "ParallelFor::err_mu"};
  std::exception_ptr error IQ_GUARDED_BY(err_mu);  // first failure
  Mutex done_mu{LockRank::kPoolDone, "ParallelFor::done_mu"};
  CondVar done_cv;
  int pending IQ_GUARDED_BY(done_mu) = 0;  // outstanding pool tasks
};

void CaptureError(CallState* state) {
  MutexLock lock(&state->err_mu);
  if (!state->error) state->error = std::current_exception();
  state->failed.store(true, std::memory_order_release);
}

/// Recorded chunk spans aggregate consecutive claimed items until the
/// span covers at least this much wall time. This keeps the profile's
/// span-duration distribution describing *scheduling* granularity rather
/// than per-item cost spread: a run of cheap items folds into one
/// target-sized span while an expensive item still stands alone, so
/// max/median chunk imbalance collapses exactly when stealing fixed the
/// straggler problem (tests/profile_test.cc asserts this).
constexpr uint64_t kSpanTargetNanos = 200 * 1000;  // 200 µs

/// The per-item work-stealing claim loop. Every participant pulls single
/// indices off `state->next`; once a participant has executed its fair
/// share of the range, ceil(n / participants), further claims are counted
/// as steals — items an even split would have left to a (still busy) peer.
/// Returns the items executed.
int64_t RunClaims(CallState* state,
                  const std::function<void(int64_t, int64_t)>& body,
                  int64_t n, int64_t fair_share, const char* site,
                  bool capture) {
  int64_t executed = 0;
  std::optional<PoolSpan> span;  // the current run of claims (capture only)
  for (;;) {
    const int64_t i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    if (state->failed.load(std::memory_order_acquire)) break;
    const bool stolen = executed >= fair_share;
    if (capture && !span) span.emplace(site, SpanKind::kChunk, 0, 0);
    bool ok = true;
    try {
      body(i, i + 1);
    } catch (...) {
      CaptureError(state);
      ok = false;
    }
    ++executed;
    if (span) {
      span->AddClaim(stolen);
      if (!ok || span->ElapsedNanos() >= kSpanTargetNanos) span.reset();
    }
    if (!ok) break;
  }
  return executed;
}

}  // namespace

void ThreadPool::ParallelFor(
    int64_t n, const std::function<void(int64_t, int64_t)>& body,
    const char* site) {
  if (n <= 0) return;
  if (t_in_pool_worker || n == 1) {
    // Nested or trivial: run inline on the current thread. Still spans —
    // nested parallel regions must stay visible in profiles and traces.
    RunInline(body, n, site);
    return;
  }
  const int64_t workers = static_cast<int64_t>(workers_.size());
  // Steal threshold: a participant's fair share of the range.
  const int64_t fair_share = (n + workers) / (workers + 1);

  CallState state;

  // The call span opens before the dispatch context is captured, so chunk
  // spans on every participant parent under it.
  const bool capture = CaptureSpans(CurrentTraceContext());
  std::optional<PoolSpan> call;
  if (capture) call.emplace(site, SpanKind::kParallelFor, n);
  // Causal-trace propagation (DESIGN.md §14): the helper tasks below run on
  // workers whose thread-local TraceContext is whatever the previous task
  // left behind (zeroed by the save/restore here). Capture the dispatcher's
  // context now and install it around the chunk bodies, so every span a
  // chunk opens carries the dispatching solve's trace id and parents under
  // the span that issued this ParallelFor. The caller's own participation,
  // the serial fallback and the nested-inline path all run on a thread that
  // already holds the context, so only the enqueued tasks need the handoff.
  const TraceContext dispatch_ctx = CurrentTraceContext();
  // Claims items until the range drains; returns the items executed.
  auto run_claims = [&state, &body, n, fair_share, site, capture]() {
    return RunClaims(&state, body, n, fair_share, site, capture);
  };

  // One helper task per worker (never more than the items to claim).
  const int64_t helpers = std::min<int64_t>(workers, n);
  {
    MutexLock done(&state.done_mu);
    state.pending = static_cast<int>(helpers);
  }
  {
    MutexLock lock(&mu_);
    for (int64_t i = 0; i < helpers; ++i) {
      queue_.emplace_back(
          [&state, &run_claims, dispatch_ctx, capture, site,
           timer = WallTimer()] {
            const TaskObserver* observer =
                g_task_observer.load(std::memory_order_acquire);
            if (observer != nullptr) observer->on_task(timer.ElapsedNanos());
            // run_claims never throws (item exceptions are captured into
            // state.error), so the restore cannot be skipped.
            const TraceContext saved = ExchangeTraceContext(dispatch_ctx);
            if (run_claims() == 0 && capture) {
              // The range drained before this worker got to it: an empty
              // chunk span still records that it took part (and was idle).
              PoolSpan empty(site, SpanKind::kChunk, 0);
            }
            SetTraceContext(saved);
            MutexLock done(&state.done_mu);
            if (--state.pending == 0) state.done_cv.NotifyOne();
          });
    }
  }
  work_cv_.NotifyAll();

  run_claims();  // the caller participates
  {
    MutexLock done(&state.done_mu);
    while (state.pending != 0) state.done_cv.Wait(state.done_mu);
  }
  // pending == 0 above synchronized with every helper's final decrement, so
  // this read of `error` cannot race; the lock keeps the analysis exact.
  std::exception_ptr error;
  {
    MutexLock lock(&state.err_mu);
    error = state.error;
  }
  if (error) std::rethrow_exception(error);
}

void ParallelForOrSerial(ThreadPool* pool, int64_t n,
                         const std::function<void(int64_t, int64_t)>& body,
                         const char* site) {
  if (n <= 0) return;
  if (pool == nullptr) {
    RunInline(body, n, site);
    return;
  }
  pool->ParallelFor(n, body, site);
}

}  // namespace iq
