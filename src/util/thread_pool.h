#ifndef IQ_UTIL_THREAD_POOL_H_
#define IQ_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/trace_context.h"

namespace iq {

/// Fixed-size worker pool backing the parallel execution layer (DESIGN.md
/// §8). Dependency-free: std::thread workers around a single locked task
/// queue. The pool is deliberately simple — the engine's parallel units
/// (candidate evaluation, signature ranking, batch IQ solving) are coarse
/// enough that queue contention is negligible next to the work itself.
///
/// Scheduling (DESIGN.md §13.1): every participant — the caller and one
/// helper task per worker — claims single indices off a shared atomic
/// counter until the range drains. A participant stuck on an expensive item
/// simply stops claiming and its remaining share is taken by the others;
/// claims beyond a participant's fair share are counted as steals.
///
/// Determinism contract: callers write results into per-index slots, so
/// every reduction downstream of a ParallelFor is independent of which
/// participant claimed which index. The serial fallback (a null pool, see
/// ParallelForOrSerial) executes the identical per-index code.
///
/// Nested parallelism: a ParallelFor issued from inside a pool worker runs
/// inline on that worker instead of re-entering the queue, so composed
/// parallel paths (e.g. IqEngine::SolveBatch items that themselves evaluate
/// candidates) can never deadlock waiting on their own pool.
///
/// Trace-context propagation (DESIGN.md §14): ParallelFor captures the
/// dispatching thread's util/trace_context.h slot and installs it around
/// every chunk body it hands to a worker (save/restore per helper task), so
/// spans opened inside chunks — pooled claims, the serial fallback and the
/// nested-inline path alike — carry the dispatching solve's trace id and
/// parent under the dispatching span.
///
/// Pool spans (DESIGN.md §11, §14): while profiling is on (util/prof.h) or
/// a trace is in flight on the dispatching thread, every call records one
/// SpanKind::kParallelFor span named by its `site`, parenting one kChunk
/// span per executed chunk (a run of claims, or the single inline chunk of
/// the serial / nested / n == 1 paths), plus an empty chunk span from each
/// worker that found the range drained. They reach the trace rings through
/// the TaskObserver seam. Observation only: no body
/// reads the context or the spans, so the determinism contract holds with
/// tracing and profiling on or off.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs body(i, i + 1) for every i in [0, n); the calling thread works
  /// alongside the pool and the call returns only when every item
  /// completed. The first exception thrown by any item is captured and
  /// rethrown on the caller (remaining items are drained, not run). Called
  /// from a pool worker or with n == 1, runs body(0, n) inline (see class
  /// comment). `site` names the call's spans — a static string like
  /// "greedy.candidate_solve"; pass nullptr for unattributed call sites
  /// (tests).
  void ParallelFor(int64_t n,
                   const std::function<void(int64_t, int64_t)>& body,
                   const char* site = nullptr);

  /// True when the current thread is a worker of any ThreadPool.
  static bool InWorker();

  /// Process-wide observer: the layering seam that lets the observability
  /// module (which sits *above* util) see pool activity without util
  /// depending on it. src/obs/trace.cc installs one at static
  /// initialization; pass nullptr to detach. The hooks are plain function
  /// pointers that must not throw: they run inside the dispatch path.
  struct TaskObserver {
    /// Once per dequeued pool task, with the task's queue-wait time.
    void (*on_task)(uint64_t queue_wait_nanos);
    /// Once per finished pool span (see the class comment).
    void (*on_span)(const TraceEvent& span);
  };
  /// `observer` must outlive its installation (a static).
  static void SetTaskObserver(const TaskObserver* observer);

 private:
  void WorkerLoop();

  /// Task-queue lock. Dispatchers may already hold the engine lock
  /// (LockRank::kEngine < kPoolQueue); workers acquire it with nothing
  /// held.
  Mutex mu_{LockRank::kPoolQueue, "ThreadPool::mu_"};
  CondVar work_cv_;
  std::deque<std::function<void()>> queue_ IQ_GUARDED_BY(mu_);
  bool stopping_ IQ_GUARDED_BY(mu_) = false;
  /// Spawned in the constructor, joined in the destructor, never touched in
  /// between — immutable for the pool's concurrent lifetime.
  std::vector<std::thread> workers_;  // iq-lint: allow(unguarded-member)
};

/// Serial-fallback dispatch: runs `body` over [0, n) on the pool when one is
/// provided, inline on the caller otherwise. This is the single entry point
/// the engine's hot paths use, so `EngineOptions::num_threads == 0` (no
/// pool) preserves the exact pre-parallel code path. The serial path records
/// the same call span and one covering chunk span for `site`, so a serial
/// run's profile still shows which wall-clock fraction the parallelizable
/// regions cover (the Amdahl ceiling, measurable even on one core) and a
/// serial trace still splits into its ParallelFor layers.
void ParallelForOrSerial(ThreadPool* pool, int64_t n,
                         const std::function<void(int64_t, int64_t)>& body,
                         const char* site = nullptr);

}  // namespace iq

#endif  // IQ_UTIL_THREAD_POOL_H_
