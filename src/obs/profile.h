#ifndef IQ_OBS_PROFILE_H_
#define IQ_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/lock_rank.h"
#include "util/prof.h"

// Scalability-profile aggregation (DESIGN.md §11). One capture window
// becomes a ProfileReport answering the question the flat micro_parallel
// speedup raises: *where does the wall-clock go when threads are added?*
// Its raw material is the mutex site stats of util/prof.h plus the
// ParallelFor call and chunk spans ThreadPool records into the obs/trace.h
// rings while profiling is on (the one span store):
//
//   * per-mutex-site wait/held totals, ranked — lock contention;
//   * per-ParallelFor-site coverage, chunk counts and imbalance
//     (max / median chunk duration) — parallel-region health;
//   * a serial-fraction estimate (1 - union(chunk spans)/window) and the
//     Amdahl speedup it projects at 2/4/8/16 threads — the structural
//     ceiling no amount of threads moves.
//
// Reports export as line-oriented JSON (ToJson — `iq_obs prof` re-ingests
// it with ParseProfileReports) and as gauges on the /metrics endpoint
// (PublishProfileMetrics). The exporter serves the live report at
// /profilez; the spans themselves render as Perfetto JSON through
// obs/trace.h.

namespace iq {

/// One mutex construction site, aggregated over the window.
struct MutexSiteReport {
  std::string label;      // construction-site label ("IqEngine::mu_")
  std::string rank;       // LockRankName(rank)
  uint64_t acquisitions = 0;
  uint64_t contended = 0;
  uint64_t wait_nanos = 0;
  uint64_t max_wait_nanos = 0;
  uint64_t held_nanos = 0;
};

/// One ParallelFor call site, aggregated over the window.
struct ParallelSiteReport {
  std::string site;       // call-site label ("engine.solve_batch")
  uint64_t calls = 0;     // distinct ParallelFor invocations
  uint64_t chunks = 0;    // executed chunks
  int64_t items = 0;      // total items across chunks
  uint64_t busy_nanos = 0;        // sum of chunk durations (cpu-seconds-ish)
  uint64_t coverage_nanos = 0;    // union of this site's spans (wall clock)
  uint64_t median_chunk_nanos = 0;
  uint64_t max_chunk_nanos = 0;
  /// max / median chunk duration; 1.0 = perfectly even, large = one straggler
  /// chunk serializes the call's tail.
  double imbalance = 1.0;
  /// Work-stealing telemetry (ChunkPolicy::kDynamic sites): individual item
  /// claims folded into the recorded spans, and how many of those claims
  /// were beyond the claimant's fair share of the range — work it took off
  /// an overloaded peer. Static sites report claims == chunks, steals == 0.
  uint64_t claims = 0;
  uint64_t steals = 0;
};

/// One pool worker's busy/idle split over the window: busy is the union of
/// its chunk spans, idle the rest of the window. `worker` is the trace
/// collector's thread id.
struct WorkerReport {
  uint32_t worker = 0;
  uint64_t running_nanos = 0;
  uint64_t idle_nanos = 0;
};

/// Aggregated view of one capture window.
struct ProfileReport {
  std::string label;          // caller-chosen window name ("threads=4")
  bool enabled = true;        // false: placeholder from a disabled process
  uint64_t window_nanos = 0;  // wall-clock length of the window
  uint64_t coverage_nanos = 0;   // union of ALL chunk spans in the window
  double serial_fraction = 1.0;  // 1 - coverage/window (1.0 = no parallelism)
  uint64_t total_wait_nanos = 0;  // sum of mutex wait over all sites
  /// Capture loss: mutex-table overflow (util/prof.h) plus trace-ring
  /// overwrites since the last TraceCollector::Clear().
  uint64_t dropped_records = 0;
  std::vector<MutexSiteReport> mutexes;         // sorted by wait desc
  std::vector<ParallelSiteReport> parallel_sites;  // sorted by busy desc
  std::vector<WorkerReport> workers;            // sorted by worker id

  /// Amdahl projection from serial_fraction: 1 / (s + (1-s)/n).
  double ProjectedSpeedup(int n) const;

  /// Line-oriented JSON: every record on its own line with distinctive keys
  /// ("profile_label", "mutex", "site", "worker"), so ParseProfileReports
  /// can re-ingest it with the util/json.h line scanner. The output is
  /// nonetheless valid JSON.
  std::string ToJson() const;
};

/// Builds a report from the mutex site stats and the trace rings' pool spans
/// over [window_start_ns, window_end_ns] (util/timer.h MonotonicNanos).
/// Records outside the window are clipped (spans) or included as-is (mutex
/// slots are cumulative since the last Reset — callers Reset at window
/// start).
ProfileReport BuildProfileReport(const std::string& label,
                                 uint64_t window_start_ns,
                                 uint64_t window_end_ns);

/// Start/stop wrapper the benches use: Start() resets the mutex stats and
/// the trace rings and enables profiling; Stop(label) disables it and
/// aggregates the window. Not thread-safe — one session at a time, owned by
/// the driver (main thread).
class ProfileSession {
 public:
  void Start();
  ProfileReport Stop(const std::string& label);
  bool active() const { return active_; }

 private:
  bool active_ = false;
  uint64_t start_ns_ = 0;
};

/// The live report the exporter serves at /profilez: the window is
/// [EnabledSinceNanos(), now] while profiling is on; a `"enabled": false`
/// placeholder report otherwise. Always valid JSON with a "profile_label"
/// line, so scrapers need no special empty case.
std::string CurrentProfileJson();

/// Publishes a report's headline numbers as gauges on the global metrics
/// registry, using embedded-label names the exporter renders as Prometheus
/// labels (label blocks are `{key=value}` — no quotes — see
/// RenderPrometheusText):
///   iq.lock.wait_nanos{rank=kEngine}       total wait per lock rank
///   iq.pool.chunk_imbalance{site=...}      imbalance in thousandths
///                                          (gauges are integers; 2500 = 2.5x)
void PublishProfileMetrics(const ProfileReport& report);

// ---- ingestion + reporting (the `iq_obs prof` core, testable in-process) --

/// Parses every ProfileReport found in `text` — a single ToJson() report, a
/// /profilez scrape, or a micro_parallel --profile= dump with a "profiles"
/// array. util/json.h line scanner: unknown lines are skipped, a
/// "profile_label" line starts a new report.
std::vector<ProfileReport> ParseProfileReports(const std::string& text);

/// Names the dominant serialization mechanism in one report: lock
/// contention (top mutex by wait when wait is a meaningful window share),
/// chunk imbalance, or — the common case on this workload — serial-fraction
/// ceiling. One sentence, suitable for pasting into DESIGN.md.
std::string ProfileVerdict(const ProfileReport& report);

/// Human-readable ranked serialization report over one or more windows
/// (typically one per thread count): per-window serial fraction and Amdahl
/// projections, top `top_n` mutexes by wait, parallel sites with imbalance,
/// worker busy/idle split, and a final verdict from the last window.
std::string FormatSerializationReport(
    const std::vector<ProfileReport>& reports, int top_n);

/// Machine form of the same: {"iq_prof": {"num_profiles": N, "verdict":
/// "...", "profiles": [...]}} — written by `iq_obs prof --json=`, consumed
/// by tools/check_metrics.sh --profile and CI.
std::string SerializationReportJson(
    const std::vector<ProfileReport>& reports);

}  // namespace iq

#endif  // IQ_OBS_PROFILE_H_
