#ifndef IQ_OBS_TRACE_ANALYSIS_H_
#define IQ_OBS_TRACE_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

// Slow-trace ingestion + analysis (DESIGN.md §14) — the `iq_obs trace`
// core, testable in-process like the obs/profile.h core of `iq_obs prof`.
// Consumes a /tracez payload (scraped live or dumped by micro_parallel
// --scrape-tracez=) and answers the question tail capture exists to answer:
// *where did this slow solve spend its wall-clock?* For each retained trace
// it reconstructs the span tree, walks the critical path backward from each
// span's end (the last-ending child, then the latest child ending before
// that one starts, ...; gaps are the parent's self time), and rolls up
// per-name self time along that path and across the whole trace.

namespace iq {

/// One span parsed back from a /tracez dump. Mirrors TraceEvent with owned
/// strings (the dump outlives no static literals).
struct ParsedSpan {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;
  int tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  int64_t arg0 = TraceEvent::kNoArg;
  int64_t arg1 = TraceEvent::kNoArg;
};

/// One retained trace parsed back from a /tracez dump.
struct ParsedTrace {
  uint64_t trace_id = 0;
  std::string op;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  bool erred = false;
  bool warmup = false;
  int num_threads = 0;
  std::vector<ParsedSpan> spans;
};

/// A whole /tracez payload: retention config, loss/retain counters, traces.
struct TraceDump {
  TraceTailConfig config;
  uint64_t dropped = 0;
  uint64_t slow_retained = 0;
  uint64_t discarded = 0;
  std::vector<ParsedTrace> traces;
};

/// Parses a /tracez payload (or anything containing its "trace_summary" /
/// "span" lines) with the util/json.h line scanner: unknown lines are
/// skipped, a "trace_summary" line starts a new trace, "span" lines attach
/// to the most recent one.
TraceDump ParseTracezDump(const std::string& text);

/// One span on a trace's critical path.
struct CriticalPathStep {
  std::string name;
  uint64_t span_id = 0;
  int tid = 0;
  int depth = 0;  // 0 = the root span
  uint64_t dur_ns = 0;
  /// The part of this span's duration not covered by the children it
  /// waited on — wall clock the path spent *here* rather than deeper.
  uint64_t self_ns = 0;
};

/// Per-span-name self time over one whole trace (duration minus the sum of
/// direct children), the "who burned the time" ranking.
struct SelfTimeRollup {
  std::string name;
  uint64_t self_ns = 0;
  uint64_t spans = 0;
};

/// Everything `iq_obs trace` reports about one retained trace.
struct TraceAnalysis {
  uint64_t trace_id = 0;
  std::string op;
  uint64_t dur_ns = 0;
  bool erred = false;
  int num_threads = 0;
  size_t num_spans = 0;
  /// The spans the root waited on, in start order (a pre-order walk; see
  /// the file comment). Child intervals nest inside their parents, so the
  /// steps' self times add up to the root duration.
  std::vector<CriticalPathStep> critical_path;
  /// Critical-path time spent below the root span (root duration minus the
  /// root's own self time), and its share of the root duration. A
  /// well-instrumented trace explains ~100% of its wall clock; a low
  /// fraction means the root did work no child span covers, or orphaned
  /// spans (ring overwrites ate the parents).
  uint64_t accounted_ns = 0;
  double accounted_fraction = 0.0;
  /// Self time per span name along critical_path, then over every span of
  /// the trace; both sorted by self_ns desc.
  std::vector<SelfTimeRollup> critical_self_time;
  std::vector<SelfTimeRollup> self_time;
};

/// Reconstructs the span tree and computes the critical path + rollups.
/// Traces without a root span (parent_span_id == 0) yield an analysis with
/// an empty critical_path and accounted_fraction 0.
TraceAnalysis AnalyzeTrace(const ParsedTrace& trace);

/// One sentence naming where the slow solve's wall-clock went — the span
/// name with the largest self time on the critical path — and whether an
/// error kept the trace.
std::string TraceVerdict(const TraceAnalysis& analysis);

/// Human-readable report over a whole dump: retention config and loss
/// counters, then per trace the top `top_n` span names by self time on the
/// critical path and over the whole trace, and a verdict.
std::string FormatTraceReport(const TraceDump& dump, int top_n);

/// Machine form of the same: {"iq_trace": {"num_traces": N, ...}} with one
/// "trace_analysis" / "path_step" / "self_time" object per line — written
/// by `iq_obs trace --json=` in the obs-smoke CI lane.
std::string TraceReportJson(const TraceDump& dump);

}  // namespace iq

#endif  // IQ_OBS_TRACE_ANALYSIS_H_
