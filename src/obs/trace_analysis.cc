#include "obs/trace_analysis.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/json.h"
#include "util/string_util.h"

namespace iq {

TraceDump ParseTracezDump(const std::string& text) {
  TraceDump dump;
  ParsedTrace* cur = nullptr;
  std::string raw;
  for (const std::string& line : StrSplit(text, '\n')) {
    if (line.find("\"config\":") != std::string::npos) {
      dump.config.slow_trace_nanos = JsonFindInt(line, "slow_trace_nanos");
      dump.config.keep_first_n =
          static_cast<int>(JsonFindInt(line, "keep_first_n"));
      dump.config.max_retained = JsonFindU64(line, "max_retained");
      continue;
    }
    if (line.find("\"counters\":") != std::string::npos) {
      dump.dropped = JsonFindU64(line, "dropped");
      dump.slow_retained = JsonFindU64(line, "slow_retained");
      dump.discarded = JsonFindU64(line, "discarded");
      continue;
    }
    if (line.find("\"trace_summary\":") != std::string::npos) {
      dump.traces.emplace_back();
      cur = &dump.traces.back();
      cur->trace_id = JsonFindU64(line, "trace_id");
      if (JsonFindValue(line, "op", &raw)) cur->op = raw;
      cur->start_ns = JsonFindU64(line, "start_ns");
      cur->dur_ns = JsonFindU64(line, "dur_ns");
      if (JsonFindValue(line, "erred", &raw)) cur->erred = raw == "true";
      if (JsonFindValue(line, "warmup", &raw)) cur->warmup = raw == "true";
      cur->num_threads = static_cast<int>(JsonFindU64(line, "num_threads"));
      continue;
    }
    if (cur != nullptr && line.find("\"span\":") != std::string::npos) {
      ParsedSpan s;
      s.trace_id = JsonFindU64(line, "trace_id");
      s.span_id = JsonFindU64(line, "span_id");
      s.parent_span_id = JsonFindU64(line, "parent_span_id");
      if (JsonFindValue(line, "name", &raw)) s.name = raw;
      s.tid = static_cast<int>(JsonFindU64(line, "tid"));
      s.start_ns = JsonFindU64(line, "start_ns");
      s.dur_ns = JsonFindU64(line, "dur_ns");
      s.arg0 = JsonFindInt(line, "arg0", TraceEvent::kNoArg);
      s.arg1 = JsonFindInt(line, "arg1", TraceEvent::kNoArg);
      cur->spans.push_back(std::move(s));
    }
  }
  return dump;
}

namespace {

using ChildMap = std::map<uint64_t, std::vector<const ParsedSpan*>>;

uint64_t EndNs(const ParsedSpan& s) { return s.start_ns + s.dur_ns; }

/// Appends the critical path through `span` to `path` in start order: the
/// span itself, then the path through each child it waited on. Those
/// children are found walking backward from the span's end: the
/// last-ending child, then the latest child that ends before that one
/// starts, and so on. The gaps between them are the span's self time;
/// children that overlap a chosen one ran in parallel and are off the path.
void WalkCriticalPath(const ParsedSpan& span, int depth,
                      const ChildMap& children,
                      std::vector<CriticalPathStep>* path) {
  const size_t at = path->size();
  path->push_back(
      CriticalPathStep{span.name, span.span_id, span.tid, depth, span.dur_ns,
                       0});
  std::vector<const ParsedSpan*> waited;  // latest first
  uint64_t cursor = EndNs(span);
  uint64_t self = 0;
  auto it = children.find(span.span_id);
  if (it != children.end()) {
    std::vector<const ParsedSpan*> kids = it->second;
    std::sort(kids.begin(), kids.end(),
              [](const ParsedSpan* x, const ParsedSpan* y) {
                return EndNs(*x) < EndNs(*y);
              });
    for (size_t i = kids.size(); i-- > 0;) {
      const ParsedSpan* kid = kids[i];
      // The first pick is the last-ending child even when clock skew lets
      // it overrun its parent by a few ns.
      if (!waited.empty() && EndNs(*kid) > cursor) continue;
      self += cursor > EndNs(*kid) ? cursor - EndNs(*kid) : 0;
      cursor = std::min(cursor, kid->start_ns);
      waited.push_back(kid);
    }
  }
  self += cursor > span.start_ns ? cursor - span.start_ns : 0;
  (*path)[at].self_ns = self;
  for (auto kid = waited.rbegin(); kid != waited.rend(); ++kid) {
    WalkCriticalPath(**kid, depth + 1, children, path);
  }
}

/// Sums self time per span name, largest first.
std::vector<SelfTimeRollup> RollUpByName(
    const std::vector<CriticalPathStep>& steps) {
  std::map<std::string, SelfTimeRollup> by_name;
  for (const CriticalPathStep& step : steps) {
    SelfTimeRollup& r = by_name[step.name];
    r.name = step.name;
    r.self_ns += step.self_ns;
    ++r.spans;
  }
  std::vector<SelfTimeRollup> out;
  for (auto& [name, r] : by_name) out.push_back(std::move(r));
  std::sort(out.begin(), out.end(),
            [](const SelfTimeRollup& x, const SelfTimeRollup& y) {
              return x.self_ns != y.self_ns ? x.self_ns > y.self_ns
                                            : x.name < y.name;
            });
  return out;
}

}  // namespace

TraceAnalysis AnalyzeTrace(const ParsedTrace& trace) {
  TraceAnalysis a;
  a.trace_id = trace.trace_id;
  a.op = trace.op;
  a.dur_ns = trace.dur_ns;
  a.erred = trace.erred;
  a.num_threads = trace.num_threads;
  a.num_spans = trace.spans.size();

  ChildMap children;
  const ParsedSpan* root = nullptr;
  for (const ParsedSpan& s : trace.spans) {
    children[s.parent_span_id].push_back(&s);
    if (s.parent_span_id == 0 && root == nullptr) root = &s;
  }

  // Whole-trace self time per span: duration minus the direct children's
  // durations (clamped — parallel children can sum past their parent, and
  // timestamps come from different threads' interleaved reads of one
  // steady clock).
  std::vector<CriticalPathStep> all;
  for (const ParsedSpan& s : trace.spans) {
    uint64_t child_ns = 0;
    auto it = children.find(s.span_id);
    if (it != children.end()) {
      for (const ParsedSpan* c : it->second) child_ns += c->dur_ns;
    }
    all.push_back(CriticalPathStep{s.name, s.span_id, s.tid, 0, s.dur_ns,
                                   s.dur_ns > child_ns ? s.dur_ns - child_ns
                                                       : 0});
  }
  a.self_time = RollUpByName(all);

  if (root == nullptr) return a;  // orphaned trace: rings lost the root
  WalkCriticalPath(*root, 0, children, &a.critical_path);
  a.critical_self_time = RollUpByName(a.critical_path);
  const uint64_t root_self = a.critical_path.front().self_ns;
  a.accounted_ns = root->dur_ns > root_self ? root->dur_ns - root_self : 0;
  a.accounted_fraction =
      a.dur_ns > 0
          ? static_cast<double>(a.accounted_ns) / static_cast<double>(a.dur_ns)
          : 0.0;
  return a;
}

std::string TraceVerdict(const TraceAnalysis& a) {
  if (a.critical_path.empty()) {
    return StrFormat(
        "trace %llu has no root span — the scratch rings overwrote it "
        "before retention (iq.trace.dropped); raise the ring capacity or "
        "lower span volume",
        static_cast<unsigned long long>(a.trace_id));
  }
  const SelfTimeRollup& hot = a.critical_self_time.front();
  const double share =
      a.dur_ns > 0 ? 100.0 * static_cast<double>(hot.self_ns) /
                         static_cast<double>(a.dur_ns)
                   : 0.0;
  if (a.erred) {
    return StrFormat(
        "trace %llu was retained for an error; before failing it spent "
        "%.1f%% of %s in %s",
        static_cast<unsigned long long>(a.trace_id), share,
        FormatNanos(a.dur_ns).c_str(), hot.name.c_str());
  }
  return StrFormat(
      "trace %llu (%s, %s over %d thread%s): %.1f%% of the wall clock is "
      "self time in %s on the critical path",
      static_cast<unsigned long long>(a.trace_id), a.op.c_str(),
      FormatNanos(a.dur_ns).c_str(), a.num_threads,
      a.num_threads == 1 ? "" : "s", share, hot.name.c_str());
}

std::string FormatTraceReport(const TraceDump& dump, int top_n) {
  std::string out = StrFormat(
      "iq_obs trace: %zu retained trace(s); slow_trace_nanos=%lld "
      "keep_first_n=%d max_retained=%zu\n"
      "counters: dropped=%llu slow_retained=%llu discarded=%llu\n",
      dump.traces.size(),
      static_cast<long long>(dump.config.slow_trace_nanos),
      dump.config.keep_first_n, dump.config.max_retained,
      static_cast<unsigned long long>(dump.dropped),
      static_cast<unsigned long long>(dump.slow_retained),
      static_cast<unsigned long long>(dump.discarded));
  auto rows = [top_n](const std::vector<SelfTimeRollup>& rollup) {
    std::string text;
    int shown = 0;
    for (const SelfTimeRollup& r : rollup) {
      if (shown++ >= top_n) break;
      text += StrFormat("    %-40s %-10s (%llu span%s)\n", r.name.c_str(),
                        FormatNanos(r.self_ns).c_str(),
                        static_cast<unsigned long long>(r.spans),
                        r.spans == 1 ? "" : "s");
    }
    return text;
  };
  for (const ParsedTrace& t : dump.traces) {
    const TraceAnalysis a = AnalyzeTrace(t);
    out += StrFormat(
        "\ntrace %llu  %s  %s  spans=%zu threads=%d%s%s\n",
        static_cast<unsigned long long>(a.trace_id), a.op.c_str(),
        FormatNanos(a.dur_ns).c_str(), a.num_spans, a.num_threads,
        a.erred ? "  [erred]" : "", t.warmup ? "  [warmup]" : "");
    out += StrFormat(
        "  critical path: %zu spans, %.1f%% of wall accounted below the "
        "root; self time by span name:\n",
        a.critical_path.size(), 100.0 * a.accounted_fraction);
    out += rows(a.critical_self_time);
    out += "  top self-time by span name (whole trace):\n";
    out += rows(a.self_time);
    out += StrFormat("  verdict: %s\n", TraceVerdict(a).c_str());
  }
  if (dump.traces.empty()) {
    out +=
        "\nno retained traces: nothing erred or cleared the slow-trace "
        "threshold (see \"discarded\" above for how many solves ran)\n";
  }
  return out;
}

std::string TraceReportJson(const TraceDump& dump) {
  std::string out = "{\"iq_trace\": {\n";
  out += StrFormat("\"num_traces\": %zu,\n", dump.traces.size());
  out += StrFormat(
      "\"counters\": {\"dropped\": %llu, \"slow_retained\": %llu, "
      "\"discarded\": %llu},\n",
      static_cast<unsigned long long>(dump.dropped),
      static_cast<unsigned long long>(dump.slow_retained),
      static_cast<unsigned long long>(dump.discarded));
  const std::string verdict =
      dump.traces.empty() ? "no retained traces"
                          : TraceVerdict(AnalyzeTrace(dump.traces.back()));
  out += StrFormat("\"verdict\": \"%s\",\n", JsonEscape(verdict).c_str());
  out += "\"traces\": [";
  bool first_trace = true;
  for (const ParsedTrace& t : dump.traces) {
    const TraceAnalysis a = AnalyzeTrace(t);
    out += StrFormat(
        "%s\n{\"trace_analysis\": {\"trace_id\": %llu, \"op\": \"%s\", "
        "\"dur_ns\": %llu, \"erred\": %s, \"num_spans\": %zu, "
        "\"num_threads\": %d, \"accounted_ns\": %llu, "
        "\"accounted_fraction\": %.4f}}",
        first_trace ? "" : ",", static_cast<unsigned long long>(a.trace_id),
        JsonEscape(a.op).c_str(), static_cast<unsigned long long>(a.dur_ns),
        a.erred ? "true" : "false", a.num_spans, a.num_threads,
        static_cast<unsigned long long>(a.accounted_ns),
        a.accounted_fraction);
    first_trace = false;
    for (const CriticalPathStep& s : a.critical_path) {
      out += StrFormat(
          ",\n{\"path_step\": {\"trace_id\": %llu, \"name\": \"%s\", "
          "\"span_id\": %llu, \"tid\": %d, \"depth\": %d, \"dur_ns\": %llu, "
          "\"self_ns\": %llu}}",
          static_cast<unsigned long long>(a.trace_id),
          JsonEscape(s.name).c_str(),
          static_cast<unsigned long long>(s.span_id), s.tid, s.depth,
          static_cast<unsigned long long>(s.dur_ns),
          static_cast<unsigned long long>(s.self_ns));
    }
    for (const SelfTimeRollup& r : a.self_time) {
      out += StrFormat(
          ",\n{\"self_time\": {\"trace_id\": %llu, \"name\": \"%s\", "
          "\"self_ns\": %llu, \"spans\": %llu}}",
          static_cast<unsigned long long>(a.trace_id),
          JsonEscape(r.name).c_str(),
          static_cast<unsigned long long>(r.self_ns),
          static_cast<unsigned long long>(r.spans));
    }
  }
  out += "\n]\n}}\n";
  return out;
}

}  // namespace iq
