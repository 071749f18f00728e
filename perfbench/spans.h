// In-memory span log for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public layer functions (no instrumentation inside the program).
// Each span carries a name, start, end, its parent span and the id of the
// solve (trace) it belongs to. The log stays in memory during the run and is
// written out once, at exit, as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev).

#ifndef IQ_PERFBENCH_SPANS_H_
#define IQ_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace iqbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint32_t trace = 0;   // shared by every span of one solve / operation
  int64_t arg = 0;      // e.g. number of calls a coalesced span covers
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  uint32_t NewTrace() { return ++last_trace_; }

  /// Opens a span now; close it with End(). Returns its id.
  uint32_t Begin(const char* name, uint32_t parent, uint32_t trace) {
    Span s;
    s.name = name;
    s.start = Clock::now();
    s.end = s.start;
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.trace = trace;
    spans_.push_back(s);
    return s.id;
  }
  void End(uint32_t id) { spans_[id - 1].end = Clock::now(); }

  /// Records an already-timed span.
  uint32_t Add(const char* name, uint32_t parent, uint32_t trace,
               Clock::time_point start, Clock::time_point end,
               int64_t arg = 0) {
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.trace = trace;
    s.arg = arg;
    spans_.push_back(s);
    return s.id;
  }

  const Span& at(uint32_t id) const { return spans_[id - 1]; }
  size_t size() const { return spans_.size(); }

  /// Self time per span name, in seconds: each span's duration minus the
  /// part of it covered by its child spans. Children of one parent never
  /// overlap here (every traced call is made from one thread), so the
  /// covered part is the sum of the children's durations.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child(spans_.size() + 1, 0.0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child[s.parent] += Seconds(s.start, s.end);
    }
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      self[s.name] += Seconds(s.start, s.end) - child[s.id];
    }
    return self;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - origin_).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":%u,"
                   "\"parent_id\":%u,\"trace_id\":%u,\"n\":%lld}}",
                   i == 0 ? "" : ",", s.name, ts, dur, s.id, s.parent,
                   s.trace, static_cast<long long>(s.arg));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  uint32_t last_trace_ = 0;
  std::vector<Span> spans_;
};

}  // namespace iqbench

#endif  // IQ_PERFBENCH_SPANS_H_
