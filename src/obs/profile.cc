#include "obs/profile.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace iq {
namespace {

/// Total length of the union of half-open intervals (merge-after-sort).
uint64_t UnionLength(std::vector<std::pair<uint64_t, uint64_t>> spans) {
  if (spans.empty()) return 0;
  std::sort(spans.begin(), spans.end());
  uint64_t total = 0;
  uint64_t cur_begin = spans[0].first;
  uint64_t cur_end = spans[0].second;
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first > cur_end) {
      total += cur_end - cur_begin;
      cur_begin = spans[i].first;
      cur_end = spans[i].second;
    } else {
      cur_end = std::max(cur_end, spans[i].second);
    }
  }
  return total + (cur_end - cur_begin);
}

}  // namespace

double ProfileReport::ProjectedSpeedup(int n) const {
  if (n <= 0) return 0.0;
  const double s = std::clamp(serial_fraction, 0.0, 1.0);
  return 1.0 / (s + (1.0 - s) / static_cast<double>(n));
}

ProfileReport BuildProfileReport(const std::string& label,
                                 uint64_t window_start_ns,
                                 uint64_t window_end_ns) {
  ProfileReport r;
  r.label = label;
  r.enabled = true;
  r.window_nanos =
      window_end_ns > window_start_ns ? window_end_ns - window_start_ns : 0;
  TraceCollector& tc = TraceCollector::Global();
  r.dropped_records = prof::DroppedRecords() + tc.DroppedCount();

  for (const prof::MutexSiteStats& s : prof::SnapshotMutexSites()) {
    MutexSiteReport m;
    m.label = s.label != nullptr ? s.label : "(unlabeled)";
    m.rank = LockRankName(s.rank);
    m.acquisitions = s.acquisitions;
    m.contended = s.contended;
    m.wait_nanos = s.wait_nanos;
    m.max_wait_nanos = s.max_wait_nanos;
    m.held_nanos = s.held_nanos;
    r.total_wait_nanos += s.wait_nanos;
    r.mutexes.push_back(std::move(m));
  }
  std::sort(r.mutexes.begin(), r.mutexes.end(),
            [](const MutexSiteReport& a, const MutexSiteReport& b) {
              if (a.wait_nanos != b.wait_nanos) {
                return a.wait_nanos > b.wait_nanos;
              }
              return a.label < b.label;
            });

  // Pool spans from the trace rings (util/thread_pool.h). Chunks count
  // calls by their parent call span, and a chunk on another thread than its
  // call span ran on a pool worker. Empty chunks only mark a worker that
  // found the range drained.
  const std::vector<TraceEvent> spans = tc.BufferedEvents();
  std::map<uint64_t, int> call_tid;
  for (const TraceEvent& e : spans) {
    if (e.kind == SpanKind::kParallelFor) call_tid[e.span_id] = e.tid;
  }
  struct SiteAccum {
    std::set<uint64_t> calls;
    std::vector<uint64_t> durations;
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    int64_t items = 0;
    uint64_t busy = 0;
    uint64_t claims = 0;
    uint64_t steals = 0;
  };
  std::map<std::string, SiteAccum> sites;
  std::map<int, std::vector<std::pair<uint64_t, uint64_t>>> worker_spans;
  std::vector<std::pair<uint64_t, uint64_t>> all_spans;
  for (const TraceEvent& c : spans) {
    if (c.kind != SpanKind::kChunk) continue;
    // Clip to the window; spans entirely outside it belong to another run.
    const uint64_t b = std::max(c.start_ns, window_start_ns);
    const uint64_t e = std::min(c.start_ns + c.dur_ns, window_end_ns);
    if (e < b) continue;
    auto call = call_tid.find(c.parent_span_id);
    const bool on_worker = call != call_tid.end() && call->second != c.tid;
    std::vector<std::pair<uint64_t, uint64_t>>* busy =
        on_worker ? &worker_spans[c.tid] : nullptr;
    if (c.arg0 == 0 || e == b) continue;
    SiteAccum& acc = sites[c.name];
    acc.calls.insert(c.parent_span_id);
    acc.durations.push_back(e - b);
    acc.spans.emplace_back(b, e);
    acc.items += c.arg0;
    acc.busy += e - b;
    // A chunk with a steals arg is a run of single-item claims
    // (ChunkPolicy::kDynamic); one without is a single static claim.
    const bool per_item = c.arg1 != TraceEvent::kNoArg;
    acc.claims += per_item ? static_cast<uint64_t>(c.arg0) : 1;
    acc.steals += per_item ? static_cast<uint64_t>(c.arg1) : 0;
    all_spans.emplace_back(b, e);
    if (busy != nullptr) busy->emplace_back(b, e);
  }
  r.coverage_nanos = UnionLength(std::move(all_spans));
  for (auto& [site, acc] : sites) {
    ParallelSiteReport p;
    p.site = site;
    p.calls = acc.calls.size();
    p.chunks = acc.durations.size();
    p.items = acc.items;
    p.busy_nanos = acc.busy;
    p.coverage_nanos = UnionLength(std::move(acc.spans));
    std::sort(acc.durations.begin(), acc.durations.end());
    p.median_chunk_nanos = acc.durations[acc.durations.size() / 2];
    p.max_chunk_nanos = acc.durations.back();
    p.imbalance = p.median_chunk_nanos > 0
                      ? static_cast<double>(p.max_chunk_nanos) /
                            static_cast<double>(p.median_chunk_nanos)
                      : 1.0;
    p.claims = acc.claims;
    p.steals = acc.steals;
    r.parallel_sites.push_back(std::move(p));
  }
  std::sort(r.parallel_sites.begin(), r.parallel_sites.end(),
            [](const ParallelSiteReport& a, const ParallelSiteReport& b) {
              if (a.busy_nanos != b.busy_nanos) {
                return a.busy_nanos > b.busy_nanos;
              }
              return a.site < b.site;
            });
  r.serial_fraction =
      r.window_nanos > 0
          ? std::clamp(1.0 - static_cast<double>(r.coverage_nanos) /
                                 static_cast<double>(r.window_nanos),
                       0.0, 1.0)
          : 1.0;

  // A worker is busy inside its chunks and idle for the rest of the window.
  for (auto& [tid, busy] : worker_spans) {
    WorkerReport w;
    w.worker = static_cast<uint32_t>(tid);
    w.running_nanos = UnionLength(std::move(busy));
    w.idle_nanos = r.window_nanos - std::min(r.window_nanos, w.running_nanos);
    r.workers.push_back(w);
  }
  return r;
}

std::string ProfileReport::ToJson() const {
  std::string out = "{\n";
  out += StrFormat("  \"profile_label\": \"%s\",\n",
                   JsonEscape(label).c_str());
  out += StrFormat("  \"enabled\": %s,\n", enabled ? "true" : "false");
  out += StrFormat("  \"window_nanos\": %llu,\n",
                   static_cast<unsigned long long>(window_nanos));
  out += StrFormat("  \"coverage_nanos\": %llu,\n",
                   static_cast<unsigned long long>(coverage_nanos));
  out += StrFormat("  \"serial_fraction\": %.6f,\n", serial_fraction);
  out += StrFormat("  \"total_wait_nanos\": %llu,\n",
                   static_cast<unsigned long long>(total_wait_nanos));
  out += StrFormat("  \"dropped_records\": %llu,\n",
                   static_cast<unsigned long long>(dropped_records));
  for (int n : {2, 4, 8, 16}) {
    out += StrFormat("  \"projected_speedup_%d\": %.3f,\n", n,
                     ProjectedSpeedup(n));
  }
  out += "  \"mutexes\": [";
  for (size_t i = 0; i < mutexes.size(); ++i) {
    const MutexSiteReport& m = mutexes[i];
    out += StrFormat(
        "%s\n    {\"mutex\": \"%s\", \"rank\": \"%s\", \"acquisitions\": "
        "%llu, \"contended\": %llu, \"wait_nanos\": %llu, "
        "\"max_wait_nanos\": %llu, \"held_nanos\": %llu}",
        i == 0 ? "" : ",", JsonEscape(m.label).c_str(),
        JsonEscape(m.rank).c_str(),
        static_cast<unsigned long long>(m.acquisitions),
        static_cast<unsigned long long>(m.contended),
        static_cast<unsigned long long>(m.wait_nanos),
        static_cast<unsigned long long>(m.max_wait_nanos),
        static_cast<unsigned long long>(m.held_nanos));
  }
  out += mutexes.empty() ? "],\n" : "\n  ],\n";
  out += "  \"parallel_sites\": [";
  for (size_t i = 0; i < parallel_sites.size(); ++i) {
    const ParallelSiteReport& p = parallel_sites[i];
    out += StrFormat(
        "%s\n    {\"site\": \"%s\", \"calls\": %llu, \"chunks\": %llu, "
        "\"items\": %lld, \"busy_nanos\": %llu, \"site_coverage_nanos\": "
        "%llu, \"median_chunk_nanos\": %llu, \"max_chunk_nanos\": %llu, "
        "\"imbalance\": %.3f, \"claims\": %llu, \"steals\": %llu}",
        i == 0 ? "" : ",", JsonEscape(p.site).c_str(),
        static_cast<unsigned long long>(p.calls),
        static_cast<unsigned long long>(p.chunks),
        static_cast<long long>(p.items),
        static_cast<unsigned long long>(p.busy_nanos),
        static_cast<unsigned long long>(p.coverage_nanos),
        static_cast<unsigned long long>(p.median_chunk_nanos),
        static_cast<unsigned long long>(p.max_chunk_nanos), p.imbalance,
        static_cast<unsigned long long>(p.claims),
        static_cast<unsigned long long>(p.steals));
  }
  out += parallel_sites.empty() ? "],\n" : "\n  ],\n";
  out += "  \"workers\": [";
  for (size_t i = 0; i < workers.size(); ++i) {
    const WorkerReport& w = workers[i];
    out += StrFormat(
        "%s\n    {\"worker\": %u, \"running_nanos\": %llu, "
        "\"idle_nanos\": %llu}",
        i == 0 ? "" : ",", w.worker,
        static_cast<unsigned long long>(w.running_nanos),
        static_cast<unsigned long long>(w.idle_nanos));
  }
  out += workers.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void ProfileSession::Start() {
  prof::SetEnabled(false);
  prof::Reset();
  TraceCollector::Global().Clear();
  prof::SetEnabled(true);
  start_ns_ = prof::EnabledSinceNanos();
  active_ = true;
}

ProfileReport ProfileSession::Stop(const std::string& label) {
  const uint64_t end_ns = MonotonicNanos();
  prof::SetEnabled(false);
  active_ = false;
  return BuildProfileReport(label, start_ns_, end_ns);
}

std::string CurrentProfileJson() {
  if (!prof::Enabled()) {
    ProfileReport r;
    r.label = "live";
    r.enabled = false;
    return r.ToJson();
  }
  return BuildProfileReport("live", prof::EnabledSinceNanos(),
                            MonotonicNanos())
      .ToJson();
}

void PublishProfileMetrics(const ProfileReport& report) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::map<std::string, uint64_t> wait_by_rank;
  for (const MutexSiteReport& m : report.mutexes) {
    wait_by_rank[m.rank] += m.wait_nanos;
  }
  for (const auto& [rank, wait] : wait_by_rank) {
    reg.GetGauge(StrFormat("iq.lock.wait_nanos{rank=%s}", rank.c_str()))
        ->Set(static_cast<int64_t>(wait));
  }
  for (const ParallelSiteReport& p : report.parallel_sites) {
    reg.GetGauge(
           StrFormat("iq.pool.chunk_imbalance{site=%s}", p.site.c_str()))
        ->Set(static_cast<int64_t>(std::llround(p.imbalance * 1000.0)));
  }
}

std::vector<ProfileReport> ParseProfileReports(const std::string& text) {
  std::vector<ProfileReport> reports;
  ProfileReport* cur = nullptr;
  std::string raw;
  for (const std::string& line : StrSplit(text, '\n')) {
    if (JsonFindValue(line, "profile_label", &raw)) {
      reports.emplace_back();
      cur = &reports.back();
      cur->label = raw;
      cur->serial_fraction = 1.0;
      continue;
    }
    if (cur == nullptr) continue;
    if (JsonFindValue(line, "mutex", &raw)) {
      MutexSiteReport m;
      m.label = raw;
      if (JsonFindValue(line, "rank", &raw)) m.rank = raw;
      m.acquisitions = JsonFindU64(line, "acquisitions");
      m.contended = JsonFindU64(line, "contended");
      m.wait_nanos = JsonFindU64(line, "wait_nanos");
      m.max_wait_nanos = JsonFindU64(line, "max_wait_nanos");
      m.held_nanos = JsonFindU64(line, "held_nanos");
      cur->mutexes.push_back(std::move(m));
      continue;
    }
    if (JsonFindValue(line, "site", &raw)) {
      ParallelSiteReport p;
      p.site = raw;
      p.calls = JsonFindU64(line, "calls");
      p.chunks = JsonFindU64(line, "chunks");
      p.items = JsonFindInt(line, "items");
      p.busy_nanos = JsonFindU64(line, "busy_nanos");
      p.coverage_nanos = JsonFindU64(line, "site_coverage_nanos");
      p.median_chunk_nanos = JsonFindU64(line, "median_chunk_nanos");
      p.max_chunk_nanos = JsonFindU64(line, "max_chunk_nanos");
      p.imbalance = JsonFindDouble(line, "imbalance");
      p.claims = JsonFindU64(line, "claims");
      p.steals = JsonFindU64(line, "steals");
      cur->parallel_sites.push_back(std::move(p));
      continue;
    }
    if (JsonFindValue(line, "worker", &raw)) {
      WorkerReport w;
      w.worker = static_cast<uint32_t>(JsonFindU64(line, "worker"));
      w.running_nanos = JsonFindU64(line, "running_nanos");
      w.idle_nanos = JsonFindU64(line, "idle_nanos");
      cur->workers.push_back(w);
      continue;
    }
    // The report's own fields sit one per line; absent keys keep the value.
    if (JsonFindValue(line, "enabled", &raw)) cur->enabled = raw == "true";
    cur->window_nanos = JsonFindU64(line, "window_nanos", cur->window_nanos);
    cur->coverage_nanos =
        JsonFindU64(line, "coverage_nanos", cur->coverage_nanos);
    cur->serial_fraction =
        JsonFindDouble(line, "serial_fraction", cur->serial_fraction);
    cur->total_wait_nanos =
        JsonFindU64(line, "total_wait_nanos", cur->total_wait_nanos);
    cur->dropped_records =
        JsonFindU64(line, "dropped_records", cur->dropped_records);
  }
  return reports;
}

std::string ProfileVerdict(const ProfileReport& r) {
  if (!r.enabled || r.window_nanos == 0) {
    return "no profile data captured (profiling disabled or empty window)";
  }
  const double window = static_cast<double>(r.window_nanos);
  const double wait_share =
      static_cast<double>(r.total_wait_nanos) / window;
  if (wait_share >= 0.05 && !r.mutexes.empty()) {
    const MutexSiteReport& top = r.mutexes.front();
    return StrFormat(
        "lock contention dominates: %s (rank %s) waited %s across %llu "
        "acquisitions — %.1f%% of the window blocked on locks",
        top.label.c_str(), top.rank.c_str(),
        FormatNanos(top.wait_nanos).c_str(),
        static_cast<unsigned long long>(top.acquisitions),
        100.0 * wait_share);
  }
  const ParallelSiteReport* worst_imbalance = nullptr;
  for (const ParallelSiteReport& p : r.parallel_sites) {
    if (p.chunks >= 4 &&
        static_cast<double>(p.coverage_nanos) / window >= 0.2 &&
        (worst_imbalance == nullptr ||
         p.imbalance > worst_imbalance->imbalance)) {
      worst_imbalance = &p;
    }
  }
  if (worst_imbalance != nullptr && worst_imbalance->imbalance >= 2.0) {
    return StrFormat(
        "chunk imbalance at %s: max/median chunk duration %.2f — one "
        "straggler chunk serializes the tail of each call",
        worst_imbalance->site.c_str(), worst_imbalance->imbalance);
  }
  if (r.serial_fraction >= 0.25) {
    const char* biggest = r.parallel_sites.empty()
                              ? "(none)"
                              : r.parallel_sites.front().site.c_str();
    return StrFormat(
        "serial fraction %.2f is the ceiling: parallel regions cover only "
        "%.1f%% of the window (largest: %s), capping speedup at x%.2f on 8 "
        "threads regardless of contention",
        r.serial_fraction, 100.0 * (1.0 - r.serial_fraction), biggest,
        r.ProjectedSpeedup(8));
  }
  return StrFormat(
      "no dominant serialization: parallel coverage %.1f%% of the window, "
      "lock wait %.2f%%",
      100.0 * (1.0 - r.serial_fraction), 100.0 * wait_share);
}

std::string FormatSerializationReport(
    const std::vector<ProfileReport>& reports, int top_n) {
  if (reports.empty()) return "iq_obs prof: no profiles found in input\n";
  std::string out =
      StrFormat("iq_obs prof: serialization report — %zu profile%s\n",
                reports.size(), reports.size() == 1 ? "" : "s");
  for (const ProfileReport& r : reports) {
    out += StrFormat(
        "\nprofile %s: window %s, parallel coverage %.1f%% "
        "(serial fraction %.3f)%s\n",
        r.label.c_str(), FormatNanos(r.window_nanos).c_str(),
        100.0 * (1.0 - r.serial_fraction), r.serial_fraction,
        r.dropped_records > 0
            ? StrFormat(" [TRUNCATED: %llu records dropped]",
                        static_cast<unsigned long long>(r.dropped_records))
                  .c_str()
            : "");
    out += StrFormat(
        "  projected speedup (Amdahl): x%.2f @2  x%.2f @4  x%.2f @8  "
        "x%.2f @16\n",
        r.ProjectedSpeedup(2), r.ProjectedSpeedup(4), r.ProjectedSpeedup(8),
        r.ProjectedSpeedup(16));
    if (!r.mutexes.empty()) {
      out += "  top mutexes by wait:\n";
      int shown = 0;
      for (const MutexSiteReport& m : r.mutexes) {
        if (shown++ >= top_n) break;
        out += StrFormat(
            "    %d. %-28s (%s)  wait %s / %llu acq (%llu contended, "
            "max %s), held %s\n",
            shown, m.label.c_str(), m.rank.c_str(),
            FormatNanos(m.wait_nanos).c_str(),
            static_cast<unsigned long long>(m.acquisitions),
            static_cast<unsigned long long>(m.contended),
            FormatNanos(m.max_wait_nanos).c_str(),
            FormatNanos(m.held_nanos).c_str());
      }
    }
    if (!r.parallel_sites.empty()) {
      out += "  parallel sites:\n";
      int shown = 0;
      for (const ParallelSiteReport& p : r.parallel_sites) {
        if (shown++ >= top_n) break;
        out += StrFormat(
            "    %-28s %llu calls / %llu chunks / %lld items, busy %s, "
            "imbalance %.2f (max %s / med %s)%s\n",
            p.site.c_str(), static_cast<unsigned long long>(p.calls),
            static_cast<unsigned long long>(p.chunks),
            static_cast<long long>(p.items),
            FormatNanos(p.busy_nanos).c_str(), p.imbalance,
            FormatNanos(p.max_chunk_nanos).c_str(),
            FormatNanos(p.median_chunk_nanos).c_str(),
            p.steals > 0
                ? StrFormat(", %llu/%llu claims stolen",
                            static_cast<unsigned long long>(p.steals),
                            static_cast<unsigned long long>(p.claims))
                      .c_str()
                : "");
      }
    }
    if (!r.workers.empty()) {
      uint64_t running = 0;
      uint64_t idle = 0;
      for (const WorkerReport& w : r.workers) {
        running += w.running_nanos;
        idle += w.idle_nanos;
      }
      const double denom = static_cast<double>(running + idle);
      out += StrFormat(
          "  pool workers: %zu, busy %.1f%% / idle %.1f%% of tracked time\n",
          r.workers.size(), denom > 0 ? 100.0 * running / denom : 0.0,
          denom > 0 ? 100.0 * idle / denom : 0.0);
    }
  }
  out += StrFormat("\nverdict: %s\n", ProfileVerdict(reports.back()).c_str());
  return out;
}

std::string SerializationReportJson(
    const std::vector<ProfileReport>& reports) {
  std::string out = "{\"iq_prof\": {\n";
  out += StrFormat("\"num_profiles\": %zu,\n", reports.size());
  const std::string verdict = reports.empty()
                                  ? "no profiles found in input"
                                  : ProfileVerdict(reports.back());
  out += StrFormat("\"verdict\": \"%s\",\n", JsonEscape(verdict).c_str());
  out += "\"profiles\": [";
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n";
    out += reports[i].ToJson();
  }
  out += reports.empty() ? "]\n" : "\n]\n";
  out += "}}\n";
  return out;
}

}  // namespace iq
