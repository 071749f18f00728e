// Scaling micro-benchmark for the parallel execution layer (DESIGN.md §8).
//
// Measures the three pooled hot paths — subdomain-index build, greedy
// Max-Hit search (parallel candidate generation + ESE evaluation) and
// IqEngine::SolveBatch — at num_threads in {0 (serial fallback), 1, 2, 4, 8}
// and reports wall time plus speedup relative to the serial path. Plain
// main (not google-benchmark): the unit of interest is one whole build /
// search / batch, and the table must juxtapose thread counts.
//
// Flags:
//   --n=, --m=             workload size (default 4000 objects, 800 queries)
//   --reps=                repetitions per cell, best-of (default 3)
//   --json=PATH            machine-readable report: per-path per-thread-count
//                          seconds + speedups, run metadata, plus the full
//                          iq.* metrics snapshot (CI greps it for the pool
//                          counters)
//   --exporter-port=PORT   serve live /metrics on 127.0.0.1:PORT while the
//                          bench runs (0 = ephemeral port)
//   --scrape-metrics=PATH  after the run, GET /metrics over loopback and
//                          write the payload to PATH (starts an ephemeral
//                          exporter when no --exporter-port= was given)
//   --threads=LIST         comma-separated thread counts to run (default
//                          0,1,2,4,8; 0 = serial fallback, always run first
//                          so speedups have a baseline)
//   --profile=PATH         after the timed reps of each cell, run one extra
//                          rep under the contention profiler (obs/profile.h)
//                          and write every window's ProfileReport — labeled
//                          "<path>/threads=N" — to PATH as a JSON dump that
//                          `iq_obs prof` ingests. Profiling is OFF during
//                          the timed reps, so this flag does not perturb the
//                          reported seconds.
//   --slow-trace-nanos=N   enable causal tracing with an N-nanosecond
//                          tail-capture threshold (DESIGN.md §14) for the
//                          whole run; root solves at or over N are retained
//                          in the last-K store. Use a low N (e.g. 1000) to
//                          force retention for the obs-smoke CI lane.
//   --scrape-tracez=PATH   after the run, GET /tracez over loopback and
//                          write the payload to PATH (starts an ephemeral
//                          exporter when no --exporter-port= was given);
//                          `iq_obs trace` and check_metrics.sh --trace
//                          consume the file.
//
// Note on expectations: speedup > 1 needs real cores. On a single-core
// machine the pooled paths measure the (small) coordination overhead
// instead; the table is still useful as a regression canary for that
// overhead, which is why the serial fallback is the baseline.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/harness.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace iq {
namespace bench {
namespace {

constexpr int kDefaultThreadCounts[] = {0, 1, 2, 4, 8};

/// Shared knobs for one bench run: which thread counts to sweep and (when
/// --profile= is set) where the per-cell ProfileReports accumulate.
struct RunConfig {
  std::vector<int> thread_counts;
  std::vector<ProfileReport>* profiles = nullptr;  // null: profiling off
};

struct Cell {
  int num_threads = 0;
  double seconds = 0.0;
  double speedup = 1.0;  // serial seconds / this cell's seconds
};

struct PathResult {
  std::string path;
  std::vector<Cell> cells;
};

double BestOf(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    double s = timer.ElapsedSeconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

/// Times one (path, thread-count) cell: best-of over the timed reps with
/// profiling off, then — when --profile= asked for it — one *extra* rep
/// inside a ProfileSession whose report is labeled "<path>/threads=N" and
/// published to the metrics registry. Keeping the profiled rep out of the
/// timing keeps the seconds column comparable with and without the flag.
double MeasureCell(const RunConfig& cfg, const std::string& label, int reps,
                   const std::function<void()>& fn) {
  const double best = BestOf(reps, fn);
  if (cfg.profiles != nullptr) {
    ProfileSession session;
    session.Start();
    fn();
    ProfileReport report = session.Stop(label);
    PublishProfileMetrics(report);
    cfg.profiles->push_back(std::move(report));
  }
  return best;
}

/// "<path>/threads=N": the profile label of one cell.
std::string CellLabel(const std::string& path, int num_threads) {
  return StrFormat("%s/threads=%d", path.c_str(), num_threads);
}

/// Speedups are relative to the first cell (the serial one by default).
void FillSpeedups(PathResult* result) {
  const double serial = result->cells.front().seconds;
  for (Cell& cell : result->cells) {
    cell.speedup = cell.seconds > 0.0 ? serial / cell.seconds : 0.0;
  }
}

PathResult BenchIndexBuild(const RunConfig& cfg, const Workload& w,
                           int reps) {
  PathResult result{"index_build", {}};
  for (int num_threads : cfg.thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    if (num_threads > 0) pool = std::make_unique<ThreadPool>(num_threads);
    SubdomainIndexOptions options;
    options.pool = pool.get();
    double seconds =
        MeasureCell(cfg, CellLabel(result.path, num_threads), reps, [&] {
          auto index =
              SubdomainIndex::Build(w.view.get(), w.queries.get(), options);
          IQ_CHECK(index.ok());
        });
    result.cells.push_back({num_threads, seconds, 1.0});
  }
  FillSpeedups(&result);
  return result;
}

PathResult BenchGreedyMaxHit(const RunConfig& cfg, const Workload& w,
                             int reps) {
  // Fixed targets + fixed budget: every thread count runs the identical
  // search (the determinism contract makes the work content equal too).
  PathResult result{"greedy_max_hit", {}};
  const int num_targets = 8;
  for (int num_threads : cfg.thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    if (num_threads > 0) pool = std::make_unique<ThreadPool>(num_threads);
    IqOptions options;
    options.pool = pool.get();
    double seconds =
        MeasureCell(cfg, CellLabel(result.path, num_threads), reps, [&] {
          for (int t = 0; t < num_targets; ++t) {
            auto ctx = IqContext::FromIndex(w.index.get(), t);
            IQ_CHECK(ctx.ok());
            EseEvaluator ese(w.index.get(), t);
            auto r = MaxHitIq(*ctx, &ese, 0.25, options);
            IQ_CHECK(r.ok());
          }
        });
    result.cells.push_back({num_threads, seconds, 1.0});
  }
  FillSpeedups(&result);
  return result;
}

PathResult BenchSolveBatch(const RunConfig& cfg, int n, int m, int reps) {
  PathResult result{"solve_batch", {}};
  std::vector<BatchItem> items;
  for (int t = 0; t < n; t += std::max(1, n / 32)) {
    BatchItem item;
    item.kind =
        t % 2 == 0 ? BatchItem::Kind::kMinCost : BatchItem::Kind::kMaxHit;
    item.target = t;
    item.tau = 1 + t % 8;
    item.beta = 0.2;
    items.push_back(item);
  }
  for (int num_threads : cfg.thread_counts) {
    Dataset data = MakeIndependent(n, PaperParams::kDim, 42);
    QueryGenOptions qopts;
    qopts.k_max = 50;
    EngineOptions eopts;
    eopts.num_threads = num_threads;
    auto engine = IqEngine::Create(
        std::move(data), LinearForm::Identity(PaperParams::kDim),
        MakeQueries(m, PaperParams::kDim, 43, qopts), eopts);
    IQ_CHECK(engine.ok());
    double seconds =
        MeasureCell(cfg, CellLabel(result.path, num_threads), reps, [&] {
          auto batch = engine->SolveBatch(items);
          IQ_CHECK(batch.ok());
        });
    result.cells.push_back({num_threads, seconds, 1.0});
  }
  FillSpeedups(&result);
  return result;
}

void PrintTable(const std::vector<PathResult>& paths) {
  TablePrinter table({"path", "threads", "seconds", "speedup"});
  for (const PathResult& p : paths) {
    for (const Cell& c : p.cells) {
      table.AddRow({p.path,
                    c.num_threads == 0 ? "serial" : FmtInt(c.num_threads),
                    FmtDouble(c.seconds * 1e3, 3) + " ms",
                    FmtDouble(c.speedup, 2) + "x"});
    }
  }
  table.Print();
}

Status WriteJson(const std::string& path,
                 const std::vector<PathResult>& paths) {
  std::string json = "{\"bench\":\"micro_parallel\",\"run\":" +
                     RunMetadataJson(CollectRunMetadata(/*seed=*/42)) +
                     ",\"paths\":[";
  for (size_t i = 0; i < paths.size(); ++i) {
    if (i > 0) json += ",";
    json += "{\"path\":\"" + paths[i].path + "\",\"cells\":[";
    for (size_t j = 0; j < paths[i].cells.size(); ++j) {
      const Cell& c = paths[i].cells[j];
      if (j > 0) json += ",";
      json += "{\"threads\":" + std::to_string(c.num_threads) +
              ",\"seconds\":" + FmtDouble(c.seconds, 6) +
              ",\"speedup\":" + FmtDouble(c.speedup, 4) + "}";
    }
    json += "]}";
  }
  json += "],\"metrics\":" + MetricsRegistry::Global().Snapshot().ToJson() +
          "}";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path);
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "json report written to %s\n", path.c_str());
  return Status::Ok();
}

/// The --profile= dump: run metadata plus every cell's ProfileReport, in
/// the line-oriented JSON that `iq_obs prof` re-ingests.
Status WriteProfileDump(const std::string& path,
                        const std::vector<ProfileReport>& profiles) {
  std::string json = "{\"bench\":\"micro_parallel\",\"run\":" +
                     RunMetadataJson(CollectRunMetadata(/*seed=*/42)) +
                     ",\n\"profiles\": [";
  for (size_t i = 0; i < profiles.size(); ++i) {
    json += i == 0 ? "\n" : ",\n";
    json += profiles[i].ToJson();
  }
  json += profiles.empty() ? "]}\n" : "\n]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path);
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "profile dump (%zu windows) written to %s\n",
               profiles.size(), path.c_str());
  return Status::Ok();
}

/// Parses "--threads=0,2,8" into thread counts; rejects empty / negative
/// entries. The serial cell (0) is the speedup baseline — when the list
/// omits it, speedups are relative to the first listed count instead.
Result<std::vector<int>> ParseThreadList(const std::string& list) {
  std::vector<int> out;
  for (std::string_view part : StrSplit(list, ',')) {
    auto v = ParseInt(StrTrim(part));
    if (!v.ok() || *v < 0 || *v > 256) {
      return Status::InvalidArgument("bad --threads= entry: " +
                                     std::string(part));
    }
    out.push_back(static_cast<int>(*v));
  }
  if (out.empty()) {
    return Status::InvalidArgument("--threads= list is empty");
  }
  return out;
}

int Main(int argc, char** argv) {
  int n = 4000, m = 800, reps = 3;
  int exporter_port = -1;
  int slow_trace_nanos = 0;
  std::string json_path, scrape_path, profile_path, threads_list;
  std::string scrape_tracez_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto intval = [&arg](const char* prefix, int* out) {
      std::string p(prefix);
      if (arg.rfind(p, 0) == 0) {
        *out = std::stoi(arg.substr(p.size()));
        return true;
      }
      return false;
    };
    if (intval("--n=", &n) || intval("--m=", &m) || intval("--reps=", &reps) ||
        intval("--exporter-port=", &exporter_port) ||
        intval("--slow-trace-nanos=", &slow_trace_nanos)) {
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      continue;
    }
    if (arg.rfind("--scrape-metrics=", 0) == 0) {
      scrape_path = arg.substr(17);
      continue;
    }
    if (arg.rfind("--scrape-tracez=", 0) == 0) {
      scrape_tracez_path = arg.substr(16);
      continue;
    }
    if (arg.rfind("--profile=", 0) == 0) {
      profile_path = arg.substr(10);
      continue;
    }
    if (arg.rfind("--threads=", 0) == 0) {
      threads_list = arg.substr(10);
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
    return 1;
  }

  RunConfig cfg;
  cfg.thread_counts.assign(std::begin(kDefaultThreadCounts),
                           std::end(kDefaultThreadCounts));
  if (!threads_list.empty()) {
    auto parsed = ParseThreadList(threads_list);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    cfg.thread_counts = *parsed;
  }
  std::vector<ProfileReport> profiles;
  if (!profile_path.empty()) cfg.profiles = &profiles;

  if (slow_trace_nanos > 0) {
    // Whole-run tail capture: every engine root solve at or over the
    // threshold lands in the retained store that /tracez serves. The
    // engines BenchSolveBatch creates would configure this themselves via
    // EngineOptions, but doing it here keeps one config for the whole run
    // regardless of which cells execute.
    TraceTailConfig tail;
    tail.slow_trace_nanos = slow_trace_nanos;
    TraceCollector::Global().ConfigureTailCapture(tail);
    TraceCollector::Global().SetEnabled(true);
    std::printf("tracing on: slow-trace threshold %d ns\n", slow_trace_nanos);
  }

  MetricsExporter exporter;
  if (exporter_port >= 0 || !scrape_path.empty() ||
      !scrape_tracez_path.empty()) {
    Status st = exporter.Start(exporter_port >= 0 ? exporter_port : 0);
    if (!st.ok()) {
      std::fprintf(stderr, "exporter: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("serving live metrics on http://127.0.0.1:%d/metrics\n",
                exporter.port());
  }

  std::printf("micro_parallel: n=%d m=%d reps=%d (best-of)\n", n, m, reps);
  Workload w = MakeLinearWorkload(SyntheticKind::kIndependent, n, m,
                                  PaperParams::kDim, 42);
  std::vector<PathResult> paths;
  paths.push_back(BenchIndexBuild(cfg, w, reps));
  paths.push_back(BenchGreedyMaxHit(cfg, w, reps));
  paths.push_back(BenchSolveBatch(cfg, n / 4, m / 4, reps));
  PrintTable(paths);

  if (!json_path.empty()) {
    Status s = WriteJson(json_path, paths);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!profile_path.empty()) {
    Status s = WriteProfileDump(profile_path, profiles);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!scrape_path.empty()) {
    // A real loopback round-trip, not a direct render: CI uses this file to
    // prove the exporter serves what the registry holds.
    Result<std::string> body = HttpGetLocal(exporter.port(), "/metrics");
    if (!body.ok()) {
      std::fprintf(stderr, "scrape failed: %s\n",
                   body.status().ToString().c_str());
      return 1;
    }
    std::FILE* f = std::fopen(scrape_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", scrape_path.c_str());
      return 1;
    }
    std::fwrite(body->data(), 1, body->size(), f);
    std::fclose(f);
    std::fprintf(stderr, "scraped /metrics written to %s\n",
                 scrape_path.c_str());
  }
  if (!scrape_tracez_path.empty()) {
    // Same loopback contract as --scrape-metrics=: the file proves the
    // exporter serves the retained-trace store, not a direct render.
    Result<std::string> body = HttpGetLocal(exporter.port(), "/tracez");
    if (!body.ok()) {
      std::fprintf(stderr, "tracez scrape failed: %s\n",
                   body.status().ToString().c_str());
      return 1;
    }
    std::FILE* f = std::fopen(scrape_tracez_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", scrape_tracez_path.c_str());
      return 1;
    }
    std::fwrite(body->data(), 1, body->size(), f);
    std::fclose(f);
    std::fprintf(stderr, "scraped /tracez written to %s\n",
                 scrape_tracez_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace iq

int main(int argc, char** argv) { return iq::bench::Main(argc, argv); }
