// Observability demo: runs a small improvement-query workload with scoped
// tracing enabled, writes a Chrome-trace JSON file (open it at
// https://ui.perfetto.dev or chrome://tracing), and prints the metrics
// snapshot the engine collected along the way.
//
// Usage: example_trace_demo [output.trace.json]   (default: iq_trace.json)

#include <cstdio>

#include "core/engine.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"

int main(int argc, char** argv) {
  const char* trace_path = argc > 1 ? argv[1] : "iq_trace.json";

  // Tracing is always compiled in but off at run time until a collector
  // opts in.
  iq::TraceCollector::Global().SetEnabled(true);
  iq::MetricsRegistry::Global().Reset();

  // A small synthetic workload: 2000 objects, 300 top-k queries, 3 dims.
  const int dim = 3;
  iq::Dataset data = iq::MakeIndependent(2000, dim, /*seed=*/7);
  iq::QueryGenOptions qopts;
  qopts.k_max = 20;
  auto engine = iq::IqEngine::Create(std::move(data),
                                     iq::LinearForm::Identity(dim),
                                     iq::MakeQueries(300, dim, 8, qopts));
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  // A few improvement queries plus a permanent strategy application, so the
  // trace shows the full pipeline: candidate solving, ESE evaluation, and
  // the §4.3 index maintenance inside ApplyStrategy.
  for (int target : {0, 1, 2}) {
    auto min_cost = engine->MinCost(target, /*tau=*/10);
    if (!min_cost.ok()) continue;
    auto max_hit = engine->MaxHit(target, /*beta=*/0.5);
    if (!max_hit.ok()) continue;
    if (target == 0 && min_cost->reached_goal) {
      iq::Status st = engine->ApplyStrategy(target, min_cost->strategy);
      if (!st.ok()) {
        std::fprintf(stderr, "apply: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("applied Min-Cost strategy to object 0: hits %d -> %d\n",
                  min_cost->hits_before, min_cost->hits_after);
    }
    std::printf(
        "target %d: MinCost %.2fms (%d iters), MaxHit %.2fms (%d iters)\n",
        target, 1e3 * min_cost->seconds, min_cost->iterations,
        1e3 * max_hit->seconds, max_hit->iterations);
  }

  iq::Status st = iq::TraceCollector::Global().WriteJson(trace_path);
  if (!st.ok()) {
    std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %zu trace events to %s (load in Perfetto)\n",
              iq::TraceCollector::Global().EventCount(), trace_path);

  std::printf("\n%s\n", engine->GetStatsSnapshot().ToText().c_str());
  return 0;
}
