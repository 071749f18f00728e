// End-to-end benchmark of the iq public API (see README.md).
//
//   iq_perfbench --workload <name> --seed <n> --seconds <s> --trace 0
//   iq_perfbench --workload <name> --seed <n> --trace 1
//                --trace-out <chrome-trace.json>
//
// One process, one closed-loop caller: the benchmark issues the next call
// when the last one returns. The seed generates the inputs (objects,
// queries, the operation sequence; see MakeInputs for the one fixed query
// set); the library sees only those inputs.
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 is
// the separate traced run: it replays the same calls through the library's
// layer functions, timed from this file, and reports the per-layer metrics.
// Both print human-readable lines first and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/iq_algorithms.h"
#include "core/score_kernel.h"
#include "core/subdomain_index.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "index/rtree.h"
#include "obs/metrics.h"
#include "opt/cost.h"
#include "spans.h"
#include "util/random.h"

namespace iqbench {
namespace {

using iq::BatchItem;
using iq::Dataset;
using iq::EpochHandle;
using iq::IqEngine;
using iq::IqResult;
using iq::Result;
using iq::Rng;
using iq::Status;
using iq::TopKQuery;
using iq::Vec;

constexpr int kDim = 3;

// ---------------------------------------------------------------------------
// Workloads

enum class Mix { kSolve, kMinCostOnly, kChurn };

struct Spec {
  const char* name;
  iq::SyntheticKind objects;
  iq::QueryDistribution queries;
  int n;
  int m;
  Mix mix;
  int mincost_quality;  // MinCost calls in the fixed quality prefix
  int oracle_checks;    // sampled answers checked against the oracle
  int replay_reads;     // traced run: reads replayed through the layers
  int probe_items;      // traced run: pool-probe batch size
};

// Sizes and mixes are documented, with the reason for each workload, in
// README.md. Every workload's engine is serial (num_threads 0); only the
// traced run's pool probe starts worker threads.
const Spec kSpecs[] = {
    {.name = "solve_in",
     .objects = iq::SyntheticKind::kIndependent,
     .queries = iq::QueryDistribution::kUniform,
     .n = 20000,
     .m = 2000,
     .mix = Mix::kSolve,
     .mincost_quality = 100,
     .oracle_checks = 8,
     .replay_reads = 48,
     .probe_items = 16},
    {.name = "build_ac",
     .objects = iq::SyntheticKind::kAntiCorrelated,
     .queries = iq::QueryDistribution::kUniform,
     .n = 100000,
     .m = 1000,
     .mix = Mix::kMinCostOnly,
     .mincost_quality = 200,
     .oracle_checks = 3,
     .replay_reads = 48,
     .probe_items = 16},
    {.name = "churn_co",
     .objects = iq::SyntheticKind::kCorrelated,
     .queries = iq::QueryDistribution::kClustered,
     .n = 20000,
     .m = 2000,
     .mix = Mix::kChurn,
     .mincost_quality = 100,
     .oracle_checks = 8,
     .replay_reads = 30,
     .probe_items = 8},
};

/// Repetitions of each set-up measurement: IqEngine::Create in the
/// end-to-end run (setup_s is the median), and the build and publish replays
/// of the traced run.
constexpr int kRepeats = 5;

/// The MaxHit quality reads cover a kGrid x kGrid grid over (target rank,
/// beta); see OpStream.
constexpr int kGrid = 8;

/// Spare rows and queries the writers add.
constexpr int kSpare = 2048;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream): independent, reproducible
  // sub-streams for objects, queries and operations.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Inputs {
  Dataset data{kDim};
  std::vector<TopKQuery> queries;
  std::vector<Vec> spare_objects;
  std::vector<TopKQuery> spare_queries;
};

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs in;
  Dataset all = iq::MakeSynthetic(spec.objects, spec.n + kSpare, kDim,
                                  SubSeed(seed, 1));
  std::vector<Vec> rows;
  rows.reserve(static_cast<size_t>(spec.n));
  for (int i = 0; i < all.size(); ++i) {
    (i < spec.n ? rows : in.spare_objects).push_back(all.attrs(i));
  }
  in.data = *Dataset::FromRows(kDim, std::move(rows));
  iq::QueryGenOptions qopt;
  qopt.distribution = spec.queries;
  // Where a clustered query set's five clusters sit decides how many
  // subdomains the index has, 1 to 8 over twenty seeds, and with it the mean
  // MinCost answer cost, 0.48 to 0.75. So a clustered set is drawn from one
  // fixed stream, and the seed varies the objects and the operations.
  const uint64_t query_seed =
      spec.queries == iq::QueryDistribution::kClustered ? 0 : seed;
  in.queries =
      iq::MakeQueries(spec.m + kSpare, kDim, SubSeed(query_seed, 2), qopt);
  in.spare_queries.assign(in.queries.begin() + spec.m, in.queries.end());
  in.queries.resize(static_cast<size_t>(spec.m));
  return in;
}

/// IqEngine::Create on copies of the inputs; `seconds` gets the wall time of
/// the Create call alone (copying the inputs is not timed). `threads` is
/// EngineOptions::num_threads: 0 (serial) except for the pool probe.
Result<IqEngine> Create(const Inputs& in, int threads, double* seconds) {
  Dataset data = in.data;
  std::vector<TopKQuery> queries = in.queries;
  iq::EngineOptions opt;
  opt.num_threads = threads;
  const Clock::time_point t0 = Clock::now();
  Result<IqEngine> e = IqEngine::Create(
      std::move(data), iq::LinearForm::Identity(kDim), std::move(queries), opt);
  *seconds = Seconds(t0, Clock::now());
  return e;
}

/// Ids currently active (objects or queries), with O(1) random pick and
/// removal, so writers and readers only ever name live ids.
class IdSet {
 public:
  explicit IdSet(int n) {
    for (int i = 0; i < n; ++i) Add(i);
  }
  void Add(int id) {
    if (static_cast<size_t>(id) >= pos_.size()) pos_.resize(id + 1, -1);
    pos_[id] = static_cast<int>(ids_.size());
    ids_.push_back(id);
  }
  void Remove(int id) {
    const int p = pos_[id];
    ids_[p] = ids_.back();
    pos_[ids_[p]] = p;
    ids_.pop_back();
    pos_[id] = -1;
  }
  int Pick(Rng& rng) const { return ids_[rng.NextUint64(ids_.size())]; }
  bool Contains(int id) const {
    return static_cast<size_t>(id) < pos_.size() && pos_[id] >= 0;
  }

 private:
  std::vector<int> ids_;
  std::vector<int> pos_;
};

enum class OpKind {
  kMinCost,
  kMaxHit,
  kAddObject,
  kRemoveObject,
  kAddQuery,
  kRemoveQuery,
  kApplyStrategy,
};
constexpr int kNumOpKinds = 7;
const char* const kOpNames[kNumOpKinds] = {
    "min_cost",  "max_hit",      "add_object",    "remove_object",
    "add_query", "remove_query", "apply_strategy"};

bool IsRead(OpKind k) { return k == OpKind::kMinCost || k == OpKind::kMaxHit; }
int Index(OpKind k) { return static_cast<int>(k); }

struct Op {
  OpKind kind = OpKind::kMinCost;
  int target = 0;  // object (reads, remove_object, apply) or query id
  int tau = 1;
  double beta = 0.0;
  Vec vec;          // new object attrs / strategy
  TopKQuery query;  // add_query
};

/// Stratified uniform draws on [0, 1): every block of kStrata consecutive
/// draws puts one draw in each stratum [j/kStrata, (j+1)/kStrata), in
/// shuffled order. The marginal distribution stays uniform; a run's sample
/// just covers the range evenly, which takes most of the seed-to-seed
/// spread out of means and medians over a few hundred calls.
class Stratified {
 public:
  static constexpr int kStrata = 16;
  double Next(Rng& rng) {
    if (next_ == order_.size()) {
      order_.resize(kStrata);
      for (int j = 0; j < kStrata; ++j) order_[j] = j;
      rng.Shuffle(&order_);
      next_ = 0;
    }
    return (order_[next_++] + rng.UniformDouble()) / kStrata;
  }

 private:
  std::vector<int> order_;
  size_t next_ = 0;
};

/// Fixed cycles of operation kinds. Reads are MinCost and MaxHit in a 7:1
/// mix: a MaxHit call costs about 20 MinCost calls on average, so this keeps
/// most of a run's samples on MinCost, whose tail is on the final line.
/// churn_co adds every writer once per cycle of nine MinCost calls and one
/// MaxHit.
constexpr OpKind kSolveCycle[] = {
    OpKind::kMinCost, OpKind::kMinCost, OpKind::kMinCost, OpKind::kMinCost,
    OpKind::kMinCost, OpKind::kMinCost, OpKind::kMinCost, OpKind::kMaxHit};
constexpr OpKind kMinCostCycle[] = {OpKind::kMinCost};
constexpr OpKind kChurnCycle[] = {
    OpKind::kAddObject,     OpKind::kMinCost, OpKind::kMinCost,
    OpKind::kRemoveObject,  OpKind::kMinCost, OpKind::kMinCost,
    OpKind::kAddQuery,      OpKind::kMinCost, OpKind::kMaxHit,
    OpKind::kRemoveQuery,   OpKind::kMinCost, OpKind::kMinCost,
    OpKind::kApplyStrategy, OpKind::kMinCost, OpKind::kMinCost};

/// The seeded operation sequence of one workload. Read targets, tau and
/// beta are uniform (targets over objects, tau and beta over the paper's
/// Table 2 ranges), drawn stratified per read kind. The first kGrid^2 MaxHit
/// reads instead take one cell each of a fixed grid over (target rank,
/// beta), in a seeded order: a MaxHit answer often jumps between 0 hits and
/// every query, and with random pairings of target and budget the mean hits
/// of those reads moved by a third from seed to seed. Writers keep the live
/// id sets current, so every operation names a live id and none fails on
/// valid engine state.
class OpStream {
 public:
  OpStream(const Spec& spec, const Inputs& in, uint64_t seed)
      : spec_(spec), in_(in), rng_(seed), objects_(spec.n), queries_(spec.m) {
    // Targets are stratified over the initial objects ordered by attribute
    // sum, a proxy for how deep in the ranking an object sits (lower sum,
    // better rank). A removed object's slot passes to the next live one.
    std::vector<std::pair<double, int>> by_sum;
    for (int id = 0; id < spec.n; ++id) {
      double sum = 0.0;
      for (double x : in.data.attrs(id)) sum += x;
      by_sum.emplace_back(sum, id);
    }
    std::sort(by_sum.begin(), by_sum.end());
    for (const auto& [sum, id] : by_sum) by_rank_.push_back(id);
    for (int i = 0; i < kGrid; ++i) {
      for (int j = 0; j < kGrid; ++j) grid_.emplace_back(i, j);
    }
    rng_.Shuffle(&grid_);
  }

  /// The next read of `kind`. tau and beta follow Table 2 of the paper:
  /// tau ~ U[100, 500] per 10k queries, beta ~ U[0.1, 1.0] on the unit cube.
  Op NextRead(OpKind kind) {
    Draws& d = draws_[kind == OpKind::kMinCost ? 0 : 1];
    Op op;
    op.kind = kind;
    double target_u = 0.0;
    if (kind == OpKind::kMaxHit && grid_next_ < grid_.size()) {
      // The first MaxHit reads take the cells of a fixed grid over (target
      // rank, beta), one each, at cell midpoints, in a seeded order.
      const auto [i, j] = grid_[grid_next_++];
      target_u = (i + 0.5) / kGrid;
      op.beta = 0.1 + 0.9 * (j + 0.5) / kGrid;
    } else {
      target_u = d.target.Next(rng_);
      op.beta = 0.1 + 0.9 * d.beta.Next(rng_);
    }
    size_t at = static_cast<size_t>(target_u * by_rank_.size());
    while (!objects_.Contains(by_rank_[at])) at = (at + 1) % by_rank_.size();
    op.target = by_rank_[at];
    op.tau = std::max(
        1, static_cast<int>((100 + 400 * d.tau.Next(rng_)) * spec_.m / 10000));
    return op;
  }

  /// The next read of the workload's cycle, skipping its writes.
  Op NextRead() {
    for (;;) {
      const OpKind kind = NextKind();
      if (IsRead(kind)) return NextRead(kind);
    }
  }

  /// The next operation of the workload.
  Op Next() {
    const OpKind kind = NextKind();
    return IsRead(kind) ? NextRead(kind) : NextWrite(kind);
  }

  Op NextWrite(OpKind kind) {
    Op op;
    op.kind = kind;
    switch (kind) {
      case OpKind::kAddObject:
        op.vec = in_.spare_objects[next_object_++ % in_.spare_objects.size()];
        break;
      case OpKind::kRemoveObject:
        op.target = objects_.Pick(rng_);
        break;
      case OpKind::kAddQuery:
        op.query = in_.spare_queries[next_query_++ % in_.spare_queries.size()];
        break;
      case OpKind::kRemoveQuery:
        op.target = queries_.Pick(rng_);
        break;
      case OpKind::kApplyStrategy:
        op.target = objects_.Pick(rng_);
        op.vec = rng_.UniformVector(kDim, -0.05, 0.05);
        break;
      default:
        break;
    }
    return op;
  }

  /// Records a successful write's effect on the live id sets.
  void Applied(const Op& op, int new_id) {
    switch (op.kind) {
      case OpKind::kAddObject: objects_.Add(new_id); break;
      case OpKind::kRemoveObject: objects_.Remove(op.target); break;
      case OpKind::kAddQuery: queries_.Add(new_id); break;
      case OpKind::kRemoveQuery: queries_.Remove(op.target); break;
      default: break;
    }
  }

 private:
  struct Draws {
    Stratified target;
    Stratified tau;
    Stratified beta;
  };

  OpKind NextKind() {
    switch (spec_.mix) {
      case Mix::kMinCostOnly:
        return kMinCostCycle[cycle_++ % std::size(kMinCostCycle)];
      case Mix::kChurn:
        return kChurnCycle[cycle_++ % std::size(kChurnCycle)];
      case Mix::kSolve:
        break;
    }
    return kSolveCycle[cycle_++ % std::size(kSolveCycle)];
  }

  const Spec& spec_;
  const Inputs& in_;
  Rng rng_;
  IdSet objects_;
  IdSet queries_;
  std::vector<std::pair<int, int>> grid_;  // (target stratum, beta stratum)
  size_t grid_next_ = 0;
  std::vector<int> by_rank_;  // object ids by ascending attribute sum
  Draws draws_[2];            // MinCost, MaxHit
  size_t cycle_ = 0;
  size_t next_object_ = 0;
  size_t next_query_ = 0;
};

BatchItem ToItem(const Op& op) {
  BatchItem item;
  item.kind = op.kind == OpKind::kMinCost ? BatchItem::Kind::kMinCost
                                          : BatchItem::Kind::kMaxHit;
  item.target = op.target;
  item.tau = op.tau;
  item.beta = op.beta;
  return item;
}

/// Executes one write; returns the new id for adds (else 0).
Result<int> Write(IqEngine& engine, const Op& op) {
  Status st;
  switch (op.kind) {
    case OpKind::kAddObject: return engine.AddObject(op.vec);
    case OpKind::kAddQuery: return engine.AddQuery(op.query);
    case OpKind::kRemoveObject: st = engine.RemoveObject(op.target); break;
    case OpKind::kRemoveQuery: st = engine.RemoveQuery(op.target); break;
    case OpKind::kApplyStrategy:
      st = engine.ApplyStrategy(op.target, op.vec);
      break;
    default: return Status::InvalidArgument("not a write");
  }
  if (!st.ok()) return st;
  return 0;
}

Result<IqResult> Read(const IqEngine& engine, const Op& op) {
  return op.kind == OpKind::kMinCost ? engine.MinCost(op.target, op.tau)
                                     : engine.MaxHit(op.target, op.beta);
}

/// The greedy search of one read, as IqEngine runs it for a serial engine:
/// default IqOptions, the given evaluator, the given context.
Result<IqResult> Search(const Op& op, const iq::IqContext& ctx,
                        iq::StrategyEvaluator* evaluator) {
  const iq::IqOptions options;
  return op.kind == OpKind::kMinCost
             ? iq::MinCostIq(ctx, evaluator, op.tau, options)
             : iq::MaxHitIq(ctx, evaluator, op.beta, options);
}

// ---------------------------------------------------------------------------
// Checks

bool SameBytes(const IqResult& a, const IqResult& b) {
  return a.strategy.size() == b.strategy.size() &&
         std::memcmp(a.strategy.data(), b.strategy.data(),
                     a.strategy.size() * sizeof(double)) == 0 &&
         std::memcmp(&a.cost, &b.cost, sizeof(double)) == 0 &&
         a.hits_before == b.hits_before && a.hits_after == b.hits_after &&
         a.reached_goal == b.reached_goal && a.iterations == b.iterations &&
         a.evaluator_calls == b.evaluator_calls;
}

/// The output oracle: the answer's hit count re-evaluated by the index-free
/// BruteForceEvaluator on the same pinned epoch, its cost recomputed, and
/// the goal / budget contract. Returns "" when the answer agrees.
std::string OracleDisagreement(const EpochHandle& snap, const Op& op,
                               const IqResult& r) {
  char buf[256];
  iq::BruteForceEvaluator brute(snap.view_ptr(), snap.queries_ptr(),
                                op.target);
  const Vec improved = iq::Add(snap.dataset().attrs(op.target), r.strategy);
  const int hits = brute.HitsForCoeffs(snap.view().CoefficientsFor(improved));
  if (hits != r.hits_after) {
    std::snprintf(buf, sizeof(buf), "hits_after %d but brute force H=%d",
                  r.hits_after, hits);
    return buf;
  }
  const double cost = iq::CostFunction::L2().Cost(r.strategy);
  if (std::memcmp(&cost, &r.cost, sizeof(double)) != 0) {
    std::snprintf(buf, sizeof(buf), "cost %.17g but Cost_p(s)=%.17g", r.cost,
                  cost);
    return buf;
  }
  if (op.kind == OpKind::kMinCost &&
      r.reached_goal != (r.hits_after >= op.tau)) {
    std::snprintf(buf, sizeof(buf), "reached_goal=%d with hits %d, tau %d",
                  r.reached_goal ? 1 : 0, r.hits_after, op.tau);
    return buf;
  }
  if (op.kind == OpKind::kMaxHit && !(r.cost <= op.beta)) {
    std::snprintf(buf, sizeof(buf), "cost %.17g over budget %.17g", r.cost,
                  op.beta);
    return buf;
  }
  return "";
}

std::string Describe(const Op& op) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s target=%d tau=%d beta=%.17g",
                kOpNames[Index(op.kind)], op.target, op.tau, op.beta);
  return buf;
}

// ---------------------------------------------------------------------------
// Statistics

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The tail percentile of n samples: 0.95 when at least ten samples lie
/// beyond it, else the highest percentile that still has ten beyond it.
double TailQuantile(size_t n) {
  if (n <= 20) return 0.5;
  return std::min(0.95, 1.0 - 10.0 / static_cast<double>(n));
}

/// The tail reported as "p95": the calls split into three consecutive
/// thirds, each third's TailQuantile percentile, and the median of the
/// three. A stretch of host contention shorter than a third of the run moves
/// one third's tail only.
double Tail(const std::vector<double>& v) {
  const size_t third = v.size() / 3;
  std::vector<double> tails;
  for (size_t i = 0; i < 3; ++i) {
    const std::vector<double> part(v.begin() + i * third,
                                   v.begin() + (i + 1) * third);
    tails.push_back(Percentile(part, TailQuantile(part.size())));
  }
  return Median(tails);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t CounterValue(const char* name) {
  return iq::MetricsRegistry::Global().GetCounter(name)->value();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Host calibration: a fixed pure-compute loop at one and two threads. A host
// whose two-thread scaling drops is visible here instead of being read as a
// change in the code.

std::atomic<uint64_t> g_spin_sink{0};

/// The loop has the shape of the ESE scan: score the rows of a small,
/// cache-resident structure-of-arrays block under a weight vector and count
/// the rows below their threshold, pass after pass with fresh weights.
/// Throughput-bound like the scan, so it slows when the scan would.
void Spin() {
  constexpr int kRows = 4096;
  static const std::vector<double> block = [] {
    Rng rng(7);
    return rng.UniformVector(4 * kRows, 0.0, 1.0);
  }();
  const double* c0 = block.data();
  const double* c1 = c0 + kRows;
  const double* c2 = c1 + kRows;
  const double* thr = c2 + kRows;
  double w[3] = {0.3, 0.2, 0.4};
  uint64_t count = 0;
  for (int pass = 0; pass < 3000; ++pass) {
    w[pass % 3] += 1e-9;
    for (int i = 0; i < kRows; ++i) {
      const double score = c0[i] * w[0] + c1[i] * w[1] + c2[i] * w[2];
      count += score < thr[i] ? 1 : 0;
    }
  }
  g_spin_sink.fetch_add(count, std::memory_order_relaxed);
}

struct SpinResult {
  double one_ms = 0.0;
  double speedup_2t = 0.0;
};

SpinResult Calibrate() {
  std::vector<double> one, two;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t0 = Clock::now();
    Spin();
    one.push_back(Seconds(t0, Clock::now()));
    t0 = Clock::now();
    std::thread other(Spin);
    Spin();
    other.join();
    two.push_back(Seconds(t0, Clock::now()));
  }
  SpinResult r;
  r.one_ms = Median(one) * 1e3;
  r.speedup_2t = 2.0 * Median(one) / Median(two);
  return r;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Info(const std::string& line) { std::printf("# %s\n", line.c_str()); }
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    std::printf("%-40s %16.6f %-8s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    metrics_.push_back({name, value, unit});
  }

  /// The final line, carrying the metrics named in `names` (each must have
  /// been added; a missing one is a benchmark bug and fails the run).
  bool PrintJson(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<const char*>& names) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < names.size(); ++i) {
      const Metric* m = Find(names[i]);
      if (m == nullptr) {
        std::fprintf(stderr, "metric %s was not measured\n", names[i]);
        return false;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", m->value);
      out += i == 0 ? "" : ", ";
      out += "\"" + m->name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m->unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return true;
  }

 private:
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  std::vector<Metric> metrics_;
};

/// The metrics of the final line of each run; BENCHMARK.json lists the same
/// names. The other end-to-end metrics are printed above it on the
/// workloads that exercise them; README.md explains why they are not on the
/// final line.
const std::vector<const char*> kEndToEnd = {
    "setup_s",           "mincost_p95_ms",    "peak_rss_mb",
    "mincost_goal_rate", "mincost_cost_mean", "maxhit_hits_mean"};

const std::vector<const char*> kPerLayer = {
    "subdomain_index.build_s",
    "score_kernel.build_s",
    "score_kernel.rank_s",
    "rtree.bulk_load_s",
    "subdomain_index.build_other_s",
    "subdomain_index.subdomains",
    "subdomain_index.queries_per_subdomain",
    "subdomain_index.signature_members",
    "subdomain_index.bytes",
    "iq_algorithms.context_s",
    "evaluator.init_s",
    "evaluator.eval_s",
    "evaluator.calls",
    "evaluator.ns_per_call",
    "hit_solver.solve_s",
    "hit_solver.candidates",
    "iq_algorithms.select_apply_s",
    "iq_algorithms.iterations",
    "iq_algorithms.useful_eval_ratio",
    "evaluator.queries_rescored",
    "evaluator.queries_reused",
    "engine.add_object_ms",
    "engine.remove_object_ms",
    "engine.add_query_ms",
    "engine.remove_query_ms",
    "engine.apply_strategy_ms",
    "subdomain_index.clone_cow_ms",
    "score_kernel.rebuild_ms",
    "subdomain_index.cow_cells_per_write",
    "subdomain_index.reranks_per_write",
    "subdomain_index.signature_cache_ratio",
    "bloom_filter.cells_skipped_ratio",
    "thread_pool.speedup",
    "thread_pool.busy_ratio",
    "thread_pool.tasks",
    "thread_pool.queue_wait_ms",
    "host.spin_ms",
    "host.spin_speedup_2t",
    "trace.overhead_ratio",
    "trace.unaccounted_ratio",
};

/// Index shape from the public accessors: the baseline that index-shape and
/// build-pruning changes are measured against.
void ReportShape(Report& rep, const IqEngine& engine) {
  const EpochHandle snap = engine.Snapshot();
  const iq::SubdomainIndex& index = snap.index();
  rep.Add("subdomain_index.subdomains", index.num_subdomains(), "count");
  rep.Add("subdomain_index.queries_per_subdomain",
          Ratio(snap.queries().num_active(), index.num_subdomains()),
          "queries");
  rep.Add("subdomain_index.signature_members",
          static_cast<double>(index.SignatureMembers().size()), "count");
  rep.Add("subdomain_index.bytes", static_cast<double>(index.MemoryBytes()),
          "bytes");
}

void ReportSpin(Report& rep, const SpinResult& start, const SpinResult& end) {
  char note[96];
  std::snprintf(note, sizeof(note), "run start %.3f, end %.3f", start.one_ms,
                end.one_ms);
  rep.Add("host.spin_ms", (start.one_ms + end.one_ms) / 2, "ms", note);
  std::snprintf(note, sizeof(note), "run start %.3f, end %.3f",
                start.speedup_2t, end.speedup_2t);
  rep.Add("host.spin_speedup_2t", (start.speedup_2t + end.speedup_2t) / 2, "x",
          note);
}

void ReportHeader(Report& rep, const Spec& spec, uint64_t seed,
                  const char* run) {
  rep.Info(std::string(run) + " run, workload " + spec.name + ", seed " +
           std::to_string(seed) + ", n=" + std::to_string(spec.n) +
           ", m=" + std::to_string(spec.m) + ", serial engine, one closed-loop "
           "caller");
}

/// A few MinCost calls before anything is timed, so lazy set-up (metric
/// registration, first-touch allocations) is not billed to the first call.
void WarmUp(const Spec& spec, const Inputs& in, uint64_t seed,
            const IqEngine& engine) {
  OpStream warm(spec, in, SubSeed(seed, 9));
  for (int i = 0; i < 4; ++i) {
    (void)Read(engine, warm.NextRead(OpKind::kMinCost));
  }
}

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Fail(Report& rep, const std::string& what) {
    ++failed;
    if (failed <= 20) rep.Info("FAILED: " + what);
  }
};

/// After churn: the index passes its deep validation and every superseded
/// epoch has retired (no pins are held here).
bool CheckAfterChurn(Report& rep, Tally& tally, const IqEngine& engine) {
  ++tally.attempted;
  const Status st = engine.CheckInvariants();
  const int64_t live =
      iq::MetricsRegistry::Global().GetGauge("iq.index.epochs_live")->value();
  if (st.ok() && live == 1) return true;
  tally.Fail(rep, "after churn: CheckInvariants " + st.ToString() +
                      ", epochs_live " + std::to_string(live));
  return false;
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0)

/// Answer quality over a fixed prefix of the read sequence, so it repeats
/// exactly at a fixed seed however fast the calls run.
struct Quality {
  int mincost_quota = 0;
  int maxhit_quota = 0;
  int mincost = 0;
  int reached = 0;
  double cost_sum = 0.0;
  int maxhit = 0;
  double hits_sum = 0.0;

  void Add(const Op& op, const IqResult& r) {
    if (op.kind == OpKind::kMinCost && mincost < mincost_quota) {
      ++mincost;
      if (r.reached_goal) {
        ++reached;
        cost_sum += r.cost;
      }
    } else if (op.kind == OpKind::kMaxHit && maxhit < maxhit_quota) {
      ++maxhit;
      hits_sum += r.hits_after;
    }
  }
  /// Whether the timed loop may stop. A loop without MaxHit calls
  /// (build_ac) makes its MaxHit quality calls after the loop.
  bool Done(Mix mix) const {
    return mincost >= mincost_quota &&
           (mix == Mix::kMinCostOnly || maxhit >= maxhit_quota);
  }
};


int RunEndToEnd(const Spec& spec, uint64_t seed, double seconds) {
  Report rep;
  Tally tally;
  ReportHeader(rep, spec, seed, "end-to-end");
  const SpinResult spin_start = Calibrate();
  const Inputs in = MakeInputs(spec, seed);
  // setup_s is the median of kRepeats Creates spread over the run: the first
  // builds the engine the loop runs on, and one more is built, timed and
  // dropped at each further kRepeats-th of the timed calls. So the median
  // samples the host across the whole run, not one moment of it.
  std::vector<double> creates;
  auto create = [&]() -> std::optional<IqEngine> {
    double s = 0.0;
    Result<IqEngine> e = Create(in, 0, &s);
    if (!e.ok()) {
      std::fprintf(stderr, "IqEngine::Create: %s\n",
                   e.status().ToString().c_str());
      return std::nullopt;
    }
    creates.push_back(s);
    return std::move(e).value();
  };
  std::optional<IqEngine> engine = create();
  if (!engine) return 1;
  ReportShape(rep, *engine);
  WarmUp(spec, in, seed, *engine);

  OpStream ops(spec, in, SubSeed(seed, 3));
  Quality quality;
  quality.mincost_quota = spec.mincost_quality;
  quality.maxhit_quota = kGrid * kGrid;
  std::vector<double> lat[kNumOpKinds];
  double busy_s = 0.0;  // Σ timed operation walls: the measured window
  int64_t reads = 0;
  int checks = 0;
  // Every kStride-th read is checked, up to spec.oracle_checks of them,
  // after its call returned and outside the timed window.
  constexpr int kStride = 5;
  auto check = [&](const EpochHandle& snap, const Op& op, const IqResult& r) {
    ++checks;
    ++tally.attempted;
    const std::string why = OracleDisagreement(snap, op, r);
    if (!why.empty()) tally.Fail(rep, "oracle: " + Describe(op) + ": " + why);
  };

  // The further Creates, due at busy_s = i * seconds / kRepeats.
  auto setup_due = [&] {
    return static_cast<int>(creates.size()) < kRepeats &&
           busy_s >= static_cast<double>(creates.size()) * seconds / kRepeats;
  };
  while (!quality.Done(spec.mix) || busy_s < seconds) {
    if (setup_due() && !create()) return 1;
    const Op op = ops.Next();
    ++tally.attempted;
    if (IsRead(op.kind)) {
      const EpochHandle snap = engine->Snapshot();
      const Clock::time_point t0 = Clock::now();
      Result<IqResult> r = Read(*engine, op);
      const double dt = Seconds(t0, Clock::now());
      busy_s += dt;
      const bool sampled = reads++ % kStride == 0;
      if (!r.ok()) {
        tally.Fail(rep, Describe(op) + ": " + r.status().ToString());
        continue;
      }
      lat[Index(op.kind)].push_back(dt * 1e3);
      quality.Add(op, *r);
      if (sampled && checks < spec.oracle_checks) check(snap, op, *r);
    } else {
      const Clock::time_point t0 = Clock::now();
      Result<int> id = Write(*engine, op);
      const double dt = Seconds(t0, Clock::now());
      busy_s += dt;
      if (!id.ok()) {
        tally.Fail(rep, Describe(op) + ": " + id.status().ToString());
        continue;
      }
      ops.Applied(op, *id);
      lat[Index(op.kind)].push_back(dt * 1e3);
    }
  }
  while (static_cast<int>(creates.size()) < kRepeats) {
    if (!create()) return 1;
  }
  // The MaxHit quality calls the loop did not make (build_ac), outside the
  // timed window: counted and sampled for the oracle like the loop's reads,
  // but not timed.
  for (int i = 0; quality.maxhit < quality.maxhit_quota; ++i) {
    const Op op = ops.NextRead(OpKind::kMaxHit);
    ++tally.attempted;
    const EpochHandle snap = engine->Snapshot();
    Result<IqResult> r = Read(*engine, op);
    if (!r.ok()) {
      tally.Fail(rep, Describe(op) + ": " + r.status().ToString());
      break;
    }
    quality.Add(op, *r);
    if (i % kStride == 0 && i / kStride < spec.oracle_checks) {
      check(snap, op, *r);
    }
  }
  const bool invariants_ok =
      spec.mix != Mix::kChurn || CheckAfterChurn(rep, tally, *engine);
  const SpinResult spin_end = Calibrate();

  char note[160];
  std::string all;
  for (double c : creates) {
    std::snprintf(note, sizeof(note), " %.4f", c);
    all += note;
  }
  std::snprintf(note, sizeof(note),
                "median of %d IqEngine::Create over the run:%s", kRepeats,
                all.c_str());
  rep.Add("setup_s", Median(creates), "s", note);

  std::vector<double> writes;
  for (int k = 0; k < kNumOpKinds; ++k) {
    if (!IsRead(static_cast<OpKind>(k))) {
      writes.insert(writes.end(), lat[k].begin(), lat[k].end());
    }
  }
  auto latency = [&](const char* prefix, const std::vector<double>& v) {
    if (v.empty()) return;
    const size_t third = v.size() / 3;
    std::snprintf(note, sizeof(note), "n=%zu", v.size());
    rep.Add(std::string(prefix) + "_p10_ms", Percentile(v, 0.1), "ms", note);
    rep.Add(std::string(prefix) + "_p50_ms", Percentile(v, 0.5), "ms", note);
    std::snprintf(note, sizeof(note),
                  "median over thirds of p%.1f of n=%zu (%.0f beyond); "
                  "max %.1f",
                  TailQuantile(third) * 100, third,
                  std::floor((1.0 - TailQuantile(third)) * third),
                  Percentile(v, 1.0));
    rep.Add(std::string(prefix) + "_p95_ms", Tail(v), "ms", note);
  };
  latency("mincost", lat[Index(OpKind::kMinCost)]);
  latency("maxhit", lat[Index(OpKind::kMaxHit)]);
  latency("write", writes);
  std::snprintf(note, sizeof(note), "%lld reads in %.3f s of timed calls",
                static_cast<long long>(reads), busy_s);
  rep.Add("solves_per_s", Ratio(static_cast<double>(reads), busy_s), "1/s",
          note);
  rep.Add("peak_rss_mb", PeakRssMb(), "MB");
  std::snprintf(note, sizeof(note), "%lld failed of %lld attempted",
                static_cast<long long>(tally.failed),
                static_cast<long long>(tally.attempted));
  rep.Add("error_rate",
          Ratio(static_cast<double>(tally.failed),
                static_cast<double>(tally.attempted)),
          "fraction", note);
  std::snprintf(note, sizeof(note), "first %d MinCost calls", quality.mincost);
  rep.Add("mincost_goal_rate", Ratio(quality.reached, quality.mincost),
          "fraction", note);
  rep.Add("mincost_cost_mean", Ratio(quality.cost_sum, quality.reached),
          "cost", note);
  if (quality.maxhit > 0) {
    std::snprintf(note, sizeof(note), "first %d MaxHit calls", quality.maxhit);
    rep.Add("maxhit_hits_mean", Ratio(quality.hits_sum, quality.maxhit),
            "hits", note);
  }
  ReportSpin(rep, spin_start, spin_end);
  std::snprintf(note, sizeof(note), "%d answers checked against the oracle",
                checks);
  rep.Info(note);
  return rep.PrintJson(tally.failed == 0 && invariants_ok, tally.attempted,
                       tally.failed, kEndToEnd)
             ? 0
             : 1;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)

/// Forwarding StrategyEvaluator that times every HitsForCoeffs call of the
/// wrapped evaluator. Back-to-back calls (one candidate-evaluation loop) are
/// coalesced into one "evaluator.eval" span, so the log stays small while
/// covering every call. The counters mirror the wrapped evaluator's, so the
/// search's EvalBreakdown, and with it the IqResult bytes, are unchanged.
class TimedEvaluator : public iq::StrategyEvaluator {
 public:
  TimedEvaluator(iq::StrategyEvaluator* inner, SpanLog* log, uint32_t parent,
                 uint32_t trace)
      : inner_(inner), log_(log), parent_(parent), trace_(trace) {
    Mirror();
  }

  int HitsForCoeffs(const Vec& c) override {
    const Clock::time_point t0 = Clock::now();
    const int hits = inner_->HitsForCoeffs(c);
    const Clock::time_point t1 = Clock::now();
    Mirror();
    if (run_calls_ == 0 || t0 - run_end_ > kGap) {
      Flush();
      run_start_ = t0;
    }
    run_end_ = t1;
    ++run_calls_;
    return hits;
  }
  int base_hits() const override { return inner_->base_hits(); }
  const char* name() const override { return inner_->name(); }

  /// Closes the open run of calls as a span.
  void Flush() {
    if (run_calls_ == 0) return;
    log_->Add("evaluator.eval", parent_, trace_, run_start_, run_end_,
              run_calls_);
    run_calls_ = 0;
  }

 private:
  static constexpr std::chrono::microseconds kGap{2};

  void Mirror() {
    calls_.store(inner_->calls(), std::memory_order_relaxed);
    queries_rescored_.store(inner_->queries_rescored(),
                            std::memory_order_relaxed);
    queries_reused_.store(inner_->queries_reused(), std::memory_order_relaxed);
  }

  iq::StrategyEvaluator* inner_;
  SpanLog* log_;
  uint32_t parent_;
  uint32_t trace_;
  Clock::time_point run_start_;
  Clock::time_point run_end_;
  int64_t run_calls_ = 0;
};

/// Totals over the replayed reads.
struct SearchTotals {
  double engine_s = 0.0;  // untraced engine calls
  double replay_s = 0.0;  // traced replays of the same reads
  double solver_s = 0.0;  // Σ EvalBreakdown.solver_seconds
  uint64_t candidates = 0;
  uint64_t evaluated = 0;
  uint64_t iterations = 0;
  uint64_t calls = 0;
  uint64_t rescored = 0;
  uint64_t reused = 0;
  int reads = 0;
};

/// One read replayed on a pinned epoch through the layer functions, each
/// call inside its own span; one trace id per read.
Result<IqResult> TracedSolve(const EpochHandle& snap, const Op& op,
                             SpanLog& log, SearchTotals& totals) {
  const uint32_t trace = log.NewTrace();
  const uint32_t root = log.Begin(
      op.kind == OpKind::kMinCost ? "solve.min_cost" : "solve.max_hit", 0,
      trace);
  uint32_t span = log.Begin("iq_algorithms.context", root, trace);
  Result<iq::IqContext> ctx =
      iq::IqContext::FromIndex(snap.index_ptr(), op.target);
  log.End(span);
  Result<IqResult> r = Status::Internal("no context");
  if (ctx.ok()) {
    span = log.Begin("evaluator.init", root, trace);
    iq::EseEvaluator ese(snap.index_ptr(), op.target);
    log.End(span);
    span = log.Begin("iq_algorithms.search", root, trace);
    TimedEvaluator timed(&ese, &log, span, trace);
    r = Search(op, *ctx, &timed);
    timed.Flush();
    log.End(span);
  } else {
    r = ctx.status();
  }
  log.End(root);
  totals.replay_s += Seconds(log.at(root).start, log.at(root).end);
  ++totals.reads;
  if (r.ok()) {
    const iq::EvalBreakdown& b = r->breakdown;
    totals.solver_s += b.solver_seconds;
    totals.candidates += b.candidates_generated;
    totals.evaluated += b.candidates_evaluated;
    totals.iterations += static_cast<uint64_t>(b.iterations);
    totals.calls += b.evaluator_calls;
    totals.rescored += b.queries_rescored;
    totals.reused += b.queries_reused;
  }
  return r;
}

/// The index-maintenance counters a write moves (iq.index.*).
struct IndexCounters {
  uint64_t cow = 0;
  uint64_t reranks = 0;
  uint64_t cache_hits = 0;
  uint64_t visited = 0;
  uint64_t skipped = 0;

  static IndexCounters Read() {
    IndexCounters c;
    c.cow = CounterValue("iq.index.cow_cells_cloned");
    c.reranks = CounterValue("iq.index.full_reranks");
    c.cache_hits = CounterValue("iq.index.signature_cache_hits");
    c.visited = CounterValue("iq.index.cells_visited");
    c.skipped = CounterValue("iq.index.cells_skipped");
    return c;
  }
  void AddDelta(const IndexCounters& before, const IndexCounters& after) {
    cow += after.cow - before.cow;
    reranks += after.reranks - before.reranks;
    cache_hits += after.cache_hits - before.cache_hits;
    visited += after.visited - before.visited;
    skipped += after.skipped - before.skipped;
  }
};

struct WriteTotals {
  std::vector<double> ms[kNumOpKinds];
  IndexCounters deltas;
  int writes = 0;
};

const char* WriteSpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kAddObject: return "engine.add_object";
    case OpKind::kRemoveObject: return "engine.remove_object";
    case OpKind::kAddQuery: return "engine.add_query";
    case OpKind::kRemoveQuery: return "engine.remove_query";
    default: return "engine.apply_strategy";
  }
}

Result<int> TracedWrite(IqEngine& engine, const Op& op, SpanLog& log,
                        WriteTotals& totals) {
  const IndexCounters before = IndexCounters::Read();
  const Clock::time_point t0 = Clock::now();
  Result<int> id = Write(engine, op);
  const Clock::time_point t1 = Clock::now();
  totals.deltas.AddDelta(before, IndexCounters::Read());
  log.Add(WriteSpanName(op.kind), 0, log.NewTrace(), t0, t1);
  totals.ms[Index(op.kind)].push_back(Seconds(t0, t1) * 1e3);
  ++totals.writes;
  return id;
}

struct BuildLayers {
  std::vector<double> build, kernel, rank, rtree;
  std::vector<double> other;  // per replay: build minus the three layers
};

/// Replays the index build on the engine's own view and queries: the whole
/// SubdomainIndex::Build, then each of its layers called on its own.
Status ReplayBuild(const EpochHandle& snap, SpanLog& log, BuildLayers& out) {
  const iq::FunctionView& view = snap.view();
  const iq::QuerySet& queries = snap.queries();
  const int slots = view.num_slots();
  std::vector<bool> object_mask(static_cast<size_t>(view.dataset().size()));
  for (int i = 0; i < view.dataset().size(); ++i) {
    object_mask[static_cast<size_t>(i)] = view.dataset().is_active(i);
  }
  const uint32_t trace = log.NewTrace();
  const uint32_t root = log.Begin("build_replay", 0, trace);

  Clock::time_point t0 = Clock::now();
  Result<iq::SubdomainIndex> index =
      iq::SubdomainIndex::Build(snap.view_ptr(), snap.queries_ptr());
  Clock::time_point t1 = Clock::now();
  log.Add("subdomain_index.build", root, trace, t0, t1);
  out.build.push_back(Seconds(t0, t1));
  if (!index.ok()) {
    log.End(root);
    return index.status();
  }
  std::vector<Vec> aug(static_cast<size_t>(queries.size()));
  std::vector<bool> query_mask(aug.size(), false);
  std::vector<Vec> points;
  std::vector<int> ids;
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    aug[static_cast<size_t>(q)] = index->aug_weights(q);
    query_mask[static_cast<size_t>(q)] = true;
    points.push_back(index->aug_weights(q));
    ids.push_back(q);
  }

  t0 = Clock::now();
  const iq::ScoreKernel objects =
      iq::ScoreKernel::Build(view.rows(), &object_mask, slots);
  const iq::ScoreKernel query_kernel =
      iq::ScoreKernel::Build(aug, &query_mask, slots);
  t1 = Clock::now();
  log.Add("score_kernel.build", root, trace, t0, t1, query_kernel.num_rows());
  out.kernel.push_back(Seconds(t0, t1));

  t0 = Clock::now();
  std::vector<double> scratch;
  size_t members = 0;
  for (const Vec& w : points) {
    members += objects.TopKappaSignature(w, index->kappa(), &scratch).size();
  }
  t1 = Clock::now();
  log.Add("score_kernel.rank", root, trace, t0, t1,
          static_cast<int64_t>(members));
  out.rank.push_back(Seconds(t0, t1));

  t0 = Clock::now();
  const iq::RTree tree = iq::RTree::BulkLoad(slots, points, ids);
  t1 = Clock::now();
  log.Add("rtree.bulk_load", root, trace, t0, t1,
          static_cast<int64_t>(points.size()));
  out.rtree.push_back(Seconds(t0, t1));
  out.other.push_back(out.build.back() - out.kernel.back() - out.rank.back() -
                      out.rtree.back());
  log.End(root);
  return Status::Ok();
}

int RunTraced(const Spec& spec, uint64_t seed, const std::string& trace_out) {
  Report rep;
  Tally tally;
  SpanLog log;
  ReportHeader(rep, spec, seed, "traced");
  const SpinResult spin_start = Calibrate();
  const Inputs in = MakeInputs(spec, seed);
  // The workload's serial engine, and a two-thread partner on the same
  // inputs for the pool probe, dropped after it.
  double create_s = 0.0;
  Result<IqEngine> made = Create(in, 0, &create_s);
  Result<IqEngine> made_pooled = Create(in, 2, &create_s);
  if (!made.ok() || !made_pooled.ok()) {
    std::fprintf(stderr, "IqEngine::Create failed\n");
    return 1;
  }
  IqEngine& engine = *made;
  std::optional<IqEngine> pooled_engine(std::move(made_pooled).value());
  ReportShape(rep, engine);
  WarmUp(spec, in, seed, engine);
  WarmUp(spec, in, seed, *pooled_engine);

  // ---- build layers, on the initial epoch
  BuildLayers build;
  for (int i = 0; i < kRepeats; ++i) {
    const Status st = ReplayBuild(engine.Snapshot(), log, build);
    ++tally.attempted;
    if (!st.ok()) tally.Fail(rep, "build replay: " + st.ToString());
  }

  // ---- pool probe: the same batch through SolveBatch serial and on two
  // threads, in ABBA order.
  double serial_wall = 0.0, pooled_wall = 0.0, pooled_item_s = 0.0;
  const uint64_t tasks0 = CounterValue("iq.pool.tasks");
  iq::Histogram* queue_wait =
      iq::MetricsRegistry::Global().GetHistogram("iq.pool.queue_wait_nanos");
  const uint64_t wait0 = queue_wait->sum();
  {
    OpStream probe_ops(spec, in, SubSeed(seed, 4));
    std::vector<BatchItem> items;
    for (int i = 0; i < spec.probe_items; ++i) {
      items.push_back(ToItem(probe_ops.NextRead()));
    }
    std::vector<IqResult> reference;
    for (int pass = 0; pass < 4; ++pass) {
      const bool pooled = pass == 1 || pass == 2;
      const IqEngine& e = pooled ? *pooled_engine : engine;
      const uint32_t trace = log.NewTrace();
      const Clock::time_point t0 = Clock::now();
      Result<std::vector<IqResult>> rs = e.SolveBatch(items);
      const Clock::time_point t1 = Clock::now();
      log.Add(pooled ? "thread_pool.batch_2t" : "thread_pool.batch_serial", 0,
              trace, t0, t1, static_cast<int64_t>(items.size()));
      tally.attempted += static_cast<int64_t>(items.size());
      if (!rs.ok()) {
        tally.Fail(rep, "pool probe: " + rs.status().ToString());
        continue;
      }
      (pooled ? pooled_wall : serial_wall) += Seconds(t0, t1);
      for (size_t i = 0; i < rs->size(); ++i) {
        if (pooled) pooled_item_s += (*rs)[i].seconds;
        if (reference.size() < rs->size()) {
          reference.push_back((*rs)[i]);
        } else if (!SameBytes(reference[i], (*rs)[i])) {
          tally.Fail(rep, "pool probe: item " + std::to_string(i) +
                              " differs between serial and 2-thread");
        }
      }
    }
  }
  const uint64_t tasks = CounterValue("iq.pool.tasks") - tasks0;
  const uint64_t wait_ns = queue_wait->sum() - wait0;
  pooled_engine.reset();

  // ---- reads (and, for churn_co, writes) of the workload's own sequence:
  // each read runs untraced on the engine and traced through the layers, in
  // alternating order, and the two answers must be byte-identical.
  SearchTotals search;
  WriteTotals writes;
  OpStream ops(spec, in, SubSeed(seed, 3));
  while (search.reads < spec.replay_reads) {
    const Op op = ops.Next();
    ++tally.attempted;
    if (!IsRead(op.kind)) {
      Result<int> id = TracedWrite(engine, op, log, writes);
      if (!id.ok()) {
        tally.Fail(rep, Describe(op) + ": " + id.status().ToString());
      } else {
        ops.Applied(op, *id);
      }
      continue;
    }
    const EpochHandle snap = engine.Snapshot();
    Result<IqResult> untraced = Status::Internal("not run");
    auto run_untraced = [&] {
      const Clock::time_point t0 = Clock::now();
      untraced = Read(engine, op);
      search.engine_s += Seconds(t0, Clock::now());
    };
    const bool untraced_first = search.reads % 2 == 0;
    if (untraced_first) run_untraced();
    const Result<IqResult> traced = TracedSolve(snap, op, log, search);
    if (!untraced_first) run_untraced();
    if (!untraced.ok() || !traced.ok()) {
      tally.Fail(rep, Describe(op) + ": " +
                          (untraced.ok() ? traced : untraced)
                              .status()
                              .ToString());
    } else if (!SameBytes(*untraced, *traced)) {
      tally.Fail(rep,
                 "traced replay differs from the engine: " + Describe(op));
    }
  }

  // ---- write probe: workloads whose sequence has no writes still measure
  // the writer layer, on their own index, after everything above.
  if (spec.mix != Mix::kChurn) {
    static constexpr OpKind kWriters[] = {
        OpKind::kAddObject, OpKind::kRemoveObject, OpKind::kAddQuery,
        OpKind::kRemoveQuery, OpKind::kApplyStrategy};
    for (int round = 0; round < 3; ++round) {
      for (OpKind kind : kWriters) {
        const Op op = ops.NextWrite(kind);
        ++tally.attempted;
        Result<int> id = TracedWrite(engine, op, log, writes);
        if (!id.ok()) {
          tally.Fail(rep, Describe(op) + ": " + id.status().ToString());
        } else {
          ops.Applied(op, *id);
        }
      }
    }
  }

  // ---- fixed publish costs, replayed on a standalone clone of the index
  std::vector<double> clone_ms, rebuild_ms;
  {
    const EpochHandle snap = engine.Snapshot();
    for (int i = 0; i < kRepeats; ++i) {
      const uint32_t trace = log.NewTrace();
      const Clock::time_point t0 = Clock::now();
      iq::SubdomainIndex clone = snap.index().CloneCow(
          snap.view_ptr(), snap.queries_ptr(), snap.epoch() + 1);
      const Clock::time_point t1 = Clock::now();
      clone.RebuildScoreKernels();
      const Clock::time_point t2 = Clock::now();
      log.Add("subdomain_index.clone_cow", 0, trace, t0, t1);
      log.Add("score_kernel.rebuild", 0, trace, t1, t2);
      clone_ms.push_back(Seconds(t0, t1) * 1e3);
      rebuild_ms.push_back(Seconds(t1, t2) * 1e3);
    }
  }
  if (spec.mix == Mix::kChurn) CheckAfterChurn(rep, tally, engine);
  const SpinResult spin_end = Calibrate();

  // ---- report
  char note[160];
  rep.Info("build replay: median of " + std::to_string(kRepeats) +
           ", single-threaded");
  rep.Add("subdomain_index.build_s", Median(build.build), "s",
          "SubdomainIndex::Build");
  rep.Add("score_kernel.build_s", Median(build.kernel), "s",
          "object + query kernels");
  rep.Add("score_kernel.rank_s", Median(build.rank), "s",
          "TopKappaSignature per query");
  rep.Add("rtree.bulk_load_s", Median(build.rtree), "s");
  rep.Add("subdomain_index.build_other_s", Median(build.other), "s",
          "build minus the three, per replay");

  const std::map<std::string, double> self = log.SelfSeconds();
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double context_s = self_of("iq_algorithms.context");
  const double init_s = self_of("evaluator.init");
  const double eval_s = self_of("evaluator.eval");
  const double search_self_s = self_of("iq_algorithms.search");
  std::snprintf(note, sizeof(note),
                "%d reads replayed; untraced %.3f s, traced %.3f s",
                search.reads, search.engine_s, search.replay_s);
  rep.Info(note);
  rep.Add("iq_algorithms.context_s", context_s, "s", "IqContext::FromIndex");
  rep.Add("evaluator.init_s", init_s, "s", "EseEvaluator construction");
  rep.Add("evaluator.eval_s", eval_s, "s", "HitsForCoeffs spans");
  rep.Add("evaluator.calls", static_cast<double>(search.calls), "count");
  rep.Add("evaluator.ns_per_call", Ratio(eval_s * 1e9, search.calls), "ns");
  rep.Add("hit_solver.solve_s", search.solver_s, "s",
          "EvalBreakdown.solver_seconds");
  rep.Add("hit_solver.candidates", static_cast<double>(search.candidates),
          "count");
  rep.Add("iq_algorithms.select_apply_s", search_self_s - search.solver_s, "s",
          "search self time minus solver");
  rep.Add("iq_algorithms.iterations", static_cast<double>(search.iterations),
          "count");
  rep.Add("iq_algorithms.useful_eval_ratio",
          Ratio(search.iterations, search.evaluated), "ratio",
          "iterations / candidates evaluated");
  rep.Add("evaluator.queries_rescored", static_cast<double>(search.rescored),
          "count");
  rep.Add("evaluator.queries_reused", static_cast<double>(search.reused),
          "count");

  std::snprintf(note, sizeof(note), "%d writes%s", writes.writes,
                spec.mix == Mix::kChurn ? "" : " (write probe)");
  rep.Info(note);
  for (OpKind kind : {OpKind::kAddObject, OpKind::kRemoveObject,
                      OpKind::kAddQuery, OpKind::kRemoveQuery,
                      OpKind::kApplyStrategy}) {
    const std::vector<double>& v = writes.ms[Index(kind)];
    std::snprintf(note, sizeof(note), "median of %zu", v.size());
    rep.Add(std::string(WriteSpanName(kind)) + "_ms", Median(v), "ms", note);
  }
  std::snprintf(note, sizeof(note), "median of %d, standalone CloneCow",
                kRepeats);
  rep.Add("subdomain_index.clone_cow_ms", Median(clone_ms), "ms", note);
  std::snprintf(note, sizeof(note), "median of %d, RebuildScoreKernels",
                kRepeats);
  rep.Add("score_kernel.rebuild_ms", Median(rebuild_ms), "ms", note);
  const IndexCounters& d = writes.deltas;
  rep.Add("subdomain_index.cow_cells_per_write", Ratio(d.cow, writes.writes),
          "count");
  rep.Add("subdomain_index.reranks_per_write",
          Ratio(d.reranks, writes.writes), "count");
  rep.Add("subdomain_index.signature_cache_ratio",
          Ratio(d.cache_hits, d.cache_hits + d.reranks), "ratio");
  rep.Add("bloom_filter.cells_skipped_ratio",
          Ratio(d.skipped, d.visited + d.skipped), "ratio");

  std::snprintf(note, sizeof(note),
                "%d-item batch x2: serial %.3f s, 2 threads %.3f s",
                spec.probe_items, serial_wall, pooled_wall);
  rep.Info("pool probe: " + std::string(note));
  rep.Add("thread_pool.speedup", Ratio(serial_wall, pooled_wall), "x");
  rep.Add("thread_pool.busy_ratio", Ratio(pooled_item_s, 2 * pooled_wall),
          "ratio");
  rep.Add("thread_pool.tasks", tasks / 2.0, "count", "per 2-thread batch");
  rep.Add("thread_pool.queue_wait_ms", wait_ns / 2e6, "ms",
          "per 2-thread batch");
  ReportSpin(rep, spin_start, spin_end);
  rep.Add("trace.overhead_ratio", Ratio(search.replay_s, search.engine_s) - 1,
          "ratio", "traced replay / untraced engine - 1");
  rep.Add("trace.unaccounted_ratio",
          1 - Ratio(context_s + init_s + eval_s + search_self_s,
                    search.engine_s),
          "ratio", "engine time not covered by layer self times");

  if (!log.WriteChromeJson(trace_out)) {
    tally.Fail(rep, "could not write " + trace_out);
  } else {
    rep.Info("spans: " + std::to_string(log.size()) + " written to " +
             trace_out);
  }
  return rep.PrintJson(tally.failed == 0, tally.attempted, tally.failed,
                       kPerLayer)
             ? 0
             : 1;
}

}  // namespace
}  // namespace iqbench

int main(int argc, char** argv) {
  using namespace iqbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--trace-out") {
      trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (trace != 0 && trace_out.empty()) {
    std::fprintf(stderr, "--trace 1 needs --trace-out <chrome-trace.json>\n");
    return 2;
  }
  for (const Spec& spec : kSpecs) {
    if (workload != spec.name) continue;
    return trace != 0 ? RunTraced(spec, seed, trace_out)
                      : RunEndToEnd(spec, seed, seconds);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
