#ifndef IQ_CORE_IQ_ALGORITHMS_H_
#define IQ_CORE_IQ_ALGORITHMS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/evaluator.h"
#include "core/subdomain_index.h"
#include "opt/bounds.h"
#include "opt/cost.h"
#include "opt/hit_solver.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace iq {

/// Options shared by every IQ scheme.
struct IqOptions {
  /// The query issuer's cost model (paper default: Eq. 30, L2).
  CostFunction cost = CostFunction::L2();
  /// Validity bounds on the strategy; unset = unbounded.
  std::optional<AdjustBox> box;
  /// Relative slack enforcing the strict inequality of Eq. 6.
  double hit_margin = 1e-7;
  /// 0 = automatic (4*tau + 16 for Min-Cost; unbounded-ish for Max-Hit).
  int max_iterations = 0;
  /// Per iteration, evaluate H(p'+s_j) only for the `candidate_eval_limit`
  /// cheapest candidate steps (0 = all, the paper's literal Algorithm 3/4).
  /// The best cost-per-hit candidate is almost always among the cheapest
  /// steps, so a modest limit preserves quality while bounding the work of
  /// expensive evaluators (used by the benches to keep RTA-IQ tractable;
  /// applied identically to every scheme for fairness).
  int candidate_eval_limit = 0;
  /// Sample budget of the Random baseline.
  int random_samples = 256;
  /// Discrete attributes (paper §3.1: "each dimension can be continuous or
  /// discrete"): when non-empty, the returned strategy is snapped onto the
  /// per-attribute grid (component j a multiple of granularity[j];
  /// 0 = continuous). Snapping re-evaluates honestly: hits_after /
  /// reached_goal describe the snapped strategy.
  Vec granularity;
  uint64_t seed = 1;
  /// Non-owning worker pool for the parallel execution layer (DESIGN.md §8).
  /// When set, candidate generation and (for evaluators with
  /// SupportsConcurrentEval()) candidate H-evaluation fan out over the pool
  /// with a deterministic per-candidate-slot reduction, so results are
  /// bit-identical to the null-pool serial path regardless of thread count.
  /// IqEngine wires its own pool in here (EngineOptions::num_threads);
  /// callers driving MinCostIq/MaxHitIq directly may pass any pool whose
  /// lifetime covers the call.
  ThreadPool* pool = nullptr;
};

/// Explain-style per-call breakdown of where an IQ search spent its work.
/// Filled by every scheme; the global metrics registry (src/obs/) aggregates
/// the same quantities across calls under iq.search.* / iq.ese.*.
struct EvalBreakdown {
  int iterations = 0;
  /// Candidate steps produced by the per-query cost solver (Eq. 13-14).
  size_t candidates_generated = 0;
  /// Candidates whose H(p'+s) was actually evaluated (after the optional
  /// candidate_eval_limit pruning).
  size_t candidates_evaluated = 0;
  size_t evaluator_calls = 0;
  /// Per-query work inside the evaluator: rescored = hit state recomputed,
  /// reused = cached hit state kept (nonzero only on the ESE wedge path).
  size_t queries_rescored = 0;
  size_t queries_reused = 0;
  /// Time inside the candidate cost solver vs. inside H evaluation.
  double solver_seconds = 0.0;
  double eval_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Outcome of one improvement query.
struct IqResult {
  /// The improvement strategy s (total adjustment from the original object).
  Vec strategy;
  /// Cost_p(strategy) under the original object.
  double cost = 0.0;
  int hits_before = 0;
  int hits_after = 0;
  /// Min-Cost: hits_after >= tau. Max-Hit: always true (budget respected).
  bool reached_goal = false;
  int iterations = 0;
  size_t evaluator_calls = 0;
  double seconds = 0.0;
  EvalBreakdown breakdown;
};

/// Per-target workload context shared by all schemes: augmented weights,
/// hit thresholds t_q, and the single-constraint candidate solver
/// (Eq. 13-14). Thresholds come for free from a subdomain index; the
/// index-free constructor computes them with full scans (which is exactly
/// the extra cost the baselines pay).
class IqContext {
 public:
  static Result<IqContext> FromIndex(const SubdomainIndex* index, int target);
  static Result<IqContext> FromView(const FunctionView* view,
                                    const QuerySet* queries, int target);

  const FunctionView& view() const { return *view_; }
  const QuerySet& queries() const { return *queries_; }
  int target() const { return target_; }
  const std::vector<double>& thresholds() const { return thresholds_; }
  const Vec& aug_w(int q) const { return aug_w_[static_cast<size_t>(q)]; }

  /// True when query q is hit by the improved coefficient vector c.
  bool HitBy(int q, const Vec& c) const;

  /// Cheapest step from `p_cur` (the target after the strategies applied so
  /// far) that makes the object hit query q; bounds are enforced on the
  /// cumulative strategy `s_total + step`. Closed-form for linear utilities,
  /// sequential-linearization (+ penalty fallback) otherwise. Fails when q
  /// cannot be hit within the bounds.
  Result<HitSolution> SolveCandidate(int q, const Vec& p_cur,
                                     const Vec& s_total,
                                     const IqOptions& options) const;

 private:
  IqContext() = default;

  const FunctionView* view_ = nullptr;
  const QuerySet* queries_ = nullptr;
  int target_ = -1;
  std::vector<double> thresholds_;
  std::vector<Vec> aug_w_;
};

/// Algorithm 3: greedy best cost-per-hit search for the Min-Cost IQ.
Result<IqResult> MinCostIq(const IqContext& ctx, StrategyEvaluator* evaluator,
                           int tau, const IqOptions& options = {});

/// Algorithm 4: budgeted best cost-per-hit search for the Max-Hit IQ.
Result<IqResult> MaxHitIq(const IqContext& ctx, StrategyEvaluator* evaluator,
                          double beta, const IqOptions& options = {});

/// "Greedy" baseline (§6.1): repeatedly hit the single cheapest query,
/// ignoring the cost-per-hit ratio.
Result<IqResult> GreedyMinCost(const IqContext& ctx,
                               StrategyEvaluator* evaluator, int tau,
                               const IqOptions& options = {});
Result<IqResult> GreedyMaxHit(const IqContext& ctx,
                              StrategyEvaluator* evaluator, double beta,
                              const IqOptions& options = {});

/// "Random" baseline (§6.1): sample strategies until the goal is satisfied.
Result<IqResult> RandomMinCost(const IqContext& ctx,
                               StrategyEvaluator* evaluator, int tau,
                               const IqOptions& options = {});
Result<IqResult> RandomMaxHit(const IqContext& ctx,
                              StrategyEvaluator* evaluator, double beta,
                              const IqOptions& options = {});

}  // namespace iq

#endif  // IQ_CORE_IQ_ALGORITHMS_H_
