#include "core/iq_algorithms.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topk/topk.h"
#include "util/check.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace iq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<bool> BuildActiveMask(const Dataset& data) {
  std::vector<bool> mask(static_cast<size_t>(data.size()));
  for (int i = 0; i < data.size(); ++i) {
    mask[static_cast<size_t>(i)] = data.is_active(i);
  }
  return mask;
}

AdjustBox EffectiveBox(const IqOptions& options, int dim) {
  return options.box.has_value() ? *options.box : AdjustBox::Unbounded(dim);
}

/// Bounds on the *step* when `s_total` has already been applied and the box
/// constrains the cumulative strategy.
AdjustBox StepBox(const AdjustBox& total_box, const Vec& s_total) {
  AdjustBox step = total_box;
  for (int j = 0; j < step.dim(); ++j) {
    double lo = total_box.lower()[static_cast<size_t>(j)] -
                s_total[static_cast<size_t>(j)];
    double hi = total_box.upper()[static_cast<size_t>(j)] -
                s_total[static_cast<size_t>(j)];
    step.SetRange(j, lo, hi);  // lo <= 0 <= hi because s_total is in the box
  }
  return step;
}

/// One candidate: the step that hits query q, plus its evaluation.
struct Candidate {
  int q = -1;
  Vec step;
  double step_cost = 0.0;
  int hits = 0;  // H(p_cur + step)
};

/// Cached pointers into the global registry; all increments are lock-free.
struct SearchMetrics {
  Counter* iterations;            // greedy iterations across all IQ calls
  Counter* candidates_generated;  // cost-solver solutions produced
  Counter* candidates_evaluated;  // candidates whose H was computed
  Counter* parallel_solve_batches;  // candidate-solver rounds run on a pool
  Counter* parallel_eval_batches;   // H-evaluation rounds run on a pool
  Histogram* solver_nanos;        // per-iteration candidate-solver time
  Histogram* eval_nanos;          // per-iteration H-evaluation time

  static SearchMetrics& Get() {
    static SearchMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      SearchMetrics sm;
      sm.iterations = reg.GetCounter("iq.search.iterations");
      sm.candidates_generated =
          reg.GetCounter("iq.search.candidates_generated");
      sm.candidates_evaluated =
          reg.GetCounter("iq.search.candidates_evaluated");
      sm.parallel_solve_batches =
          reg.GetCounter("iq.search.parallel_solve_batches");
      sm.parallel_eval_batches =
          reg.GetCounter("iq.search.parallel_eval_batches");
      sm.solver_nanos = reg.GetHistogram("iq.search.solver_nanos");
      sm.eval_nanos = reg.GetHistogram("iq.search.eval_nanos");
      return sm;
    }();
    return m;
  }
};

}  // namespace

Result<IqContext> IqContext::FromIndex(const SubdomainIndex* index,
                                       int target) {
  // The context caches raw pointers into the index's view/queries: callers
  // must keep them stable for the context's lifetime. Engine solves do so
  // by pinning the owning epoch (IqEngine::Snapshot(), DESIGN.md §12) for
  // the whole solve; standalone callers own the index outright.
  if (index == nullptr) return Status::InvalidArgument("null index");
  const Dataset& data = index->view().dataset();
  if (target < 0 || target >= data.size() || !data.is_active(target)) {
    return Status::InvalidArgument("target is not an active object");
  }
  IqContext ctx;
  ctx.view_ = &index->view();
  ctx.queries_ = &index->queries();
  ctx.target_ = target;
  ctx.thresholds_ = index->HitThresholds(target);
  ctx.aug_w_.resize(static_cast<size_t>(ctx.queries_->size()));
  for (int q = 0; q < ctx.queries_->size(); ++q) {
    if (ctx.queries_->is_active(q)) {
      ctx.aug_w_[static_cast<size_t>(q)] = index->aug_weights(q);
    }
  }
  return ctx;
}

Result<IqContext> IqContext::FromView(const FunctionView* view,
                                      const QuerySet* queries, int target) {
  if (view == nullptr || queries == nullptr) {
    return Status::InvalidArgument("null view/queries");
  }
  const Dataset& data = view->dataset();
  if (target < 0 || target >= data.size() || !data.is_active(target)) {
    return Status::InvalidArgument("target is not an active object");
  }
  IqContext ctx;
  ctx.view_ = view;
  ctx.queries_ = queries;
  ctx.target_ = target;
  std::vector<bool> mask = BuildActiveMask(data);
  ctx.thresholds_.assign(static_cast<size_t>(queries->size()),
                         std::numeric_limits<double>::quiet_NaN());
  ctx.aug_w_.resize(static_cast<size_t>(queries->size()));
  for (int q = 0; q < queries->size(); ++q) {
    if (!queries->is_active(q)) continue;
    Vec w = view->form().AugmentWeights(queries->query(q).weights);
    ctx.thresholds_[static_cast<size_t>(q)] =
        KthBestScore(view->rows(), &mask, w, queries->query(q).k, target);
    ctx.aug_w_[static_cast<size_t>(q)] = std::move(w);
  }
  return ctx;
}

bool IqContext::HitBy(int q, const Vec& c) const {
  return HitByThreshold(Dot(c, aug_w_[static_cast<size_t>(q)]),
                        thresholds_[static_cast<size_t>(q)]);
}

Result<HitSolution> IqContext::SolveCandidate(int q, const Vec& p_cur,
                                              const Vec& s_total,
                                              const IqOptions& options) const {
  const double t = thresholds_[static_cast<size_t>(q)];
  if (std::isnan(t)) return Status::InvalidArgument("inactive query");
  const Vec& w = aug_w_[static_cast<size_t>(q)];
  const double margin = options.hit_margin * (1.0 + std::fabs(t));
  const double goal = t - margin;  // need score(p_cur + step) <= goal
  const int dim = view_->dataset().dim();
  AdjustBox total_box = EffectiveBox(options, dim);
  AdjustBox step_box = StepBox(total_box, s_total);

  if (view_->IsIdentityForm()) {
    // score = w.(p_cur + step): single linear constraint w.step <= r.
    double r = goal - Dot(w, p_cur);
    return MinCostForHalfspace(w, r, options.cost, step_box);
  }

  // Non-linear utility: sequential linearization around the moving point.
  const LinearForm& form = view_->form();
  auto score_at = [&](const Vec& step) {
    return Dot(form.Coefficients(Add(p_cur, step)), w);
  };
  Vec step = Zeros(dim);
  if (score_at(step) <= goal) {
    return HitSolution{step, options.cost.Cost(step)};
  }
  for (int it = 0; it < 16; ++it) {
    Vec x = Add(p_cur, step);
    // Gradient of score w.r.t. attributes — w here already carries the bias
    // slot, which ScoreGradient expects split off; use the augmented form.
    Vec grad = Zeros(dim);
    for (int slot = 0; slot < form.num_slots(); ++slot) {
      double ws = w[static_cast<size_t>(slot)];
      if (ws == 0.0) continue;
      for (const Monomial& mono : form.slot(slot)) {
        mono.AccumulateGradient(x, ws, &grad);
      }
    }
    double c_val = score_at(step) - goal;
    // Linearized constraint on the full step vector s:
    //   c(x) + grad.(s - step) <= 0   =>   grad.s <= grad.step - c(x).
    double rhs = Dot(grad, step) - c_val;  // iq-lint: allow(raw-scoring-loop)
    auto lin = MinCostForHalfspace(grad, rhs, options.cost, step_box);
    if (!lin.ok()) break;
    if (ApproxEqual(lin->s, step, 1e-12)) break;
    // Damped acceptance: the constraint is not convex in general, so a full
    // linearized jump can overshoot (e.g. past the vertex of an even power).
    // Backtrack toward the current iterate until the violation decreases.
    Vec next = lin->s;
    double damp = 1.0;
    for (int bt = 0; bt < 6; ++bt) {
      double v = score_at(next) - goal;
      if (v <= 0 || v < c_val - 1e-15) break;
      damp *= 0.5;
      next = Add(step, Scale(Sub(lin->s, step), damp));
    }
    step = std::move(next);
    if (score_at(step) <= goal) {
      return HitSolution{step, options.cost.Cost(step)};
    }
  }
  return Status::FailedPrecondition(
      "sequential linearization found no feasible step");
}

namespace {

/// Generates and evaluates all candidates for the current iteration.
/// Returns candidates sorted by ascending cost-per-hit ratio.
///
/// Parallel execution (DESIGN.md §8): when options.pool is set, the
/// per-query candidate solves — and, for thread-safe evaluators, the
/// per-candidate H evaluations — fan out over the pool. Each unit writes
/// into its own pre-assigned slot and the slots are compacted in query-id
/// order afterwards, so the returned vector is bit-identical to the serial
/// path for every thread count (the deterministic reduction the
/// differential tests pin down).
std::vector<Candidate> BuildCandidates(const IqContext& ctx,
                                       StrategyEvaluator* evaluator,
                                       const Vec& p_cur, const Vec& s_total,
                                       const Vec& c_cur,
                                       const IqOptions& options,
                                       bool evaluate_hits,
                                       EvalBreakdown* bd) {
  IQ_TRACE_SCOPE_ARG("BuildCandidates", ctx.target());
  std::vector<Candidate> out;
  const QuerySet& queries = ctx.queries();
  WallTimer solver_timer;
  // Queries still worth hitting, in ascending id order (the slot order the
  // deterministic compaction below preserves).
  std::vector<int> pending;
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    if (ctx.HitBy(q, c_cur)) continue;  // already hit
    pending.push_back(q);
  }
  std::vector<Candidate> slots(pending.size());
  if (options.pool != nullptr && pending.size() > 1) {
    SearchMetrics::Get().parallel_solve_batches->Increment();
    if (static_cast<int64_t>(pending.size()) >
        16 * static_cast<int64_t>(options.pool->num_threads())) {
      EventLog::Global().Record(EventLog::PoolSaturation(
          "candidate_solve", static_cast<int64_t>(pending.size()),
          options.pool->num_threads()));
    }
  }
  ParallelForOrSerial(
      options.pool, static_cast<int64_t>(pending.size()),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const int q = pending[static_cast<size_t>(i)];
          auto sol = ctx.SolveCandidate(q, p_cur, s_total, options);
          if (!sol.ok()) continue;  // slot stays q == -1
          Candidate& cand = slots[static_cast<size_t>(i)];
          cand.q = q;
          cand.step = std::move(sol->s);
          cand.step_cost = sol->cost;
        }
      },
      "greedy.candidate_solve");
  out.reserve(slots.size());
  for (Candidate& cand : slots) {
    if (cand.q >= 0) out.push_back(std::move(cand));
  }
  bd->solver_seconds += solver_timer.ElapsedSeconds();
  bd->candidates_generated += out.size();
  SearchMetrics::Get().solver_nanos->Record(solver_timer.ElapsedNanos());
  SearchMetrics::Get().candidates_generated->Increment(out.size());
  // Optionally restrict the expensive H evaluation to a bounded candidate
  // subset. Half the budget goes to the cheapest steps (the likely best
  // cost-per-hit ratios), half is strided across the remaining cost range so
  // bold far-reaching candidates stay in play for Max-Hit searches.
  if (evaluate_hits && options.candidate_eval_limit > 0 &&
      static_cast<int>(out.size()) > options.candidate_eval_limit) {
    const int limit = options.candidate_eval_limit;
    std::sort(out.begin(), out.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.step_cost < b.step_cost;
              });
    std::vector<Candidate> kept;
    kept.reserve(static_cast<size_t>(limit));
    const int cheap = limit / 2;
    for (int i = 0; i < cheap; ++i) kept.push_back(std::move(out[static_cast<size_t>(i)]));
    const int rest = static_cast<int>(out.size()) - cheap;
    const int strided = limit - cheap;
    for (int i = 0; i < strided; ++i) {
      size_t idx = static_cast<size_t>(cheap) +
                   static_cast<size_t>((static_cast<long long>(i) * rest) /
                                       strided);
      kept.push_back(std::move(out[idx]));
    }
    out = std::move(kept);
  }
  if (evaluate_hits) {
    WallTimer eval_timer;
    ThreadPool* eval_pool =
        evaluator->SupportsConcurrentEval() ? options.pool : nullptr;
    if (eval_pool != nullptr && out.size() > 1) {
      SearchMetrics::Get().parallel_eval_batches->Increment();
      if (static_cast<int64_t>(out.size()) >
          16 * static_cast<int64_t>(eval_pool->num_threads())) {
        EventLog::Global().Record(EventLog::PoolSaturation(
            "candidate_eval", static_cast<int64_t>(out.size()),
            eval_pool->num_threads()));
      }
    }
    ParallelForOrSerial(eval_pool, static_cast<int64_t>(out.size()),
                        [&](int64_t begin, int64_t end) {
                          for (int64_t i = begin; i < end; ++i) {
                            Candidate& cand = out[static_cast<size_t>(i)];
                            Vec c_cand = ctx.view().CoefficientsFor(
                                Add(p_cur, cand.step));
                            cand.hits = evaluator->HitsForCoeffs(c_cand);
                          }
                        },
                        "greedy.candidate_eval");
    bd->eval_seconds += eval_timer.ElapsedSeconds();
    bd->candidates_evaluated += out.size();
    SearchMetrics::Get().eval_nanos->Record(eval_timer.ElapsedNanos());
    SearchMetrics::Get().candidates_evaluated->Increment(out.size());
  }
  return out;
}

double Ratio(const Candidate& c) {
  return c.step_cost / static_cast<double>(std::max(1, c.hits));
}

/// Snaps the strategy onto the per-attribute grid of options.granularity
/// (coordinates with granularity 0 stay continuous). Per coordinate, the
/// neighbouring multiple with the higher re-evaluated hit count wins (ties:
/// the smaller magnitude); candidates violating the box or `max_cost` are
/// skipped. Updates *s_total and *hits.
void ApplyGranularity(const IqContext& ctx, StrategyEvaluator* evaluator,
                      const IqOptions& options, double max_cost, Vec* s_total,
                      int* hits) {
  if (options.granularity.empty()) return;
  const int dim = ctx.view().dataset().dim();
  IQ_CHECK(static_cast<int>(options.granularity.size()) == dim);
  AdjustBox box = EffectiveBox(options, dim);
  const Vec& p = ctx.view().dataset().attrs(ctx.target());

  auto hits_of = [&](const Vec& s) {
    return evaluator->HitsForCoeffs(ctx.view().CoefficientsFor(Add(p, s)));
  };

  Vec snapped = *s_total;
  for (int j = 0; j < dim; ++j) {
    double g = options.granularity[static_cast<size_t>(j)];
    if (g <= 0) continue;
    double v = snapped[static_cast<size_t>(j)];
    double lo = std::floor(v / g) * g;
    double hi = lo + g;
    int best_hits = -1;
    double best_value = 0.0;
    for (double cand : {lo, hi}) {
      Vec trial = snapped;
      trial[static_cast<size_t>(j)] = cand;
      if (!box.Contains(trial, 1e-12)) continue;
      if (options.cost.Cost(trial) > max_cost + 1e-12) continue;
      int h = hits_of(trial);
      if (h > best_hits ||
          (h == best_hits && std::fabs(cand) < std::fabs(best_value))) {
        best_hits = h;
        best_value = cand;
      }
    }
    if (best_hits < 0) {
      // Neither multiple is admissible; fall back to no adjustment on this
      // axis (0 is always a grid multiple inside the box).
      best_value = 0.0;
      Vec trial = snapped;
      trial[static_cast<size_t>(j)] = 0.0;
      best_hits = hits_of(trial);
    }
    snapped[static_cast<size_t>(j)] = best_value;
    *hits = best_hits;
  }
  *s_total = std::move(snapped);
}

IqResult FinishResult(const Vec& s_total, const IqOptions& options,
                      int hits_before, int hits_after, bool reached_goal,
                      int iterations) {
  IqResult r;
  r.strategy = s_total;
  r.cost = options.cost.Cost(s_total);
  r.hits_before = hits_before;
  r.hits_after = hits_after;
  r.reached_goal = reached_goal;
  r.iterations = iterations;
  return r;
}

/// Closes out the per-call accounting: derives the evaluator deltas, stamps
/// the result, and folds the iteration count into the global registry.
void FinishBreakdown(const StrategyEvaluator& ev, size_t calls_before,
                     size_t rescored_before, size_t reused_before,
                     const WallTimer& timer, EvalBreakdown* bd, IqResult* r) {
  bd->iterations = r->iterations;
  bd->evaluator_calls = ev.calls() - calls_before;
  bd->queries_rescored = ev.queries_rescored() - rescored_before;
  bd->queries_reused = ev.queries_reused() - reused_before;
  bd->total_seconds = timer.ElapsedSeconds();
  r->evaluator_calls = bd->evaluator_calls;
  r->seconds = bd->total_seconds;
  r->breakdown = *bd;
  SearchMetrics::Get().iterations->Increment(
      static_cast<uint64_t>(r->iterations));
}

}  // namespace

Result<IqResult> MinCostIq(const IqContext& ctx, StrategyEvaluator* evaluator,
                           int tau, const IqOptions& options) {
  IQ_TRACE_SCOPE_ARG2("MinCostIq", ctx.target(), tau);
  if (tau < 1) return Status::InvalidArgument("tau must be >= 1");
  WallTimer timer;
  const size_t calls_before = evaluator->calls();
  const size_t rescored_before = evaluator->queries_rescored();
  const size_t reused_before = evaluator->queries_reused();
  EvalBreakdown bd;
  const int dim = ctx.view().dataset().dim();
  const int target = ctx.target();

  Vec s_total = Zeros(dim);
  Vec p_cur = ctx.view().dataset().attrs(target);
  Vec c_cur = ctx.view().coeffs(target);
  int cur_hits = evaluator->base_hits();
  const int hits_before = cur_hits;
  int max_iters =
      options.max_iterations > 0 ? options.max_iterations : 4 * tau + 16;

  int iter = 0;
  bool reached = cur_hits >= tau;
  while (!reached && iter < max_iters) {
    ++iter;
    std::vector<Candidate> candidates = BuildCandidates(
        ctx, evaluator, p_cur, s_total, c_cur, options, /*evaluate_hits=*/true, &bd);
    if (candidates.empty()) break;

    const Candidate* best = nullptr;
    for (const Candidate& c : candidates) {
      if (best == nullptr || Ratio(c) < Ratio(*best)) best = &c;
    }
    if (best->hits >= tau) {
      // Algorithm 3, lines 10-13: once the goal is reachable this round,
      // take the cheapest candidate that reaches it (avoid over-achieving).
      const Candidate* cheapest = nullptr;
      for (const Candidate& c : candidates) {
        if (c.hits >= tau &&
            (cheapest == nullptr || c.step_cost < cheapest->step_cost)) {
          cheapest = &c;
        }
      }
      best = cheapest;
    }
    AddInPlace(&s_total, best->step);
    p_cur = Add(p_cur, best->step);
    c_cur = ctx.view().CoefficientsFor(p_cur);
    int new_hits = best->hits;
    if (new_hits <= cur_hits && NormL2(best->step) < 1e-15) break;  // stuck
    cur_hits = new_hits;
    reached = cur_hits >= tau;
  }

  if (!options.granularity.empty()) {
    ApplyGranularity(ctx, evaluator, options, kInf, &s_total, &cur_hits);
    reached = cur_hits >= tau;
  }
  IqResult r = FinishResult(s_total, options, hits_before, cur_hits,
                            reached, iter);
  FinishBreakdown(*evaluator, calls_before, rescored_before, reused_before,
                  timer, &bd, &r);
  return r;
}

Result<IqResult> MaxHitIq(const IqContext& ctx, StrategyEvaluator* evaluator,
                          double beta, const IqOptions& options) {
  IQ_TRACE_SCOPE_ARG("MaxHitIq", ctx.target());
  if (!(beta >= 0)) return Status::InvalidArgument("budget must be >= 0");
  WallTimer timer;
  const size_t calls_before = evaluator->calls();
  const size_t rescored_before = evaluator->queries_rescored();
  const size_t reused_before = evaluator->queries_reused();
  EvalBreakdown bd;
  const int dim = ctx.view().dataset().dim();
  const int target = ctx.target();

  Vec s_total = Zeros(dim);
  Vec p_cur = ctx.view().dataset().attrs(target);
  Vec c_cur = ctx.view().coeffs(target);
  int cur_hits = evaluator->base_hits();
  const int hits_before = cur_hits;
  int max_iters = options.max_iterations > 0 ? options.max_iterations
                                             : ctx.queries().size() + 16;

  int iter = 0;
  while (iter < max_iters) {
    ++iter;
    std::vector<Candidate> candidates = BuildCandidates(
        ctx, evaluator, p_cur, s_total, c_cur, options, /*evaluate_hits=*/true, &bd);
    // Keep only candidates affordable under the cumulative budget.
    std::vector<Candidate> affordable;
    for (Candidate& c : candidates) {
      if (options.cost.Cost(Add(s_total, c.step)) <= beta) {
        affordable.push_back(std::move(c));
      }
    }
    if (affordable.empty()) break;

    // Best cost-per-hit among affordable candidates that do not lose hits.
    const Candidate* best = nullptr;
    for (const Candidate& c : affordable) {
      if (c.hits <= cur_hits) continue;  // must improve
      if (best == nullptr || Ratio(c) < Ratio(*best)) best = &c;
    }
    if (best == nullptr) break;

    AddInPlace(&s_total, best->step);
    p_cur = Add(p_cur, best->step);
    c_cur = ctx.view().CoefficientsFor(p_cur);
    cur_hits = best->hits;
  }

  if (!options.granularity.empty()) {
    ApplyGranularity(ctx, evaluator, options, beta, &s_total, &cur_hits);
  }
  IqResult r = FinishResult(s_total, options, hits_before, cur_hits,
                            /*reached_goal=*/true, iter);
  FinishBreakdown(*evaluator, calls_before, rescored_before, reused_before,
                  timer, &bd, &r);
  return r;
}

Result<IqResult> GreedyMinCost(const IqContext& ctx,
                               StrategyEvaluator* evaluator, int tau,
                               const IqOptions& options) {
  if (tau < 1) return Status::InvalidArgument("tau must be >= 1");
  WallTimer timer;
  const size_t calls_before = evaluator->calls();
  const size_t rescored_before = evaluator->queries_rescored();
  const size_t reused_before = evaluator->queries_reused();
  EvalBreakdown bd;
  const int dim = ctx.view().dataset().dim();
  const int target = ctx.target();

  Vec s_total = Zeros(dim);
  Vec p_cur = ctx.view().dataset().attrs(target);
  Vec c_cur = ctx.view().coeffs(target);
  int cur_hits = evaluator->base_hits();
  const int hits_before = cur_hits;
  int max_iters =
      options.max_iterations > 0 ? options.max_iterations : 4 * tau + 16;

  int iter = 0;
  bool reached = cur_hits >= tau;
  while (!reached && iter < max_iters) {
    ++iter;
    // Cheapest single query, no hit evaluation of alternatives.
    std::vector<Candidate> candidates =
        BuildCandidates(ctx, evaluator, p_cur, s_total, c_cur, options,
                        /*evaluate_hits=*/false, &bd);
    if (candidates.empty()) break;
    const Candidate* best = nullptr;
    for (const Candidate& c : candidates) {
      if (best == nullptr || c.step_cost < best->step_cost) best = &c;
    }
    AddInPlace(&s_total, best->step);
    p_cur = Add(p_cur, best->step);
    c_cur = ctx.view().CoefficientsFor(p_cur);
    WallTimer eval_timer;
    cur_hits = evaluator->HitsForCoeffs(c_cur);
    bd.eval_seconds += eval_timer.ElapsedSeconds();
    reached = cur_hits >= tau;
  }

  if (!options.granularity.empty()) {
    ApplyGranularity(ctx, evaluator, options, kInf, &s_total, &cur_hits);
    reached = cur_hits >= tau;
  }
  IqResult r = FinishResult(s_total, options, hits_before, cur_hits,
                            reached, iter);
  FinishBreakdown(*evaluator, calls_before, rescored_before, reused_before,
                  timer, &bd, &r);
  return r;
}

Result<IqResult> GreedyMaxHit(const IqContext& ctx,
                              StrategyEvaluator* evaluator, double beta,
                              const IqOptions& options) {
  if (!(beta >= 0)) return Status::InvalidArgument("budget must be >= 0");
  WallTimer timer;
  const size_t calls_before = evaluator->calls();
  const size_t rescored_before = evaluator->queries_rescored();
  const size_t reused_before = evaluator->queries_reused();
  EvalBreakdown bd;
  const int dim = ctx.view().dataset().dim();
  const int target = ctx.target();

  Vec s_total = Zeros(dim);
  Vec p_cur = ctx.view().dataset().attrs(target);
  Vec c_cur = ctx.view().coeffs(target);
  int cur_hits = evaluator->base_hits();
  const int hits_before = cur_hits;
  int max_iters = options.max_iterations > 0 ? options.max_iterations
                                             : ctx.queries().size() + 16;

  int iter = 0;
  while (iter < max_iters) {
    ++iter;
    std::vector<Candidate> candidates =
        BuildCandidates(ctx, evaluator, p_cur, s_total, c_cur, options,
                        /*evaluate_hits=*/false, &bd);
    const Candidate* best = nullptr;
    for (const Candidate& c : candidates) {
      if (options.cost.Cost(Add(s_total, c.step)) > beta) continue;
      if (best == nullptr || c.step_cost < best->step_cost) best = &c;
    }
    if (best == nullptr) break;
    AddInPlace(&s_total, best->step);
    p_cur = Add(p_cur, best->step);
    c_cur = ctx.view().CoefficientsFor(p_cur);
    WallTimer eval_timer;
    cur_hits = evaluator->HitsForCoeffs(c_cur);
    bd.eval_seconds += eval_timer.ElapsedSeconds();
  }

  if (!options.granularity.empty()) {
    ApplyGranularity(ctx, evaluator, options, beta, &s_total, &cur_hits);
  }
  IqResult r = FinishResult(s_total, options, hits_before, cur_hits,
                            /*reached_goal=*/true, iter);
  FinishBreakdown(*evaluator, calls_before, rescored_before, reused_before,
                  timer, &bd, &r);
  return r;
}

namespace {

/// Attribute span of the active dataset (for the Random baseline's radius
/// schedule).
double DataSpan(const Dataset& data) {
  double span2 = 0.0;
  for (int j = 0; j < data.dim(); ++j) {
    double lo = kInf, hi = -kInf;
    for (int i = 0; i < data.size(); ++i) {
      if (!data.is_active(i)) continue;
      lo = std::min(lo, data.attrs(i)[static_cast<size_t>(j)]);
      hi = std::max(hi, data.attrs(i)[static_cast<size_t>(j)]);
    }
    if (hi > lo) span2 += (hi - lo) * (hi - lo);
  }
  return span2 > 0 ? std::sqrt(span2) : 1.0;
}

Vec RandomDirection(Rng* rng, int dim) {
  Vec dir(static_cast<size_t>(dim));
  double norm2 = 0.0;
  do {
    for (auto& x : dir) x = rng->Gaussian();
    norm2 = NormL2Squared(dir);
  } while (norm2 < 1e-12);
  return Scale(dir, 1.0 / std::sqrt(norm2));
}

}  // namespace

Result<IqResult> RandomMinCost(const IqContext& ctx,
                               StrategyEvaluator* evaluator, int tau,
                               const IqOptions& options) {
  if (tau < 1) return Status::InvalidArgument("tau must be >= 1");
  WallTimer timer;
  const size_t calls_before = evaluator->calls();
  const size_t rescored_before = evaluator->queries_rescored();
  const size_t reused_before = evaluator->queries_reused();
  EvalBreakdown bd;
  const int dim = ctx.view().dataset().dim();
  Rng rng(options.seed);
  AdjustBox box = EffectiveBox(options, dim);
  const double span = DataSpan(ctx.view().dataset());

  const int hits_before = evaluator->base_hits();
  Vec best_s = Zeros(dim);
  int best_hits = hits_before;
  bool reached = best_hits >= tau;
  int samples = 0;
  double radius = 0.05 * span;
  while (!reached && samples < options.random_samples) {
    ++samples;
    Vec s = box.Clamp(Scale(RandomDirection(&rng, dim),
                            radius * rng.UniformDouble(0.2, 1.0)));
    Vec p = Add(ctx.view().dataset().attrs(ctx.target()), s);
    WallTimer eval_timer;
    int hits = evaluator->HitsForCoeffs(ctx.view().CoefficientsFor(p));
    bd.eval_seconds += eval_timer.ElapsedSeconds();
    if (hits > best_hits) {
      best_hits = hits;
      best_s = s;
    }
    if (hits >= tau) {
      best_s = s;
      best_hits = hits;
      reached = true;
      break;
    }
    if (samples % 16 == 0) radius *= 1.5;  // widen the search
  }

  if (!options.granularity.empty()) {
    ApplyGranularity(ctx, evaluator, options, kInf, &best_s, &best_hits);
    reached = best_hits >= tau;
  }
  IqResult r = FinishResult(best_s, options, hits_before, best_hits,
                            reached, samples);
  FinishBreakdown(*evaluator, calls_before, rescored_before, reused_before,
                  timer, &bd, &r);
  return r;
}

Result<IqResult> RandomMaxHit(const IqContext& ctx,
                              StrategyEvaluator* evaluator, double beta,
                              const IqOptions& options) {
  if (!(beta >= 0)) return Status::InvalidArgument("budget must be >= 0");
  WallTimer timer;
  const size_t calls_before = evaluator->calls();
  const size_t rescored_before = evaluator->queries_rescored();
  const size_t reused_before = evaluator->queries_reused();
  EvalBreakdown bd;
  const int dim = ctx.view().dataset().dim();
  Rng rng(options.seed);
  AdjustBox box = EffectiveBox(options, dim);

  const int hits_before = evaluator->base_hits();
  Vec best_s = Zeros(dim);
  int best_hits = hits_before;
  for (int sample = 0; sample < options.random_samples; ++sample) {
    Vec dir = RandomDirection(&rng, dim);
    // Scale the sample so its cost stays within the budget (bisection —
    // cost is monotone along a ray for all built-in kinds).
    double lo = 0.0, hi = 1.0;
    while (options.cost.Cost(box.Clamp(Scale(dir, hi))) <= beta && hi < 1e9) {
      hi *= 2;
    }
    for (int it = 0; it < 40; ++it) {
      double mid = 0.5 * (lo + hi);
      if (options.cost.Cost(box.Clamp(Scale(dir, mid))) <= beta) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    Vec s = box.Clamp(Scale(dir, lo * rng.UniformDouble(0.3, 1.0)));
    if (options.cost.Cost(s) > beta) continue;
    Vec p = Add(ctx.view().dataset().attrs(ctx.target()), s);
    WallTimer eval_timer;
    int hits = evaluator->HitsForCoeffs(ctx.view().CoefficientsFor(p));
    bd.eval_seconds += eval_timer.ElapsedSeconds();
    if (hits > best_hits) {
      best_hits = hits;
      best_s = s;
    }
  }

  if (!options.granularity.empty()) {
    ApplyGranularity(ctx, evaluator, options, beta, &best_s, &best_hits);
  }
  IqResult r = FinishResult(best_s, options, hits_before, best_hits,
                            /*reached_goal=*/true, options.random_samples);
  FinishBreakdown(*evaluator, calls_before, rescored_before, reused_before,
                  timer, &bd, &r);
  return r;
}

}  // namespace iq
