#include "core/combinatorial.h"

#include "core/greedy_step.h"
#include "util/timer.h"

namespace iq {
namespace {

/// Shared state of the multi-target greedy.
struct MultiState {
  std::vector<IqContext> contexts;      // one per target
  std::vector<Vec> s_total;             // cumulative strategy per target
  std::vector<Vec> p_cur;               // current attributes per target
  std::vector<Vec> c_cur;               // current coefficients per target
  std::vector<IqOptions> options;       // per target

  /// True when some target hits query q, target `t_alt` at coefficients
  /// `c_alt` and the others at their current ones. Targets are tested with
  /// their own thresholds (each excludes only itself from the competition,
  /// the paper's simplification).
  bool UnionHitWith(int q, size_t t_alt, const Vec& c_alt) const {
    for (size_t t = 0; t < contexts.size(); ++t) {
      const Vec& c = (t == t_alt) ? c_alt : c_cur[t];
      if (contexts[t].HitBy(q, c)) return true;
    }
    return false;
  }

  /// Union hit count if target `t_alt` had coefficients `c_alt`: a query
  /// counts once no matter how many improved targets hit it.
  int UnionHitsWith(size_t t_alt, const Vec& c_alt) const {
    const QuerySet& queries = contexts[0].queries();
    int hits = 0;
    for (int q = 0; q < queries.size(); ++q) {
      if (queries.is_active(q) && UnionHitWith(q, t_alt, c_alt)) ++hits;
    }
    return hits;
  }

  double TotalCost() const {
    double c = 0.0;
    for (size_t t = 0; t < contexts.size(); ++t) {
      c += options[t].cost.Cost(s_total[t]);
    }
    return c;
  }
};

Result<MultiState> InitState(const SubdomainIndex& index,
                             const std::vector<int>& targets,
                             const std::vector<IqOptions>& options) {
  if (targets.empty()) {
    return Status::InvalidArgument("no target objects given");
  }
  if (options.size() != 1 && options.size() != targets.size()) {
    return Status::InvalidArgument(
        "options must have one entry or one per target");
  }
  MultiState st;
  const int dim = index.view().dataset().dim();
  for (const IqOptions& o : options) {
    IQ_RETURN_IF_ERROR(CheckIqOptions(o, dim));
  }
  for (size_t t = 0; t < targets.size(); ++t) {
    IQ_ASSIGN_OR_RETURN(IqContext ctx,
                        IqContext::FromIndex(&index, targets[t]));
    st.contexts.push_back(std::move(ctx));
    st.s_total.push_back(Zeros(dim));
    st.p_cur.push_back(index.view().dataset().attrs(targets[t]));
    st.c_cur.push_back(index.view().coeffs(targets[t]));
    st.options.push_back(options[options.size() == 1 ? 0 : t]);
  }
  return st;
}

/// Every (target, un-hit query) step, priced with its union hit count.
std::vector<StepCandidate> BuildMultiCandidates(const MultiState& st) {
  std::vector<StepCandidate> out;
  const QuerySet& queries = st.contexts[0].queries();
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q) || st.UnionHitWith(q, 0, st.c_cur[0])) continue;
    for (size_t t = 0; t < st.contexts.size(); ++t) {
      auto sol = st.contexts[t].SolveCandidate(q, st.p_cur[t], st.s_total[t],
                                               st.options[t]);
      if (!sol.ok()) continue;
      StepCandidate cand;
      cand.t = t;
      cand.q = q;
      cand.step = std::move(sol->s);
      cand.step_cost = sol->cost;
      Vec c_alt = st.contexts[t].view().CoefficientsFor(
          Add(st.p_cur[t], cand.step));
      cand.hits = st.UnionHitsWith(t, c_alt);
      out.push_back(std::move(cand));
    }
  }
  return out;
}

void Apply(MultiState* st, const StepCandidate& cand) {
  AddInPlace(&st->s_total[cand.t], cand.step);
  st->p_cur[cand.t] = Add(st->p_cur[cand.t], cand.step);
  st->c_cur[cand.t] =
      st->contexts[cand.t].view().CoefficientsFor(st->p_cur[cand.t]);
}

MultiIqResult Finish(const MultiState& st, const std::vector<int>& targets,
                     int hits_before, int hits_after, bool reached,
                     int iterations) {
  MultiIqResult r;
  r.targets = targets;
  for (size_t t = 0; t < targets.size(); ++t) {
    r.strategies.push_back(st.s_total[t]);
    r.costs.push_back(st.options[t].cost.Cost(st.s_total[t]));
    r.total_cost += r.costs.back();
  }
  r.hits_before = hits_before;
  r.hits_after = hits_after;
  r.reached_goal = reached;
  r.iterations = iterations;
  return r;
}

/// The §5.1 greedy: the single-target loop's step rule over (target,
/// query) steps priced by union hits, with the budget shared by all targets.
Result<MultiIqResult> CombinatorialSearch(const SubdomainIndex& index,
                                          const std::vector<int>& targets,
                                          const SearchGoal& goal,
                                          const std::vector<IqOptions>& options) {
  IQ_RETURN_IF_ERROR(goal.Check());
  WallTimer timer;
  IQ_ASSIGN_OR_RETURN(MultiState st, InitState(index, targets, options));

  const int hits_before = st.UnionHitsWith(0, st.c_cur[0]);
  int cur_hits = hits_before;
  const int max_iters = goal.IterationCap(st.contexts[0].queries().size());
  auto fits_budget = [&](const StepCandidate& c) {
    double new_total = st.TotalCost() -
                       st.options[c.t].cost.Cost(st.s_total[c.t]) +
                       st.options[c.t].cost.Cost(Add(st.s_total[c.t], c.step));
    return new_total <= goal.beta;
  };
  int iter = 0;
  while (!goal.Reached(cur_hits) && iter < max_iters) {
    ++iter;
    std::vector<StepCandidate> candidates = BuildMultiCandidates(st);
    const StepCandidate* best = PickStep(candidates, StepRule::kBestRatio,
                                         goal, cur_hits, fits_budget);
    if (best == nullptr) break;
    Apply(&st, *best);
    cur_hits = best->hits;
  }

  MultiIqResult r =
      Finish(st, targets, hits_before, cur_hits, goal.Met(cur_hits), iter);
  r.seconds = timer.ElapsedSeconds();
  return r;
}

}  // namespace

Result<MultiIqResult> CombinatorialMinCostIq(
    const SubdomainIndex& index, const std::vector<int>& targets, int tau,
    const std::vector<IqOptions>& options) {
  return CombinatorialSearch(index, targets, SearchGoal::MinCost(tau),
                             options);
}

Result<MultiIqResult> CombinatorialMaxHitIq(
    const SubdomainIndex& index, const std::vector<int>& targets, double beta,
    const std::vector<IqOptions>& options) {
  return CombinatorialSearch(index, targets, SearchGoal::MaxHit(beta),
                             options);
}

}  // namespace iq
