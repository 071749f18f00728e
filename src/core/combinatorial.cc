#include "core/combinatorial.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
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

  /// Union hit count: a query counts once no matter how many improved
  /// targets hit it. Targets are tested with their own thresholds (each
  /// excludes only itself from the competition, the paper's simplification).
  int UnionHits() const {
    const QuerySet& queries = contexts[0].queries();
    int hits = 0;
    for (int q = 0; q < queries.size(); ++q) {
      if (!queries.is_active(q)) continue;
      for (size_t t = 0; t < contexts.size(); ++t) {
        if (contexts[t].HitBy(q, c_cur[t])) {
          ++hits;
          break;
        }
      }
    }
    return hits;
  }

  /// Union hits if target t's coefficients were `c_alt`.
  int UnionHitsWith(size_t t_alt, const Vec& c_alt) const {
    const QuerySet& queries = contexts[0].queries();
    int hits = 0;
    for (int q = 0; q < queries.size(); ++q) {
      if (!queries.is_active(q)) continue;
      for (size_t t = 0; t < contexts.size(); ++t) {
        const Vec& c = (t == t_alt) ? c_alt : c_cur[t];
        if (contexts[t].HitBy(q, c)) {
          ++hits;
          break;
        }
      }
    }
    return hits;
  }

  bool UnionHit(int q) const {
    for (size_t t = 0; t < contexts.size(); ++t) {
      if (contexts[t].HitBy(q, c_cur[t])) return true;
    }
    return false;
  }

  double TotalCost() const {
    double c = 0.0;
    for (size_t t = 0; t < contexts.size(); ++t) {
      c += options[t].cost.Cost(s_total[t]);
    }
    return c;
  }
};

struct MultiCandidate {
  size_t t = 0;
  int q = -1;
  Vec step;
  double step_cost = 0.0;
  int union_hits = 0;
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

std::vector<MultiCandidate> BuildMultiCandidates(const MultiState& st,
                                                 bool evaluate) {
  std::vector<MultiCandidate> out;
  const QuerySet& queries = st.contexts[0].queries();
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q) || st.UnionHit(q)) continue;
    for (size_t t = 0; t < st.contexts.size(); ++t) {
      auto sol = st.contexts[t].SolveCandidate(q, st.p_cur[t], st.s_total[t],
                                               st.options[t]);
      if (!sol.ok()) continue;
      MultiCandidate cand;
      cand.t = t;
      cand.q = q;
      cand.step = std::move(sol->s);
      cand.step_cost = sol->cost;
      if (evaluate) {
        Vec c_alt = st.contexts[t].view().CoefficientsFor(
            Add(st.p_cur[t], cand.step));
        cand.union_hits = st.UnionHitsWith(t, c_alt);
      }
      out.push_back(std::move(cand));
    }
  }
  return out;
}

void Apply(MultiState* st, const MultiCandidate& cand) {
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

double MultiRatio(const MultiCandidate& c) {
  return c.step_cost / static_cast<double>(std::max(1, c.union_hits));
}

}  // namespace

Result<MultiIqResult> CombinatorialMinCostIq(
    const SubdomainIndex& index, const std::vector<int>& targets, int tau,
    const std::vector<IqOptions>& options) {
  if (tau < 1) return Status::InvalidArgument("tau must be >= 1");
  WallTimer timer;
  IQ_ASSIGN_OR_RETURN(MultiState st, InitState(index, targets, options));

  const int hits_before = st.UnionHits();
  int cur_hits = hits_before;
  const int max_iters = DefaultMinCostIterations(tau);
  int iter = 0;
  bool reached = cur_hits >= tau;
  while (!reached && iter < max_iters) {
    ++iter;
    std::vector<MultiCandidate> candidates = BuildMultiCandidates(st, true);
    if (candidates.empty()) break;
    // Step 2 of §5.1: best ratio, but avoid over-achieving tau.
    const MultiCandidate* best = nullptr;
    for (const MultiCandidate& c : candidates) {
      if (best == nullptr || MultiRatio(c) < MultiRatio(*best)) best = &c;
    }
    if (best->union_hits >= tau) {
      const MultiCandidate* cheapest = nullptr;
      for (const MultiCandidate& c : candidates) {
        if (c.union_hits >= tau &&
            (cheapest == nullptr || c.step_cost < cheapest->step_cost)) {
          cheapest = &c;
        }
      }
      best = cheapest;
    }
    Apply(&st, *best);
    cur_hits = best->union_hits;
    reached = cur_hits >= tau;
  }

  MultiIqResult r = Finish(st, targets, hits_before, cur_hits, reached, iter);
  r.seconds = timer.ElapsedSeconds();
  return r;
}

Result<MultiIqResult> CombinatorialMaxHitIq(
    const SubdomainIndex& index, const std::vector<int>& targets, double beta,
    const std::vector<IqOptions>& options) {
  if (!(beta >= 0)) return Status::InvalidArgument("budget must be >= 0");
  WallTimer timer;
  IQ_ASSIGN_OR_RETURN(MultiState st, InitState(index, targets, options));

  const int hits_before = st.UnionHits();
  int cur_hits = hits_before;
  const int max_iters = st.contexts[0].queries().size() + 16;
  int iter = 0;
  while (iter < max_iters) {
    ++iter;
    std::vector<MultiCandidate> candidates = BuildMultiCandidates(st, true);
    // Step 2 of §5.1 (max-hit): filter by the remaining shared budget.
    const MultiCandidate* best = nullptr;
    for (const MultiCandidate& c : candidates) {
      double new_total = st.TotalCost() -
                         st.options[c.t].cost.Cost(st.s_total[c.t]) +
                         st.options[c.t].cost.Cost(Add(st.s_total[c.t], c.step));
      if (new_total > beta) continue;
      if (c.union_hits <= cur_hits) continue;
      if (best == nullptr || MultiRatio(c) < MultiRatio(*best)) best = &c;
    }
    if (best == nullptr) break;
    Apply(&st, *best);
    cur_hits = best->union_hits;
  }

  MultiIqResult r =
      Finish(st, targets, hits_before, cur_hits, /*reached=*/true, iter);
  r.seconds = timer.ElapsedSeconds();
  return r;
}

}  // namespace iq
