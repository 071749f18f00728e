#include "core/exhaustive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "opt/dykstra.h"
#include "util/logging.h"
#include "util/timer.h"

namespace iq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Number of h-subsets of an m-set, saturating at `cap`.
uint64_t BinomialCapped(uint64_t m, uint64_t h, uint64_t cap) {
  if (h > m) return 0;
  h = std::min(h, m - h);
  uint64_t r = 1;
  for (uint64_t i = 1; i <= h; ++i) {
    // r *= (m - h + i) / i, with overflow/cap saturation.
    long double next = static_cast<long double>(r) *
                       static_cast<long double>(m - h + i) /
                       static_cast<long double>(i);
    if (next > static_cast<long double>(cap)) return cap + 1;
    r = static_cast<uint64_t>(next + 0.5);
  }
  return r;
}

/// The hittable queries with their hit halfspaces a.s <= b.
struct HalfspaceSet {
  std::vector<int> query_ids;
  std::vector<Vec> a;
  std::vector<double> b;
  int always_hit = 0;  // queries with t = +inf (fewer than k competitors)
};

Result<HalfspaceSet> BuildHalfspaces(const IqContext& ctx,
                                     const IqOptions& options) {
  if (!ctx.view().IsIdentityForm()) {
    return Status::Unimplemented(
        "exhaustive search supports linear utilities only");
  }
  HalfspaceSet hs;
  const Vec& p = ctx.view().dataset().attrs(ctx.target());
  const QuerySet& queries = ctx.queries();
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    double t = ctx.thresholds()[static_cast<size_t>(q)];
    if (std::isinf(t)) {
      ++hs.always_hit;
      continue;
    }
    double margin = options.hit_margin * (1.0 + std::fabs(t));
    hs.query_ids.push_back(q);
    hs.a.push_back(ctx.aug_w(q));
    // iq-lint: allow(raw-scoring-loop): one-time halfspace-constant setup
    hs.b.push_back(t - margin - Dot(ctx.aug_w(q), p));
  }
  return hs;
}

/// Minimal cost of hitting every query in `pick` (indices into hs).
/// Returns infinity when infeasible.
double SubsetCost(const HalfspaceSet& hs, const std::vector<int>& pick,
                  const IqOptions& options, const AdjustBox& box,
                  Vec* strategy) {
  std::vector<Vec> A;
  Vec b;
  for (int i : pick) {
    A.push_back(hs.a[static_cast<size_t>(i)]);
    b.push_back(hs.b[static_cast<size_t>(i)]);
  }
  const int dim = box.dim();
  using Kind = CostFunction::Kind;
  Kind kind = options.cost.kind();
  if (kind == Kind::kL2 || kind == Kind::kQuadratic) {
    auto s = DykstraProject(A, b, box, Zeros(dim));
    if (!s.ok()) return kInf;
    *strategy = std::move(*s);
    return options.cost.Cost(*strategy);
  }
  // General costs: penalty solver on the max violation.
  auto g = [&A, &b](const Vec& s) {
    double worst = -kInf;
    for (size_t i = 0; i < A.size(); ++i) {
      // iq-lint: allow(raw-scoring-loop): constraint rows, not an object set
      worst = std::max(worst, Dot(A[i], s) - b[i]);
    }
    return worst;
  };
  auto sol = MinCostNonlinear(g, nullptr, options.cost, box);
  if (!sol.ok()) return kInf;
  *strategy = std::move(sol->s);
  return sol->cost;
}

/// Iterates all h-subsets of {0..m-1}; visit returns false to stop early.
template <typename Visit>
void ForEachSubset(int m, int h, const Visit& visit) {
  if (h > m || h <= 0) return;
  std::vector<int> pick(static_cast<size_t>(h));
  for (int i = 0; i < h; ++i) pick[static_cast<size_t>(i)] = i;
  for (;;) {
    if (!visit(pick)) return;
    // Advance to the next combination.
    int i = h - 1;
    while (i >= 0 && pick[static_cast<size_t>(i)] == m - h + i) --i;
    if (i < 0) return;
    ++pick[static_cast<size_t>(i)];
    for (int j = i + 1; j < h; ++j) {
      pick[static_cast<size_t>(j)] = pick[static_cast<size_t>(j - 1)] + 1;
    }
  }
}

}  // namespace

Result<IqResult> ExhaustiveMinCost(const IqContext& ctx, int tau,
                                   const ExhaustiveOptions& options) {
  if (tau < 1) return Status::InvalidArgument("tau must be >= 1");
  WallTimer timer;
  IQ_ASSIGN_OR_RETURN(HalfspaceSet hs, BuildHalfspaces(ctx, options.iq));

  const int dim = ctx.view().dataset().dim();
  AdjustBox box = options.iq.box.has_value() ? *options.iq.box
                                             : AdjustBox::Unbounded(dim);
  // Queries hittable no matter what (t = inf) reduce the requirement.
  int needed = tau - hs.always_hit;
  IqResult r;
  r.hits_before = 0;
  for (int q = 0; q < ctx.queries().size(); ++q) {
    if (ctx.queries().is_active(q) &&
        ctx.HitBy(q, ctx.view().coeffs(ctx.target()))) {
      ++r.hits_before;
    }
  }
  if (needed <= 0) {
    r.strategy = Zeros(dim);
    r.hits_after = r.hits_before;
    r.reached_goal = true;
    r.seconds = timer.ElapsedSeconds();
    return r;
  }
  const int m = static_cast<int>(hs.query_ids.size());
  if (needed > m) {
    return Status::FailedPrecondition("tau exceeds the number of queries");
  }
  uint64_t count = BinomialCapped(static_cast<uint64_t>(m),
                                  static_cast<uint64_t>(needed),
                                  options.max_subsets);
  if (count > options.max_subsets) {
    return Status::ResourceExhausted(
        "exhaustive Min-Cost subset enumeration too large");
  }

  double best_cost = kInf;
  Vec best_strategy = Zeros(dim);
  ForEachSubset(m, needed, [&](const std::vector<int>& pick) {
    Vec s;
    double c = SubsetCost(hs, pick, options.iq, box, &s);
    if (c < best_cost) {
      best_cost = c;
      best_strategy = std::move(s);
    }
    return true;
  });
  if (!std::isfinite(best_cost)) {
    return Status::FailedPrecondition("no feasible strategy reaches tau");
  }

  r.strategy = best_strategy;
  r.cost = best_cost;
  Vec c_new = ctx.view().CoefficientsFor(
      Add(ctx.view().dataset().attrs(ctx.target()), best_strategy));
  r.hits_after = 0;
  for (int q = 0; q < ctx.queries().size(); ++q) {
    if (ctx.queries().is_active(q) && ctx.HitBy(q, c_new)) ++r.hits_after;
  }
  r.reached_goal = r.hits_after >= tau;
  r.seconds = timer.ElapsedSeconds();
  return r;
}

Result<IqResult> ExhaustiveMaxHit(const IqContext& ctx, double beta,
                                  const ExhaustiveOptions& options) {
  if (!(beta >= 0)) return Status::InvalidArgument("budget must be >= 0");
  WallTimer timer;
  IQ_ASSIGN_OR_RETURN(HalfspaceSet hs, BuildHalfspaces(ctx, options.iq));

  const int dim = ctx.view().dataset().dim();
  AdjustBox box = options.iq.box.has_value() ? *options.iq.box
                                             : AdjustBox::Unbounded(dim);
  const int m = static_cast<int>(hs.query_ids.size());

  // Total enumeration volume across all sizes must stay within the cap.
  uint64_t total = 0;
  for (int h = 1; h <= m; ++h) {
    total += BinomialCapped(static_cast<uint64_t>(m),
                            static_cast<uint64_t>(h), options.max_subsets);
    if (total > options.max_subsets) {
      return Status::ResourceExhausted(
          "exhaustive Max-Hit subset enumeration too large");
    }
  }

  IqResult r;
  r.hits_before = 0;
  for (int q = 0; q < ctx.queries().size(); ++q) {
    if (ctx.queries().is_active(q) &&
        ctx.HitBy(q, ctx.view().coeffs(ctx.target()))) {
      ++r.hits_before;
    }
  }

  Vec best_strategy = Zeros(dim);
  double best_cost = 0.0;
  int best_h = 0;
  for (int h = m; h >= 1; --h) {
    double best_cost_at_h = kInf;
    Vec best_s_at_h;
    ForEachSubset(m, h, [&](const std::vector<int>& pick) {
      Vec s;
      double c = SubsetCost(hs, pick, options.iq, box, &s);
      if (c <= beta && c < best_cost_at_h) {
        best_cost_at_h = c;
        best_s_at_h = std::move(s);
      }
      return true;
    });
    if (std::isfinite(best_cost_at_h)) {
      best_strategy = best_s_at_h;
      best_cost = best_cost_at_h;
      best_h = h;
      break;
    }
  }
  (void)best_h;

  r.strategy = best_strategy;
  r.cost = best_cost;
  Vec c_new = ctx.view().CoefficientsFor(
      Add(ctx.view().dataset().attrs(ctx.target()), best_strategy));
  r.hits_after = 0;
  for (int q = 0; q < ctx.queries().size(); ++q) {
    if (ctx.queries().is_active(q) && ctx.HitBy(q, c_new)) ++r.hits_after;
  }
  r.reached_goal = true;
  r.seconds = timer.ElapsedSeconds();
  return r;
}

}  // namespace iq
