#ifndef IQ_CORE_GREEDY_STEP_H_
#define IQ_CORE_GREEDY_STEP_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/iq_algorithms.h"

namespace iq {

// The greedy improvement search of Algorithms 3 and 4, shared by the
// single-target schemes (iq_algorithms.cc) and the §5.1 multi-target search
// (combinatorial.cc): what a step is, when the search stops, and how it
// picks the next step. Internal to src/core.

/// The cheapest step that makes target `t` (always 0 for a single target)
/// hit query q, and the hit count after it (union hits for several targets).
struct StepCandidate {
  size_t t = 0;
  int q = -1;
  Vec step;
  double step_cost = 0.0;
  int hits = 0;
};

/// What the search stops on: Min-Cost once `tau` queries are hit; Max-Hit
/// when no step fits the budget `beta`.
struct SearchGoal {
  bool min_cost = true;
  int tau = 0;
  double beta = 0.0;

  static SearchGoal MinCost(int tau) { return {true, tau, 0.0}; }
  static SearchGoal MaxHit(double beta) { return {false, 0, beta}; }

  Status Check() const {
    if (min_cost && tau < 1) return Status::InvalidArgument("tau must be >= 1");
    if (!min_cost && !(beta >= 0)) {
      return Status::InvalidArgument("budget must be >= 0");
    }
    return Status::Ok();
  }
  /// True once Min-Cost has its tau hits; Max-Hit never stops on hits.
  bool Reached(int hits) const { return min_cost && hits >= tau; }
  /// IqResult::reached_goal: Max-Hit always respects its budget.
  bool Met(int hits) const { return !min_cost || hits >= tau; }
  /// The automatic iteration cap.
  int IterationCap(int num_queries) const {
    return min_cost ? DefaultMinCostIterations(tau) : num_queries + 16;
  }
};

/// How the next step is chosen: the best cost-per-hit ratio (Algorithms 3
/// and 4), or the Greedy baseline's cheapest step (§6.1), which needs no
/// hit count per candidate.
enum class StepRule { kBestRatio, kCheapest };

inline double Ratio(const StepCandidate& c) {
  return c.step_cost / static_cast<double>(std::max(1, c.hits));
}

/// The first cheapest candidate satisfying `admit`; nullptr if none does.
template <typename Admit>
const StepCandidate* CheapestStep(const std::vector<StepCandidate>& cands,
                                  const Admit& admit) {
  const StepCandidate* best = nullptr;
  for (const StepCandidate& c : cands) {
    if (!admit(c)) continue;
    if (best == nullptr || c.step_cost < best->step_cost) best = &c;
  }
  return best;
}

/// The step to apply next, or nullptr to stop. Max-Hit admits only steps
/// with `fits_budget(c)` and, under kBestRatio, only steps that gain hits
/// over `cur_hits`. When the best-ratio step reaches Min-Cost's tau, the
/// cheapest step reaching tau is taken instead (Algorithm 3, lines 10-13:
/// do not over-achieve).
template <typename FitsBudget>
const StepCandidate* PickStep(const std::vector<StepCandidate>& cands,
                              StepRule rule, const SearchGoal& goal,
                              int cur_hits, const FitsBudget& fits_budget) {
  auto admit = [&](const StepCandidate& c) {
    return goal.min_cost || fits_budget(c);
  };
  if (rule == StepRule::kCheapest) return CheapestStep(cands, admit);
  const StepCandidate* best = nullptr;
  for (const StepCandidate& c : cands) {
    if (!goal.min_cost && c.hits <= cur_hits) continue;  // must improve
    if (!admit(c)) continue;
    if (best == nullptr || Ratio(c) < Ratio(*best)) best = &c;
  }
  if (best != nullptr && goal.Reached(best->hits)) {
    best = CheapestStep(
        cands, [&](const StepCandidate& c) { return goal.Reached(c.hits); });
  }
  return best;
}

}  // namespace iq

#endif  // IQ_CORE_GREEDY_STEP_H_
