#ifndef IQ_CORE_EXHAUSTIVE_H_
#define IQ_CORE_EXHAUSTIVE_H_

#include "core/iq_algorithms.h"

namespace iq {

/// Options for the exhaustive (optimal) searches the paper offers "for query
/// issuers who indeed want the optimal strategy" (§4.2.1). These blow up
/// combinatorially — the paper measures > 4 hours per query even on its
/// smallest dataset — so a subset cap guards against runaway inputs.
struct ExhaustiveOptions {
  IqOptions iq;
  /// Abort with ResourceExhausted when the subset enumeration would exceed
  /// this many candidate subsets.
  uint64_t max_subsets = 2'000'000;
};

/// Optimal Min-Cost improvement strategy (Eq. 7-10) by enumerating every
/// tau-subset of queries and solving the resulting convex program:
/// for the L2/quadratic costs the optimum for a subset is the Dykstra
/// projection of the origin onto the intersection of the subset's hit
/// halfspaces; other costs use the penalty solver. Linear utilities only
/// (Unimplemented otherwise).
Result<IqResult> ExhaustiveMinCost(const IqContext& ctx, int tau,
                                   const ExhaustiveOptions& options = {});

/// Optimal Max-Hit improvement strategy (Eq. 15-18): finds the largest
/// subset size h admitting a strategy within budget by scanning h = 1, 2, ..
/// up to the first size that admits none, then returns the first min-cost
/// subset of size h in enumeration order.
Result<IqResult> ExhaustiveMaxHit(const IqContext& ctx, double beta,
                                  const ExhaustiveOptions& options = {});

}  // namespace iq

#endif  // IQ_CORE_EXHAUSTIVE_H_
