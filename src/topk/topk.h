#ifndef IQ_TOPK_TOPK_H_
#define IQ_TOPK_TOPK_H_

#include <utility>
#include <vector>

#include "geom/vec.h"

namespace iq {

/// An object id with its score under some query.
struct ScoredObject {
  int id = 0;
  double score = 0.0;
};

/// Shared hit rule: an object with score `s` hits a top-k query whose k-th
/// best *competitor* score is `kth` iff s < kth (strictly better). Every
/// evaluator in the library uses this single predicate so that ESE, RTA and
/// brute force agree bit-for-bit on ties.
inline bool HitByThreshold(double score, double kth_competitor_score) {
  return score < kth_competitor_score;
}

/// The one ranking order: (score_a, id_a) ranks strictly before
/// (score_b, id_b) iff its score is lower, or the scores are equal and its id
/// is lower. TopK, the rank operators, the signature ranking and every
/// comparator over scored objects use it.
inline bool RanksBefore(double score_a, int id_a, double score_b, int id_b) {
  if (score_a != score_b) return score_a < score_b;
  return id_a < id_b;
}

/// Brute-force top-k scan over coefficient rows: the k lowest scores under
/// weights `w`, ascending, ties broken by id. `active` may be null (all
/// rows); `exclude` (>= 0) skips one id.
std::vector<ScoredObject> TopKScan(const std::vector<Vec>& coeffs,
                                   const std::vector<bool>* active,
                                   const Vec& w, int k, int exclude = -1);

/// Score of the k-th best row (ascending) under `w`, excluding `exclude`;
/// +infinity when fewer than k rows qualify. This is the hit threshold t_q.
double KthBestScore(const std::vector<Vec>& coeffs,
                    const std::vector<bool>* active, const Vec& w, int k,
                    int exclude = -1);

}  // namespace iq

#endif  // IQ_TOPK_TOPK_H_
