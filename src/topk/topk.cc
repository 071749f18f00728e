#include "topk/topk.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace iq {

std::vector<ScoredObject> TopKScan(const std::vector<Vec>& coeffs,
                                   const std::vector<bool>* active,
                                   const Vec& w, int k, int exclude) {
  std::vector<ScoredObject> scored;
  scored.reserve(coeffs.size());
  for (int i = 0; i < static_cast<int>(coeffs.size()); ++i) {
    if (i == exclude) continue;
    if (active != nullptr && !(*active)[static_cast<size_t>(i)]) continue;
    scored.push_back({i, Dot(coeffs[static_cast<size_t>(i)], w)});
  }
  auto cmp = [](const ScoredObject& a, const ScoredObject& b) {
    return RanksBefore(a.score, a.id, b.score, b.id);
  };
  int kk = std::min<int>(k, static_cast<int>(scored.size()));
  std::partial_sort(scored.begin(), scored.begin() + kk, scored.end(), cmp);
  scored.resize(static_cast<size_t>(kk));
  return scored;
}

double KthBestScore(const std::vector<Vec>& coeffs,
                    const std::vector<bool>* active, const Vec& w, int k,
                    int exclude) {
  // Max-heap of the best k scores seen so far.
  std::priority_queue<double> heap;
  for (int i = 0; i < static_cast<int>(coeffs.size()); ++i) {
    if (i == exclude) continue;
    if (active != nullptr && !(*active)[static_cast<size_t>(i)]) continue;
    double s = Dot(coeffs[static_cast<size_t>(i)], w);
    if (static_cast<int>(heap.size()) < k) {
      heap.push(s);
    } else if (s < heap.top()) {
      heap.pop();
      heap.push(s);
    }
  }
  if (static_cast<int>(heap.size()) < k) {
    return std::numeric_limits<double>::infinity();
  }
  return heap.top();
}

}  // namespace iq
