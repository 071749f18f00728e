#include "topk/threshold_algorithm.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_set>

namespace iq {

ThresholdAlgorithm::ThresholdAlgorithm(const std::vector<Vec>* coeffs)
    : coeffs_(coeffs) {
  if (coeffs_->empty()) return;
  const int slots = static_cast<int>((*coeffs_)[0].size());
  sorted_.resize(static_cast<size_t>(slots));
  for (int s = 0; s < slots; ++s) {
    auto& list = sorted_[static_cast<size_t>(s)];
    list.resize(coeffs_->size());
    for (size_t i = 0; i < coeffs_->size(); ++i) list[i] = static_cast<int>(i);
    std::sort(list.begin(), list.end(), [&](int a, int b) {
      double va = (*coeffs_)[static_cast<size_t>(a)][static_cast<size_t>(s)];
      double vb = (*coeffs_)[static_cast<size_t>(b)][static_cast<size_t>(s)];
      if (va != vb) return va < vb;
      return a < b;
    });
  }
}

Result<std::vector<ScoredObject>> ThresholdAlgorithm::TopK(
    const Vec& w, int k, const std::vector<bool>* active, int exclude) const {
  last_accesses_ = 0;
  for (double x : w) {
    if (x < 0) {
      return Status::InvalidArgument(
          "threshold algorithm requires non-negative weights");
    }
  }
  if (coeffs_->empty() || k <= 0) return std::vector<ScoredObject>{};
  if (w.size() != sorted_.size()) {
    return Status::InvalidArgument("weight length mismatch");
  }

  auto usable = [&](int id) {
    if (id == exclude) return false;
    return active == nullptr || (*active)[static_cast<size_t>(id)];
  };

  auto cmp = [](const ScoredObject& a, const ScoredObject& b) {
    return RanksBefore(a.score, a.id, b.score, b.id);
  };
  // Max-heap semantics via a sorted vector of at most k best seen.
  std::vector<ScoredObject> best;
  std::unordered_set<int> seen;

  const size_t n = coeffs_->size();
  const size_t slots = sorted_.size();
  for (size_t depth = 0; depth < n; ++depth) {
    double threshold = 0.0;
    for (size_t s = 0; s < slots; ++s) {
      int id = sorted_[s][depth];
      ++last_accesses_;
      threshold +=
          w[s] * (*coeffs_)[static_cast<size_t>(id)][s];
      if (seen.insert(id).second && usable(id)) {
        double score = Dot((*coeffs_)[static_cast<size_t>(id)], w);
        ScoredObject so{id, score};
        auto pos = std::lower_bound(best.begin(), best.end(), so, cmp);
        best.insert(pos, so);
        if (static_cast<int>(best.size()) > k) best.pop_back();
      }
    }
    // Stop when k objects are at least as good as anything unseen.
    if (static_cast<int>(best.size()) >= k && best.back().score <= threshold) {
      break;
    }
  }
  return best;
}

}  // namespace iq
