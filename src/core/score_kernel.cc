#include "core/score_kernel.h"

#include <algorithm>
#include <cstddef>

#include "topk/topk.h"

namespace iq {

ScoreKernel ScoreKernel::Build(const std::vector<Vec>& rows,
                               const std::vector<bool>* active,
                               int num_slots) {
  ScoreKernel k;
  k.num_slots_ = num_slots;
  k.ids_.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (active != nullptr && !(*active)[i]) continue;
    if (rows[i].size() < static_cast<size_t>(num_slots)) continue;
    k.ids_.push_back(static_cast<int>(i));
  }
  k.num_rows_ = static_cast<int>(k.ids_.size());
  k.data_.resize(static_cast<size_t>(num_slots) *
                 static_cast<size_t>(k.num_rows_));
  for (int s = 0; s < num_slots; ++s) {
    double* col = k.data_.data() + static_cast<size_t>(s) *
                                       static_cast<size_t>(k.num_rows_);
    for (int d = 0; d < k.num_rows_; ++d) {
      col[d] = rows[static_cast<size_t>(k.ids_[static_cast<size_t>(d)])]
                   [static_cast<size_t>(s)];
    }
  }
  return k;
}

void ScoreKernel::ScoreAll(const Vec& w, std::vector<double>* out) const {
  const int n = num_rows_;
  out->assign(static_cast<size_t>(n), 0.0);
  double* o = out->data();
  for (int s = 0; s < num_slots_; ++s) {
    const double* col =
        data_.data() + static_cast<size_t>(s) * static_cast<size_t>(n);
    const double ws = w[static_cast<size_t>(s)];
    for (int d = 0; d < n; ++d) o[d] += col[d] * ws;
  }
}

std::vector<int> ScoreKernel::TopKappaSignature(
    const Vec& w, int kappa, std::vector<double>* scratch) const {
  ScoreAll(w, scratch);
  std::vector<ScoredObject> scored;
  scored.reserve(static_cast<size_t>(num_rows_));
  for (int d = 0; d < num_rows_; ++d) {
    scored.push_back({ids_[static_cast<size_t>(d)],
                      (*scratch)[static_cast<size_t>(d)]});
  }
  const size_t k = std::min<size_t>(static_cast<size_t>(kappa), scored.size());
  // Same comparator as TopKScan so the signature is bit-identical.
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end(),
                    [](const ScoredObject& a, const ScoredObject& b) {
                      if (a.score != b.score) return a.score < b.score;
                      return a.id < b.id;
                    });
  std::vector<int> sig;
  sig.reserve(k);
  for (size_t i = 0; i < k; ++i) sig.push_back(scored[i].id);
  return sig;
}

int ScoreKernel::CountHits(const Vec& w,
                           const std::vector<double>& thresholds) const {
  constexpr int kBlock = 256;
  double acc[kBlock];
  const int n = num_rows_;
  const double* th = thresholds.data();
  int hits = 0;
  for (int base = 0; base < n; base += kBlock) {
    const int len = std::min(kBlock, n - base);
    for (int d = 0; d < len; ++d) acc[d] = 0.0;
    for (int s = 0; s < num_slots_; ++s) {
      const double* col = data_.data() +
                          static_cast<size_t>(s) * static_cast<size_t>(n) +
                          static_cast<size_t>(base);
      const double ws = w[static_cast<size_t>(s)];
      for (int d = 0; d < len; ++d) acc[d] += col[d] * ws;
    }
    const double* bth = th + base;
    int block_hits = 0;
    for (int d = 0; d < len; ++d) {
      block_hits += HitByThreshold(acc[d], bth[d]) ? 1 : 0;
    }
    hits += block_hits;
  }
  return hits;
}

}  // namespace iq
