#include "core/score_kernel.h"

#include <algorithm>
#include <cstddef>

#include "topk/topk.h"

namespace iq {
namespace {

// Two doubles per vector: the portable x86-64 baseline (SSE2) width. GCC
// and Clang lower these to whatever the target offers.
typedef double Lane2 __attribute__((vector_size(16)));
using Mask2 = decltype(Lane2{} < Lane2{});

/// Hit counts of kBatchLanes candidates (candidate-major at `w`, kSlots
/// doubles each) over the n rows of slot-major `data`. Each lane adds its
/// row's terms in ascending slot order from 0.0 and compares with `<`, so
/// every count is the one CountHits computes; a NaN threshold compares false
/// in every lane.
template <int kSlots>
void CountHitsBlock(const double* data, int n, const double* w,
                    const double* th, int* out) {
  constexpr int kVecs = ScoreKernel::kBatchLanes / 2;
  Lane2 wt[kSlots][kVecs];
  for (int v = 0; v < kVecs; ++v) {
    for (int s = 0; s < kSlots; ++s) {
      wt[s][v] = Lane2{w[(2 * v) * kSlots + s], w[(2 * v + 1) * kSlots + s]};
    }
  }
  Mask2 hits[kVecs];
  for (int v = 0; v < kVecs; ++v) hits[v] = Mask2{0, 0};
  const double* col[kSlots];
  for (int s = 0; s < kSlots; ++s) {
    col[s] = data + static_cast<size_t>(s) * static_cast<size_t>(n);
  }
  for (int d = 0; d < n; ++d) {
    Lane2 row[kSlots];
    for (int s = 0; s < kSlots; ++s) row[s] = Lane2{col[s][d], col[s][d]};
    const Lane2 t = Lane2{th[d], th[d]};
    for (int v = 0; v < kVecs; ++v) {
      Lane2 acc = Lane2{0.0, 0.0};
      for (int s = 0; s < kSlots; ++s) acc += row[s] * wt[s][v];
      hits[v] -= acc < t;  // a true lane compares to -1
    }
  }
  for (int v = 0; v < kVecs; ++v) {
    out[2 * v] = static_cast<int>(hits[v][0]);
    out[2 * v + 1] = static_cast<int>(hits[v][1]);
  }
}

}  // namespace

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
  // Same order as TopKScan so the signature is bit-identical.
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end(),
                    [](const ScoredObject& a, const ScoredObject& b) {
                      return RanksBefore(a.score, a.id, b.score, b.id);
                    });
  std::vector<int> sig;
  sig.reserve(k);
  for (size_t i = 0; i < k; ++i) sig.push_back(scored[i].id);
  return sig;
}

int ScoreKernel::CountHits(const Vec& w,
                           const std::vector<double>& thresholds) const {
  return CountHitsOne(w.data(), thresholds.data());
}

int ScoreKernel::CountHitsOne(const double* w, const double* th) const {
  constexpr int kBlock = 256;
  double acc[kBlock];
  const int n = num_rows_;
  int hits = 0;
  for (int base = 0; base < n; base += kBlock) {
    const int len = std::min(kBlock, n - base);
    for (int d = 0; d < len; ++d) acc[d] = 0.0;
    for (int s = 0; s < num_slots_; ++s) {
      const double* col = data_.data() +
                          static_cast<size_t>(s) * static_cast<size_t>(n) +
                          static_cast<size_t>(base);
      const double ws = w[s];
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

void ScoreKernel::CountHitsBatch(const double* coeffs, int count,
                                 const std::vector<double>& thresholds,
                                 int* out) const {
  const size_t stride = static_cast<size_t>(num_slots_);
  int c = 0;
  if (num_slots_ == kBatchSlots) {
    for (; c + kBatchLanes <= count; c += kBatchLanes) {
      CountHitsBlock<kBatchSlots>(data_.data(), num_rows_,
                                  coeffs + static_cast<size_t>(c) * stride,
                                  thresholds.data(), out + c);
    }
  }
  for (; c < count; ++c) {
    out[c] = CountHitsOne(coeffs + static_cast<size_t>(c) * stride,
                          thresholds.data());
  }
}

}  // namespace iq
