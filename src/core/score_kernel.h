#ifndef IQ_CORE_SCORE_KERNEL_H_
#define IQ_CORE_SCORE_KERNEL_H_

#include <vector>

#include "geom/vec.h"

namespace iq {

/// Structure-of-arrays batch scoring kernel (DESIGN.md §13). The row-major
/// layouts the library naturally holds — FunctionView's std::vector<Vec>
/// coefficient matrix, SubdomainIndex's per-query augmented weights — cost
/// one pointer chase per row in the hot scoring loops (f_p(q) dot products
/// in ESE evaluation, top-κ signature ranking). ScoreKernel mirrors the
/// *active* rows of such a matrix into contiguous per-slot (per-dimension)
/// columns, so batch scoring becomes plain indexed tight loops the compiler
/// can vectorize.
///
/// FP-equality contract (verified by tests/kernel_equiv_test.cc): every
/// kernel accumulates each row's score in ascending slot order — exactly
/// the evaluation order of the scalar reference Dot(row, w) — so kernel
/// scores are BIT-IDENTICAL to the scalar path, not merely close. No
/// horizontal-SIMD reduction or accumulator splitting is permitted here:
/// downstream equality is defined by score *comparisons* (HitByThreshold,
/// the (score, id) signature order), and those comparisons only stay
/// stable across code paths because the float sums themselves never
/// reassociate. Vectorization happens across rows or across candidate
/// lanes (independent sums), never within one (row, candidate) sum:
/// CountHitsBatch gives every candidate its own lane and adds that lane's
/// terms in ascending slot order from 0.0, so each count equals CountHits.
/// Measured (DESIGN.md §13.3, micro_ese, n = 10000, no -march): one batch
/// pass over 64 3-slot candidates costs 852 ns per candidate at m = 1000
/// and 3228 ns at m = 4000, against 2683 ns and 11222 ns for one CountHits
/// pass each (3.1x and 3.5x).
///
/// Lifecycle: a kernel is an immutable snapshot of the rows it was built
/// from. Owners rebuild it when the underlying matrix or active set
/// changes: SubdomainIndex builds both of its kernels in Build, rebuilds
/// the changed side's kernel in every maintenance hook and shares them
/// with its copy-on-write clones, so its kernels are never null or stale.
/// Concurrency: after construction the kernel is read-only; any number of
/// threads may score against it with no synchronization.
class ScoreKernel {
 public:
  ScoreKernel() = default;

  /// Packs the active rows of `rows` (row i included iff `active` is null
  /// or (*active)[i]; rows shorter than num_slots are skipped as inactive
  /// placeholders) into slot-major storage. Dense order is ascending row
  /// id, matching the scan order of the scalar reference loops.
  static ScoreKernel Build(const std::vector<Vec>& rows,
                           const std::vector<bool>* active, int num_slots);

  /// Dense (packed, active-only) row count.
  int num_rows() const { return num_rows_; }
  int num_slots() const { return num_slots_; }
  bool empty() const { return num_rows_ == 0; }
  /// Original row id of dense row d (ascending in d).
  int id_at(int d) const { return ids_[static_cast<size_t>(d)]; }
  const std::vector<int>& ids() const { return ids_; }

  /// Scores every dense row under `w`: (*out)[d] == Dot(rows[id_at(d)], w)
  /// bit-for-bit. `out` is resized to num_rows().
  void ScoreAll(const Vec& w, std::vector<double>* out) const;

  /// The ordered top-κ row ids under `w` — ascending (score, id), i.e. the
  /// id sequence of TopKScan(rows, active, w, kappa) — as one batch-scored
  /// pass. `scratch` avoids per-call allocation of the score buffer; pass
  /// any vector (resized internally).
  std::vector<int> TopKappaSignature(const Vec& w, int kappa,
                                     std::vector<double>* scratch) const;

  /// Number of dense rows whose score under `w` beats the row's threshold:
  /// count of HitByThreshold(score(d), thresholds[d]). `thresholds` is
  /// indexed densely (aligned with ids()); NaN thresholds never hit, like
  /// the scalar path. Runs blocked so the fused score+compare loop needs no
  /// allocation.
  int CountHits(const Vec& w, const std::vector<double>& thresholds) const;

  /// CountHits for `count` candidates in one pass over the rows:
  /// out[c] == CountHits(w_c, thresholds), bit for bit, where w_c is the
  /// num_slots() doubles at coeffs + c * num_slots(). For kBatchSlots slots
  /// each row (its slots and its threshold) is loaded once per block of
  /// kBatchLanes candidates held in registers; other slot counts and the
  /// last partial block run CountHits per candidate.
  void CountHitsBatch(const double* coeffs, int count,
                      const std::vector<double>& thresholds, int* out) const;

  /// Candidates scored per pass by CountHitsBatch.
  static constexpr int kBatchLanes = 8;
  /// The slot count CountHitsBatch is specialised for: d = 3 under the
  /// identity form, the shape of every perfbench workload.
  static constexpr int kBatchSlots = 3;

  size_t MemoryBytes() const {
    return sizeof(ScoreKernel) + data_.capacity() * sizeof(double) +
           ids_.capacity() * sizeof(int);
  }

 private:
  /// CountHits for the num_slots() doubles at `w`, thresholds at `th`.
  int CountHitsOne(const double* w, const double* th) const;

  /// Slot-major: data_[s * num_rows_ + d] = rows[ids_[d]][s].
  std::vector<double> data_;
  std::vector<int> ids_;
  int num_rows_ = 0;
  int num_slots_ = 0;
};

}  // namespace iq

#endif  // IQ_CORE_SCORE_KERNEL_H_
