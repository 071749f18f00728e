#ifndef IQ_EXPR_LINEARIZE_H_
#define IQ_EXPR_LINEARIZE_H_

#include <string>
#include <utility>
#include <vector>

#include "expr/expr.h"
#include "geom/vec.h"
#include "util/status.h"

namespace iq {

/// A product of attribute powers with a coefficient: coef * Π x_a^e.
struct Monomial {
  double coef = 0.0;
  /// (attribute index, exponent >= 1) pairs, sorted by attribute index.
  std::vector<std::pair<int, int>> factors;

  double Eval(const Vec& attrs) const;
  /// Accumulates scale * ∂(this)/∂x into grad (same length as attrs).
  void AccumulateGradient(const Vec& attrs, double scale, Vec* grad) const;
  std::string ToString() const;
};

/// A polynomial in the object attributes (one augmented attribute g_j(p)).
using AttrPoly = std::vector<Monomial>;

double EvalPoly(const AttrPoly& poly, const Vec& attrs);

/// The linear-in-weights form produced by variable substitution (§5.2):
///
///   score(p, w)  ==rank==  Σ_j  w_j * g_j(p)   [ + 1 * bias(p) ]
///
/// where every g_j (and the optional bias) is a polynomial over the original
/// attributes — the paper's "augmented attributes", computed on the fly
/// rather than stored. This is the single representation the core engine
/// consumes: objects become coefficient vectors [g_1(p), .., g_W(p), bias(p)]
/// and queries become augmented weight vectors [w, 1].
class LinearForm {
 public:
  /// The plain linear utility score = w . p over `dim` attributes.
  static LinearForm Identity(int dim);

  /// slots.size() must equal num_weights + (has_bias ? 1 : 0); the bias slot,
  /// if present, is last and its query weight is fixed to 1.
  static LinearForm FromSlots(std::vector<AttrPoly> slots, int num_weights,
                              bool has_bias);

  int num_weights() const { return num_weights_; }
  int num_slots() const { return static_cast<int>(slots_.size()); }
  bool has_bias() const { return has_bias_; }

  /// Augmented coefficient vector of an object (length num_slots()).
  Vec Coefficients(const Vec& attrs) const;
  /// Coefficients(attrs) written to out[0 .. num_slots()).
  void CoefficientsInto(const Vec& attrs, double* out) const;

  /// Augmented weight vector of a query (length num_slots()).
  Vec AugmentWeights(const Vec& weights) const;

  /// Linear-form score: AugmentWeights(w) . Coefficients(p).
  double Score(const Vec& attrs, const Vec& weights) const;

  /// Gradient of Score with respect to the original attributes.
  Vec ScoreGradient(const Vec& attrs, const Vec& weights) const;

  /// True when linearization dropped query-constant terms (identical offset
  /// for every object under a fixed query — rank-preserving, score-shifting).
  bool dropped_rank_irrelevant_terms() const { return dropped_terms_; }
  void set_dropped_rank_irrelevant_terms(bool v) { dropped_terms_ = v; }

  /// True when a root-level monotone wrapper (sqrt) was stripped — ranking
  /// is preserved for non-negative scores, values are not.
  bool stripped_monotone_wrapper() const { return stripped_wrapper_; }
  void set_stripped_monotone_wrapper(bool v) { stripped_wrapper_ = v; }

  const AttrPoly& slot(int j) const { return slots_[static_cast<size_t>(j)]; }
  std::string SlotDescription(int j) const;

 private:
  std::vector<AttrPoly> slots_;
  int num_weights_ = 0;
  bool has_bias_ = false;
  bool dropped_terms_ = false;
  bool stripped_wrapper_ = false;
};

/// Variable substitution (§5.2): converts a utility expression into a
/// LinearForm when the expression is a sum of terms, each being
///  - a polynomial in attributes only               -> bias slot,
///  - (single weight)^1 times an attribute monomial -> that weight's slot,
///  - weights only (any degree)                     -> dropped
///    (constant per query, cannot change any ranking), or
///  - a constant                                    -> dropped likewise.
/// A root-level sqrt(...) wrapper is stripped first (monotone, Eq. 23-25).
/// Anything else (e.g. w^2 * x, w1*w2*x, x in a denominator) is rejected
/// with InvalidArgument; callers then use the general non-linear path.
Result<LinearForm> Linearize(const ExprNode& expr, int dim, int num_weights);

}  // namespace iq

#endif  // IQ_EXPR_LINEARIZE_H_
