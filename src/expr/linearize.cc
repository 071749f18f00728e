#include "expr/linearize.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/check.h"
#include "util/string_util.h"

namespace iq {

double Monomial::Eval(const Vec& attrs) const {
  double v = coef;
  for (const auto& [attr, exp] : factors) {
    double base = attrs[static_cast<size_t>(attr)];
    for (int e = 0; e < exp; ++e) v *= base;
  }
  return v;
}

void Monomial::AccumulateGradient(const Vec& attrs, double scale,
                                  Vec* grad) const {
  for (size_t k = 0; k < factors.size(); ++k) {
    // d/dx_k: exponent rule, product of the remaining factors unchanged.
    double v = coef * static_cast<double>(factors[k].second);
    for (size_t j = 0; j < factors.size(); ++j) {
      double base = attrs[static_cast<size_t>(factors[j].first)];
      int exp = factors[j].second - (j == k ? 1 : 0);
      for (int e = 0; e < exp; ++e) v *= base;
    }
    (*grad)[static_cast<size_t>(factors[k].first)] += scale * v;
  }
}

std::string Monomial::ToString() const {
  std::string out = StrFormat("%g", coef);
  for (const auto& [attr, exp] : factors) {
    out += StrFormat("*x%d", attr + 1);
    if (exp > 1) out += StrFormat("^%d", exp);
  }
  return out;
}

double EvalPoly(const AttrPoly& poly, const Vec& attrs) {
  double v = 0.0;
  for (const Monomial& m : poly) v += m.Eval(attrs);
  return v;
}

LinearForm LinearForm::Identity(int dim) {
  std::vector<AttrPoly> slots(static_cast<size_t>(dim));
  for (int j = 0; j < dim; ++j) {
    slots[static_cast<size_t>(j)] = {Monomial{1.0, {{j, 1}}}};
  }
  return FromSlots(std::move(slots), dim, /*has_bias=*/false);
}

LinearForm LinearForm::FromSlots(std::vector<AttrPoly> slots, int num_weights,
                                 bool has_bias) {
  IQ_CHECK(static_cast<int>(slots.size()) == num_weights + (has_bias ? 1 : 0));
  LinearForm f;
  f.slots_ = std::move(slots);
  f.num_weights_ = num_weights;
  f.has_bias_ = has_bias;
  return f;
}

Vec LinearForm::Coefficients(const Vec& attrs) const {
  Vec c(slots_.size());
  CoefficientsInto(attrs, c.data());
  return c;
}

void LinearForm::CoefficientsInto(const Vec& attrs, double* out) const {
  for (size_t j = 0; j < slots_.size(); ++j) {
    out[j] = EvalPoly(slots_[j], attrs);
  }
}

Vec LinearForm::AugmentWeights(const Vec& weights) const {
  IQ_DCHECK(static_cast<int>(weights.size()) == num_weights_);
  Vec w = weights;
  if (has_bias_) w.push_back(1.0);
  return w;
}

double LinearForm::Score(const Vec& attrs, const Vec& weights) const {
  double s = 0.0;
  for (size_t j = 0; j < static_cast<size_t>(num_weights_); ++j) {
    s += weights[j] * EvalPoly(slots_[j], attrs);
  }
  if (has_bias_) s += EvalPoly(slots_.back(), attrs);
  return s;
}

Vec LinearForm::ScoreGradient(const Vec& attrs, const Vec& weights) const {
  Vec grad = Zeros(static_cast<int>(attrs.size()));
  for (size_t j = 0; j < static_cast<size_t>(num_weights_); ++j) {
    for (const Monomial& m : slots_[j]) {
      m.AccumulateGradient(attrs, weights[j], &grad);
    }
  }
  if (has_bias_) {
    for (const Monomial& m : slots_.back()) {
      m.AccumulateGradient(attrs, 1.0, &grad);
    }
  }
  return grad;
}

std::string LinearForm::SlotDescription(int j) const {
  const AttrPoly& poly = slots_[static_cast<size_t>(j)];
  if (poly.empty()) return "0";
  std::vector<std::string> parts;
  parts.reserve(poly.size());
  for (const Monomial& m : poly) parts.push_back(m.ToString());
  return StrJoin(parts, " + ");
}

namespace {

/// A fully expanded product term: coef * Π x^e * Π w^e.
struct RawTerm {
  double coef = 1.0;
  std::map<int, int> attr_exp;
  std::map<int, int> weight_exp;
};

constexpr size_t kMaxTerms = 4096;

Result<std::vector<RawTerm>> Expand(const ExprNode& node);

Result<std::vector<RawTerm>> ExpandProduct(const std::vector<RawTerm>& a,
                                           const std::vector<RawTerm>& b) {
  if (a.size() * b.size() > kMaxTerms) {
    return Status::ResourceExhausted("polynomial expansion too large");
  }
  std::vector<RawTerm> out;
  out.reserve(a.size() * b.size());
  for (const RawTerm& ta : a) {
    for (const RawTerm& tb : b) {
      RawTerm t = ta;
      t.coef *= tb.coef;
      for (const auto& [v, e] : tb.attr_exp) t.attr_exp[v] += e;
      for (const auto& [v, e] : tb.weight_exp) t.weight_exp[v] += e;
      out.push_back(std::move(t));
    }
  }
  return out;
}

Result<std::vector<RawTerm>> ExpandPow(const ExprNode& base_node,
                                       const ExprNode& exp_node) {
  if (exp_node.kind != ExprNode::Kind::kConst) {
    return Status::InvalidArgument("non-constant exponent is not polynomial");
  }
  double e = exp_node.value;
  if (e < 0 || std::fabs(e - std::round(e)) > 1e-12) {
    return Status::InvalidArgument(
        "exponent must be a non-negative integer for linearization");
  }
  int n = static_cast<int>(std::round(e));
  std::vector<RawTerm> result = {RawTerm{}};  // 1
  IQ_ASSIGN_OR_RETURN(std::vector<RawTerm> base, Expand(base_node));
  for (int i = 0; i < n; ++i) {
    IQ_ASSIGN_OR_RETURN(result, ExpandProduct(result, base));
  }
  return result;
}

Result<std::vector<RawTerm>> Expand(const ExprNode& node) {
  using Kind = ExprNode::Kind;
  switch (node.kind) {
    case Kind::kConst: {
      RawTerm t;
      t.coef = node.value;
      return std::vector<RawTerm>{t};
    }
    case Kind::kAttr: {
      RawTerm t;
      t.attr_exp[node.var_index] = 1;
      return std::vector<RawTerm>{t};
    }
    case Kind::kWeight: {
      RawTerm t;
      t.weight_exp[node.var_index] = 1;
      return std::vector<RawTerm>{t};
    }
    case Kind::kAdd:
    case Kind::kSub: {
      IQ_ASSIGN_OR_RETURN(std::vector<RawTerm> lhs, Expand(*node.children[0]));
      IQ_ASSIGN_OR_RETURN(std::vector<RawTerm> rhs, Expand(*node.children[1]));
      if (node.kind == Kind::kSub) {
        for (RawTerm& t : rhs) t.coef = -t.coef;
      }
      lhs.insert(lhs.end(), rhs.begin(), rhs.end());
      if (lhs.size() > kMaxTerms) {
        return Status::ResourceExhausted("polynomial expansion too large");
      }
      return lhs;
    }
    case Kind::kNeg: {
      IQ_ASSIGN_OR_RETURN(std::vector<RawTerm> inner,
                          Expand(*node.children[0]));
      for (RawTerm& t : inner) t.coef = -t.coef;
      return inner;
    }
    case Kind::kMul: {
      IQ_ASSIGN_OR_RETURN(std::vector<RawTerm> lhs, Expand(*node.children[0]));
      IQ_ASSIGN_OR_RETURN(std::vector<RawTerm> rhs, Expand(*node.children[1]));
      return ExpandProduct(lhs, rhs);
    }
    case Kind::kDiv: {
      IQ_ASSIGN_OR_RETURN(std::vector<RawTerm> rhs, Expand(*node.children[1]));
      if (rhs.size() != 1 || !rhs[0].attr_exp.empty() ||
          !rhs[0].weight_exp.empty()) {
        return Status::InvalidArgument(
            "division by a non-constant is not polynomial");
      }
      if (rhs[0].coef == 0.0) {
        return Status::InvalidArgument("division by zero in expression");
      }
      IQ_ASSIGN_OR_RETURN(std::vector<RawTerm> lhs, Expand(*node.children[0]));
      for (RawTerm& t : lhs) t.coef /= rhs[0].coef;
      return lhs;
    }
    case Kind::kPow:
      return ExpandPow(*node.children[0], *node.children[1]);
    case Kind::kCall:
      if (node.func == "pow") {
        return ExpandPow(*node.children[0], *node.children[1]);
      }
      return Status::InvalidArgument("function '" + node.func +
                                     "' is not polynomial");
  }
  return Status::Internal("unhandled node kind");
}

std::string TermKey(const RawTerm& t) {
  std::string key;
  for (const auto& [v, e] : t.attr_exp) key += StrFormat("x%d^%d ", v, e);
  for (const auto& [v, e] : t.weight_exp) key += StrFormat("w%d^%d ", v, e);
  return key;
}

}  // namespace

Result<LinearForm> Linearize(const ExprNode& expr, int dim, int num_weights) {
  const ExprNode* root = &expr;
  bool stripped = false;
  // Strip a root-level monotone wrapper (Eq. 23-25: sqrt of a sum of squares
  // ranks identically to the sum of squares itself).
  while (root->kind == ExprNode::Kind::kCall && root->func == "sqrt") {
    root = root->children[0].get();
    stripped = true;
  }

  IQ_ASSIGN_OR_RETURN(std::vector<RawTerm> raw, Expand(*root));

  // Combine like terms.
  std::map<std::string, RawTerm> combined;
  for (RawTerm& t : raw) {
    std::string key = TermKey(t);
    auto it = combined.find(key);
    if (it == combined.end()) {
      combined.emplace(std::move(key), std::move(t));
    } else {
      it->second.coef += t.coef;
    }
  }

  std::vector<AttrPoly> weight_slots(static_cast<size_t>(num_weights));
  AttrPoly bias;
  bool dropped = false;

  for (auto& [key, t] : combined) {
    if (std::fabs(t.coef) < 1e-300) continue;
    Monomial m;
    m.coef = t.coef;
    for (const auto& [v, e] : t.attr_exp) m.factors.emplace_back(v, e);

    if (t.weight_exp.empty()) {
      if (t.attr_exp.empty()) {
        dropped = true;  // pure constant: identical for every object
      } else {
        bias.push_back(std::move(m));
      }
      continue;
    }
    if (t.attr_exp.empty()) {
      // Weights only: constant offset per query — cannot change a ranking.
      dropped = true;
      continue;
    }
    if (t.weight_exp.size() == 1 && t.weight_exp.begin()->second == 1) {
      int w = t.weight_exp.begin()->first;
      if (w >= num_weights) {
        return Status::OutOfRange(StrFormat("weight w%d out of range", w + 1));
      }
      weight_slots[static_cast<size_t>(w)].push_back(std::move(m));
      continue;
    }
    return Status::InvalidArgument("term is not linear in the weights: " +
                                   key);
  }

  (void)dim;
  bool has_bias = !bias.empty();
  std::vector<AttrPoly> slots = std::move(weight_slots);
  if (has_bias) slots.push_back(std::move(bias));
  LinearForm form =
      LinearForm::FromSlots(std::move(slots), num_weights, has_bias);
  form.set_dropped_rank_irrelevant_terms(dropped);
  form.set_stripped_monotone_wrapper(stripped);
  return form;
}

}  // namespace iq
