#ifndef IQ_TESTS_TEST_WORLD_H_
#define IQ_TESTS_TEST_WORLD_H_

#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "core/function_view.h"
#include "core/query.h"
#include "core/subdomain_index.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "util/check.h"

namespace iq {

/// A self-owning (dataset, queries, view, index) bundle for tests.
struct TestWorld {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<QuerySet> queries;
  std::unique_ptr<FunctionView> view;
  std::unique_ptr<SubdomainIndex> index;

  static TestWorld Linear(int n, int m, int dim, uint64_t seed,
                          int k_max = 5) {
    TestWorld w;
    w.data = std::make_unique<Dataset>(MakeIndependent(n, dim, seed));
    w.queries = std::make_unique<QuerySet>(dim);
    QueryGenOptions qopts;
    qopts.k_max = k_max;
    for (TopKQuery& q : MakeQueries(m, dim, seed + 1, qopts)) {
      IQ_CHECK(w.queries->Add(std::move(q)).ok());
    }
    w.view = std::make_unique<FunctionView>(w.data.get(),
                                            LinearForm::Identity(dim));
    auto index = SubdomainIndex::Build(w.view.get(), w.queries.get());
    IQ_CHECK(index.ok());
    w.index = std::make_unique<SubdomainIndex>(std::move(*index));
    return w;
  }

  static TestWorld Polynomial(int n, int m, int dim, int num_terms,
                              uint64_t seed, int k_max = 5) {
    TestWorld w;
    w.data = std::make_unique<Dataset>(MakeIndependent(n, dim, seed));
    auto util = MakePolynomialUtility(dim, num_terms, 3, seed + 2);
    IQ_CHECK(util.ok());
    w.queries = std::make_unique<QuerySet>(util->num_weights);
    QueryGenOptions qopts;
    qopts.k_max = k_max;
    for (TopKQuery& q :
         MakeQueries(m, util->num_weights, seed + 1, qopts)) {
      IQ_CHECK(w.queries->Add(std::move(q)).ok());
    }
    w.view = std::make_unique<FunctionView>(w.data.get(),
                                            std::move(util->form));
    auto index = SubdomainIndex::Build(w.view.get(), w.queries.get());
    IQ_CHECK(index.ok());
    w.index = std::make_unique<SubdomainIndex>(std::move(*index));
    return w;
  }

  void RebuildIndex() {
    auto index = SubdomainIndex::Build(view.get(), queries.get());
    IQ_CHECK(index.ok());
    this->index = std::make_unique<SubdomainIndex>(std::move(*index));
  }
};

/// H(p_target + s) recounted by the brute-force evaluator.
inline int VerifyHits(const TestWorld& w, int target, const Vec& s) {
  BruteForceEvaluator brute(w.view.get(), w.queries.get(), target);
  return brute.HitsForCoeffs(
      w.view->CoefficientsFor(Add(w.data->attrs(target), s)));
}

/// An engine over `n` independent objects and `m` queries with k <= 5.
inline Result<IqEngine> MakeEngine(int n, int m, int dim, uint64_t seed,
                                   int num_threads = 0) {
  QueryGenOptions qopts;
  qopts.k_max = 5;
  EngineOptions options;
  options.num_threads = num_threads;
  return IqEngine::Create(MakeIndependent(n, dim, seed),
                          LinearForm::Identity(dim),
                          MakeQueries(m, dim, seed + 1, qopts), options);
}

/// The live-updated index agrees with a from-scratch rebuild: the same
/// signature for every active query (subdomain ids are arbitrary) and the
/// same hit count for every active object.
inline void ExpectEquivalentToRebuild(const TestWorld& w) {
  auto rebuilt = SubdomainIndex::Build(w.view.get(), w.queries.get());
  ASSERT_TRUE(rebuilt.ok());
  for (int q = 0; q < w.queries->size(); ++q) {
    if (!w.queries->is_active(q)) continue;
    EXPECT_EQ(w.index->signature(w.index->subdomain_of(q)),
              rebuilt->signature(rebuilt->subdomain_of(q)))
        << "query " << q;
  }
  for (int i = 0; i < w.data->size(); ++i) {
    if (!w.data->is_active(i)) continue;
    EXPECT_EQ(w.index->HitCount(i), rebuilt->HitCount(i)) << "object " << i;
  }
}

/// Everything observable about an IqResult except wall-clock timings.
inline void ExpectIdenticalResults(const IqResult& a, const IqResult& b,
                                   const char* what) {
  ASSERT_EQ(a.strategy.size(), b.strategy.size()) << what;
  for (size_t j = 0; j < a.strategy.size(); ++j) {
    // Bit-identical, not approximately equal: both runs must perform the
    // same floating-point operations in the same order.
    EXPECT_EQ(a.strategy[j], b.strategy[j]) << what << " component " << j;
  }
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.hits_before, b.hits_before) << what;
  EXPECT_EQ(a.hits_after, b.hits_after) << what;
  EXPECT_EQ(a.reached_goal, b.reached_goal) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.evaluator_calls, b.evaluator_calls) << what;
  EXPECT_EQ(a.breakdown.iterations, b.breakdown.iterations) << what;
  EXPECT_EQ(a.breakdown.candidates_generated, b.breakdown.candidates_generated)
      << what;
  EXPECT_EQ(a.breakdown.candidates_evaluated, b.breakdown.candidates_evaluated)
      << what;
  EXPECT_EQ(a.breakdown.evaluator_calls, b.breakdown.evaluator_calls) << what;
  EXPECT_EQ(a.breakdown.queries_rescored, b.breakdown.queries_rescored)
      << what;
  EXPECT_EQ(a.breakdown.queries_reused, b.breakdown.queries_reused) << what;
}

}  // namespace iq

#endif  // IQ_TESTS_TEST_WORLD_H_
