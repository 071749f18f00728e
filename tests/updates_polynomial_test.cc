// §4.3 maintenance under non-identity (polynomial) utility forms: the
// incremental paths must match a rebuild when coefficients are augmented
// attributes rather than the raw attribute vector.

#include <gtest/gtest.h>

#include "tests/test_world.h"
#include "util/random.h"

namespace iq {
namespace {

class PolynomialChurn : public testing::TestWithParam<uint64_t> {};

TEST_P(PolynomialChurn, InterleavedUpdatesMatchRebuild) {
  TestWorld w = TestWorld::Polynomial(40, 30, 3, 3, GetParam() + 220);
  Rng rng(GetParam() + 221);
  const int num_weights = w.queries->num_weights();
  for (int step = 0; step < 30; ++step) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        TopKQuery q;
        q.k = 1 + static_cast<int>(rng.UniformInt(0, 4));
        q.weights = rng.UniformVector(num_weights, 0.0, 1.0);
        auto id = w.queries->Add(std::move(q));
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(w.index->OnQueryAdded(*id).ok());
        break;
      }
      case 1: {
        int q = static_cast<int>(rng.UniformInt(0, w.queries->size() - 1));
        if (w.queries->is_active(q) && w.queries->num_active() > 5) {
          ASSERT_TRUE(w.queries->Remove(q).ok());
          ASSERT_TRUE(w.index->OnQueryRemoved(q).ok());
        }
        break;
      }
      case 2: {
        int id = w.data->Add(rng.UniformVector(3, 0.0, 1.0));
        w.view->AppendRow(id);
        ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
        break;
      }
      case 3: {
        int id = static_cast<int>(rng.UniformInt(0, w.data->size() - 1));
        if (w.data->is_active(id) && w.data->num_active() > 10) {
          ASSERT_TRUE(w.data->Remove(id).ok());
          ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
        }
        break;
      }
    }
  }
  ExpectEquivalentToRebuild(w);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolynomialChurn,
                         testing::Range<uint64_t>(1, 7));

TEST(PolynomialUpdatesTest, ApplyStrategyProtocolWithAugmentedCoefficients) {
  TestWorld w = TestWorld::Polynomial(30, 25, 2, 2, 230);
  Rng rng(231);
  for (int step = 0; step < 6; ++step) {
    int id = static_cast<int>(rng.UniformInt(0, 29));
    if (!w.data->is_active(id)) continue;
    Vec strategy = {rng.UniformDouble(-0.3, 0.3), rng.UniformDouble(-0.3, 0.3)};
    Vec improved = Add(w.data->attrs(id), strategy);
    ASSERT_TRUE(w.data->Remove(id).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
    ASSERT_TRUE(w.data->SetAttrsIncludingInactive(id, improved).ok());
    ASSERT_TRUE(w.data->Reactivate(id).ok());
    w.view->RefreshRow(id);
    ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
  }
  ExpectEquivalentToRebuild(w);
}

}  // namespace
}  // namespace iq
