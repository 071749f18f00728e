#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_world.h"
#include "util/random.h"

namespace iq {
namespace {

TEST(UpdatesTest, AddQueryMatchesRebuild) {
  TestWorld w = TestWorld::Linear(60, 40, 3, 51);
  Rng rng(52);
  for (int step = 0; step < 15; ++step) {
    TopKQuery q;
    q.k = 1 + static_cast<int>(rng.UniformInt(0, 4));
    q.weights = rng.UniformVector(3, 0.0, 1.0);
    auto id = w.queries->Add(std::move(q));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(w.index->OnQueryAdded(*id).ok());
  }
  EXPECT_EQ(w.index->rtree().size(), 55u);
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, KnnShortcutFiresForNearbyQueries) {
  TestWorld w = TestWorld::Linear(60, 80, 3, 53);
  // Duplicate existing query points: the kNN candidate must match.
  for (int q = 0; q < 10; ++q) {
    TopKQuery copy = w.queries->query(q);
    auto id = w.queries->Add(std::move(copy));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(w.index->OnQueryAdded(*id).ok());
  }
  EXPECT_GE(w.index->knn_shortcut_hits(), 8u);
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, RemoveQueryMatchesRebuild) {
  TestWorld w = TestWorld::Linear(60, 40, 3, 54);
  Rng rng(55);
  for (int step = 0; step < 15; ++step) {
    int q = static_cast<int>(rng.UniformInt(0, 39));
    if (!w.queries->is_active(q)) continue;
    ASSERT_TRUE(w.queries->Remove(q).ok());
    ASSERT_TRUE(w.index->OnQueryRemoved(q).ok());
  }
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, RemoveQueryTwiceFails) {
  TestWorld w = TestWorld::Linear(20, 10, 2, 56);
  ASSERT_TRUE(w.queries->Remove(3).ok());
  ASSERT_TRUE(w.index->OnQueryRemoved(3).ok());
  EXPECT_FALSE(w.index->OnQueryRemoved(3).ok());
  EXPECT_FALSE(w.queries->Remove(3).ok());
}

TEST(UpdatesTest, AddObjectMatchesRebuild) {
  TestWorld w = TestWorld::Linear(50, 40, 3, 57);
  Rng rng(58);
  for (int step = 0; step < 10; ++step) {
    // Half the inserts are strong objects that will enter many prefixes.
    Vec attrs = step % 2 == 0 ? rng.UniformVector(3, 0.0, 0.2)
                              : rng.UniformVector(3, 0.0, 1.0);
    int id = w.data->Add(std::move(attrs));
    w.view->AppendRow(id);
    ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
  }
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, RemoveObjectMatchesRebuild) {
  TestWorld w = TestWorld::Linear(50, 40, 3, 59);
  Rng rng(60);
  // Remove a few signature members (the interesting case) and some others.
  std::vector<int> members = w.index->SignatureMembers();
  for (int step = 0; step < 5 && step < static_cast<int>(members.size());
       ++step) {
    int id = members[static_cast<size_t>(step)];
    ASSERT_TRUE(w.data->Remove(id).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
  }
  for (int step = 0; step < 5; ++step) {
    int id = static_cast<int>(rng.UniformInt(0, 49));
    if (!w.data->is_active(id)) continue;
    ASSERT_TRUE(w.data->Remove(id).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
  }
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, InterleavedChurnMatchesRebuild) {
  TestWorld w = TestWorld::Linear(40, 30, 2, 61);
  Rng rng(62);
  for (int step = 0; step < 40; ++step) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        TopKQuery q;
        q.k = 1 + static_cast<int>(rng.UniformInt(0, 4));
        q.weights = rng.UniformVector(2, 0.0, 1.0);
        auto id = w.queries->Add(std::move(q));
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(w.index->OnQueryAdded(*id).ok());
        break;
      }
      case 1: {
        int q = static_cast<int>(
            rng.UniformInt(0, w.queries->size() - 1));
        if (w.queries->is_active(q) && w.queries->num_active() > 5) {
          ASSERT_TRUE(w.queries->Remove(q).ok());
          ASSERT_TRUE(w.index->OnQueryRemoved(q).ok());
        }
        break;
      }
      case 2: {
        int id = w.data->Add(rng.UniformVector(2, 0.0, 1.0));
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

TEST(UpdatesTest, ObjectChangedEqualsRemovePlusAdd) {
  TestWorld w = TestWorld::Linear(40, 30, 3, 63);
  Rng rng(64);
  for (int step = 0; step < 8; ++step) {
    int id = static_cast<int>(rng.UniformInt(0, 39));
    Vec attrs = rng.UniformVector(3, 0.0, 1.0);
    // The engine's protocol: deactivate, patch signatures, reactivate.
    ASSERT_TRUE(w.data->Remove(id).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
    ASSERT_TRUE(w.data->SetAttrsIncludingInactive(id, std::move(attrs)).ok());
    ASSERT_TRUE(w.data->Reactivate(id).ok());
    w.view->RefreshRow(id);
    ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
  }
  ExpectEquivalentToRebuild(w);
}

}  // namespace
}  // namespace iq
