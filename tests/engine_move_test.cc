// Engine move semantics under concurrency (DESIGN.md §10). Move-assignment
// takes both engines' mutexes through the ranked MutexLockPair, so a move
// racing concurrent readers on either engine must serialize instead of
// tearing — the tsan-parallel CI lane runs this suite under
// -fsanitize=thread to prove it.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "tests/test_world.h"

namespace iq {
namespace {

TEST(EngineMoveTest, MoveAssignmentTransfersState) {
  auto a = MakeEngine(40, 25, 3, 90);
  auto b = MakeEngine(60, 35, 3, 91);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const int b_hits = b->HitCount(0);
  *a = std::move(*b);
  EXPECT_EQ(a->dataset().size(), 60);
  EXPECT_EQ(a->HitCount(0), b_hits);
}

TEST(EngineMoveTest, SelfMoveAssignmentIsANoOp) {
  auto engine = MakeEngine(40, 25, 3, 92);
  ASSERT_TRUE(engine.ok());
  const int before = engine->HitCount(1);
  IqEngine& self = *engine;
  self = std::move(self);  // MutexLockPair's a == b case: lock once, keep
  EXPECT_EQ(engine->dataset().size(), 40);
  EXPECT_EQ(engine->HitCount(1), before);
}

TEST(EngineMoveStressTest, MoveAssignRacesConcurrentReaders) {
  // Readers hammer the destination engine's locked API while the main
  // thread move-assigns into it. Every reader call must observe either the
  // complete old engine or the complete new one — never a torn mix of the
  // two. Under TSan this also proves the lock pair covers every member
  // moved. (The *source* engine must not be queried after the move — a
  // moved-from engine is valid only for assignment and destruction.)
  auto src = MakeEngine(50, 30, 3, 93);
  auto dst = MakeEngine(10, 6, 2, 94);
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());

  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&dst, &start, &stop] {
      while (!start.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_acquire)) {
        int hits = dst->HitCount(0);
        ASSERT_GE(hits, 0);
      }
    });
  }

  start.store(true, std::memory_order_release);
  *dst = std::move(*src);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(dst->dataset().size(), 50);
}

TEST(EngineMoveStressTest, CrossMoveAssignCannotDeadlock) {
  // Two threads move-assigning between the same pair of engines in
  // opposite directions: the address-ordered MutexLockPair serializes
  // them; a naive lock(this)-then-lock(other) would deadlock here. The
  // Debug lock-rank detector additionally proves the ordering is the
  // sanctioned same-rank pair path.
  auto a = MakeEngine(30, 20, 3, 95);
  auto b = MakeEngine(30, 20, 3, 96);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  std::atomic<bool> start{false};
  std::thread t1([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    *a = std::move(*b);
  });
  std::thread t2([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    *b = std::move(*a);
  });
  start.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  // The join itself is the deadlock assertion. Exactly one engine ends up
  // moved-from; re-assign fresh state into both (legal on moved-from
  // engines) and prove they serve locked calls again.
  auto fresh_a = MakeEngine(20, 12, 3, 97);
  auto fresh_b = MakeEngine(20, 12, 3, 98);
  ASSERT_TRUE(fresh_a.ok());
  ASSERT_TRUE(fresh_b.ok());
  *a = std::move(*fresh_a);
  *b = std::move(*fresh_b);
  EXPECT_GE(a->HitCount(0), 0);
  EXPECT_GE(b->HitCount(0), 0);
}

}  // namespace
}  // namespace iq
