#include "core/allocator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace plim::core {
namespace {

TEST(Allocator, FreshCellsAreSequential) {
  RramAllocator alloc(AllocationPolicy::fifo);
  EXPECT_EQ(alloc.request(), 0u);
  EXPECT_EQ(alloc.request(), 1u);
  EXPECT_EQ(alloc.request(), 2u);
  EXPECT_EQ(alloc.total_allocated(), 3u);
  EXPECT_EQ(alloc.live(), 3u);
}

TEST(Allocator, FifoReusesOldestReleased) {
  RramAllocator alloc(AllocationPolicy::fifo);
  const auto a = alloc.request();
  const auto b = alloc.request();
  const auto c = alloc.request();
  alloc.release(b);
  alloc.release(c);
  alloc.release(a);
  // FIFO: b was released first, so it comes back first.
  EXPECT_EQ(alloc.request(), b);
  EXPECT_EQ(alloc.request(), c);
  EXPECT_EQ(alloc.request(), a);
  EXPECT_EQ(alloc.total_allocated(), 3u);
}

TEST(Allocator, LifoReusesNewestReleased) {
  RramAllocator alloc(AllocationPolicy::lifo);
  const auto a = alloc.request();
  const auto b = alloc.request();
  alloc.release(a);
  alloc.release(b);
  EXPECT_EQ(alloc.request(), b);
  EXPECT_EQ(alloc.request(), a);
}

TEST(Allocator, FreshPolicyNeverReuses) {
  RramAllocator alloc(AllocationPolicy::fresh);
  const auto a = alloc.request();
  alloc.release(a);
  EXPECT_EQ(alloc.request(), a + 1);
  EXPECT_EQ(alloc.total_allocated(), 2u);
}

TEST(Allocator, TracksPeakLive) {
  RramAllocator alloc(AllocationPolicy::fifo);
  const auto a = alloc.request();
  (void)alloc.request();
  alloc.release(a);
  (void)alloc.request();
  (void)alloc.request();
  EXPECT_EQ(alloc.peak_live(), 3u);
  EXPECT_EQ(alloc.live(), 3u);
}

TEST(Allocator, CapThrowsOnlyForFreshCells) {
  RramAllocator alloc(AllocationPolicy::fifo, 2);
  const auto a = alloc.request();
  (void)alloc.request();
  EXPECT_THROW((void)alloc.request(), RramCapExceeded);
  alloc.release(a);
  EXPECT_EQ(alloc.request(), a);  // reuse within cap is fine
}

TEST(Allocator, FifoSpreadsWearAcrossCells) {
  // Endurance rationale of §4.2.3: under FIFO, a request/release workload
  // cycles through all released cells instead of hammering one.
  RramAllocator fifo(AllocationPolicy::fifo);
  RramAllocator lifo(AllocationPolicy::lifo);
  for (auto* alloc : {&fifo, &lifo}) {
    // Pool of 4 cells, then 100 request/release pairs.
    std::vector<std::uint32_t> pool;
    for (int i = 0; i < 4; ++i) {
      pool.push_back(alloc->request());
    }
    for (const auto c : pool) {
      alloc->release(c);
    }
    std::vector<int> uses(4, 0);
    for (int i = 0; i < 100; ++i) {
      const auto c = alloc->request();
      ++uses[c];
      alloc->release(c);
    }
    if (alloc == &fifo) {
      EXPECT_EQ(uses, (std::vector<int>{25, 25, 25, 25}));
    } else {
      EXPECT_EQ(uses, (std::vector<int>{0, 0, 0, 100}));
    }
  }
}

// ---- eviction under capacity pressure ---------------------------------------

TEST(Allocator, EvictionHandlerTurnsTheCliffIntoACallback) {
  RramAllocator alloc(AllocationPolicy::fifo, 2);
  const auto a = alloc.request();
  (void)alloc.request();

  // The handler spills `a` (the compiler would pick a recomputable
  // victim); the pending request then reuses it instead of throwing.
  alloc.set_eviction_handler([&] {
    alloc.release(a);
    return true;
  });
  EXPECT_EQ(alloc.request(), a);
  EXPECT_EQ(alloc.evictions(), 1u);
  EXPECT_EQ(alloc.total_allocated(), 2u);  // #R never grew past the cap

  // A surrendering handler restores the hard-failure behavior.
  alloc.set_eviction_handler([] { return false; });
  EXPECT_THROW((void)alloc.request(), RramCapExceeded);
}

TEST(Allocator, FreshPolicyCannotEvict) {
  // Eviction frees cells for *reuse*; under `fresh` nothing is ever
  // reused, so the handler must not even be consulted.
  RramAllocator alloc(AllocationPolicy::fresh, 1);
  const auto a = alloc.request();
  bool consulted = false;
  alloc.set_eviction_handler([&] {
    consulted = true;
    alloc.release(a);
    return true;
  });
  EXPECT_THROW((void)alloc.request(), RramCapExceeded);
  EXPECT_FALSE(consulted);
}

}  // namespace
}  // namespace plim::core
