#include "sim/fiber.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace lrc::sim {
namespace {

TEST(Fiber, RunsToCompletionOnResume) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumeContinues) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::yield();
    trace.push_back(3);
    Fiber::yield();
    trace.push_back(5);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  trace.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksRunningFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] {
    seen = Fiber::current();
    Fiber::yield();
  });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
  f.resume();
}

TEST(Fiber, ManyInterleavedFibers) {
  constexpr int kFibers = 64;
  constexpr int kRounds = 10;
  std::vector<int> counters(kFibers, 0);
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&counters, i] {
      for (int r = 0; r < kRounds; ++r) {
        ++counters[static_cast<unsigned>(i)];
        Fiber::yield();
      }
    }));
  }
  // Round-robin resume until all complete.
  bool any = true;
  while (any) {
    any = false;
    for (auto& f : fibers) {
      if (!f->finished()) {
        f->resume();
        any = any || !f->finished();
      }
    }
  }
  for (int c : counters) EXPECT_EQ(c, kRounds);
}

TEST(Fiber, DeepStackUsage) {
  // Recursion deep enough to require a real stack but within the 256 KiB
  // default.
  std::function<int(int)> fib = [&](int n) {
    return n < 2 ? n : fib(n - 1) + fib(n - 2);
  };
  int result = 0;
  Fiber f([&] { result = fib(18); });
  f.resume();
  EXPECT_EQ(result, 2584);
}

TEST(Fiber, NestedFunctionCanYield) {
  int stage = 0;
  auto helper = [&stage] {
    stage = 1;
    Fiber::yield();
    stage = 2;
  };
  Fiber f([&] { helper(); });
  f.resume();
  EXPECT_EQ(stage, 1);
  f.resume();
  EXPECT_EQ(stage, 2);
  EXPECT_TRUE(f.finished());
}

// A run abandoned mid-flight destroys its fibers while they are suspended;
// the objects on their stacks must still be destroyed (no leak), and no
// code past the yield point may run.
TEST(Fiber, DestroyedWhileSuspendedUnwindsItsStack) {
  struct Sentinel {
    int* destroyed;
    ~Sentinel() { ++*destroyed; }
  };
  int destroyed = 0;
  bool ran_past_yield = false;
  {
    Fiber f([&] {
      Sentinel s{&destroyed};
      auto owned = std::make_unique<int>(7);
      Fiber::yield();
      ran_past_yield = true;
    });
    f.resume();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(ran_past_yield);

  // A fiber never started, or already finished, is destroyed as before.
  { Fiber unstarted([&] { ran_past_yield = true; }); }
  EXPECT_FALSE(ran_past_yield);
}

}  // namespace
}  // namespace lrc::sim
