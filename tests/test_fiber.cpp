#include "sim/fiber.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <fstream>
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

// Resident set size of this process, from the second field of
// /proc/self/statm (in pages).
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0;
  std::int64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

// A machine builds one fiber per processor, and a workload touches a few
// KiB of each 256 KiB stack: the untouched pages must never become
// resident. (Zero-filled stacks made 64 fibers cost 16 MiB.)
TEST(Fiber, StacksAreCommittedOnDemand) {
#ifdef LRC_FIBER_TSAN
  GTEST_SKIP() << "the TSan runtime commits ~860 KB of its own per fiber";
#endif
  constexpr int kFibers = 64;
  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(kFibers);
  const std::int64_t before = resident_bytes();
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([] {}));
  }
  const std::int64_t grown = resident_bytes() - before;
  EXPECT_LT(grown, std::int64_t{2} << 20) << grown << " bytes";
}

// Small frames, so the recursion cannot step over the guard page.
[[gnu::noinline]] int recurse(int depth) {
  volatile char pad[128];
  pad[0] = static_cast<char>(depth);
  return depth < 0 ? 0 : recurse(depth + 1) + pad[0];
}

void overflow_a_fiber_stack() {
  const rlimit no_core{0, 0};
  setrlimit(RLIMIT_CORE, &no_core);
  Fiber f([] { recurse(0); });
  f.resume();
}

TEST(FiberDeathTest, StackOverflowFaultsAtTheGuardPage) {
#if defined(LRC_FIBER_ASAN) || defined(LRC_FIBER_TSAN)
  GTEST_SKIP() << "the sanitizer runtime intercepts SIGSEGV";
#endif
  EXPECT_EXIT(overflow_a_fiber_stack(), ::testing::KilledBySignal(SIGSEGV),
              "");
}

}  // namespace
}  // namespace lrc::sim
