// Consistency-checker tests (docs/CHECKER.md): the value oracle, race
// counting, a deliberate protocol mutation the oracle must catch, and
// strict mode.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/checker.hpp"
#include "core/machine.hpp"

namespace {

using lrc::core::Cpu;
using lrc::core::Machine;
using lrc::core::ProtocolKind;
using lrc::core::SystemParams;

constexpr ProtocolKind kAllKinds[] = {ProtocolKind::kSC, ProtocolKind::kERC,
                                      ProtocolKind::kERCWT, ProtocolKind::kLRC,
                                      ProtocolKind::kLRCExt};

// A deliberately DRF workload: private-slice writes, barrier, neighbor
// reads, barrier, lock-protected counter, barrier, verified totals. The
// checker must stay silent (strict mode) and count zero races.
void run_drf_workload(ProtocolKind kind) {
  SCOPED_TRACE(std::string(to_string(kind)));
  const unsigned n = 4;
  const unsigned slice = 8;
  Machine m(SystemParams::test_scale(n), kind);
  auto data = m.alloc<std::int64_t>(n * slice, "data");
  auto counter = m.alloc<std::int64_t>(1, "counter");
  m.poke_mem<std::int64_t>(counter.addr(0), 0);

  auto& ck = m.enable_checker(/*strict=*/true);

  m.run([&](Cpu& cpu) {
    const unsigned p = cpu.id();
    for (unsigned i = 0; i < slice; ++i) {
      data.put(cpu, p * slice + i, 100 * p + i);
    }
    cpu.barrier(0);
    const unsigned q = (p + 1) % n;
    for (unsigned i = 0; i < slice; ++i) {
      const auto v = data.get(cpu, q * slice + i);
      if (v != static_cast<std::int64_t>(100 * q + i)) {
        ADD_FAILURE() << "functional value wrong: " << v;
      }
    }
    cpu.barrier(1);
    for (int k = 0; k < 3; ++k) {
      cpu.lock(5);
      counter.put(cpu, 0, counter.get(cpu, 0) + 1);
      cpu.unlock(5);
    }
    cpu.barrier(2);
    const auto total = counter.get(cpu, 0);
    if (total != 3 * static_cast<std::int64_t>(n)) {
      ADD_FAILURE() << "counter total wrong: " << total;
    }
  });

  EXPECT_TRUE(ck.violations().empty());
  EXPECT_EQ(ck.races(), 0u) << "DRF workload must show no races";
  EXPECT_GT(ck.reads_checked(), 0u);
  EXPECT_GT(ck.writes_tracked(), 0u);
}

TEST(Checker, DrfWorkloadCleanUnderAllProtocols) {
  for (ProtocolKind kind : kAllKinds) run_drf_workload(kind);
}

// Racy accesses are counted as races, never reported as violations:
// release consistency makes no promise about unsynchronized values.
TEST(Checker, RacesCountedNotViolated) {
  for (ProtocolKind kind : kAllKinds) {
    SCOPED_TRACE(std::string(to_string(kind)));
    Machine m(SystemParams::test_scale(2), kind);
    auto x = m.alloc<std::int64_t>(1, "x");
    auto& ck = m.enable_checker(/*strict=*/true);
    m.run([&](Cpu& cpu) {
      for (int i = 0; i < 200; ++i) {
        x.put(cpu, 0, cpu.id() * 1000 + i);
        (void)x.get(cpu, 0);
      }
    });
    EXPECT_TRUE(ck.violations().empty());
    EXPECT_GT(ck.races(), 0u);
  }
}

// The negative test the tentpole demands: break the protocol on purpose
// (drop buffered write notices at acquire time) and show the value oracle
// catches the resulting stale read.
//
// P1 caches x, both cross barrier 0, P0 writes x (line goes Weak, notice
// buffered at P1), both cross barrier 1 (a release/acquire pair), P1
// rereads x. With the mutation the stale cached copy survives the acquire,
// which is exactly the consistency bug the oracle must flag.
void run_mutation_program(Machine& m, lrc::core::SharedArray<std::int64_t>& x) {
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 1) {
      (void)x.get(cpu, 0);
      cpu.barrier(0);
      cpu.barrier(1);
      (void)x.get(cpu, 0);
    } else {
      cpu.barrier(0);
      if (cpu.id() == 0) x.put(cpu, 0, 42);
      cpu.barrier(1);
    }
  });
}

TEST(Checker, SkippedAcquireInvalidationIsCaught) {
  for (ProtocolKind kind : {ProtocolKind::kLRC, ProtocolKind::kLRCExt}) {
    SCOPED_TRACE(std::string(to_string(kind)));
    lrc::check::MutationGuard guard(
        lrc::check::Mutation::kSkipAcquireInvalidation);
    Machine m(SystemParams::test_scale(2), kind);
    auto x = m.alloc<std::int64_t>(1, "x");
    auto& ck = m.enable_checker(/*strict=*/false);
    run_mutation_program(m, x);
    ASSERT_FALSE(ck.violations().empty())
        << "oracle missed the skipped acquire invalidation";
    EXPECT_NE(ck.violations()[0].find("stale read"), std::string::npos)
        << ck.violations()[0];
  }
}

TEST(Checker, SameProgramCleanWithoutMutation) {
  for (ProtocolKind kind : kAllKinds) {
    SCOPED_TRACE(std::string(to_string(kind)));
    Machine m(SystemParams::test_scale(2), kind);
    auto x = m.alloc<std::int64_t>(1, "x");
    auto& ck = m.enable_checker(/*strict=*/true);
    run_mutation_program(m, x);
    EXPECT_TRUE(ck.violations().empty());
    EXPECT_EQ(ck.races(), 0u);
  }
}

TEST(Checker, StrictModeThrowsViolationError) {
  lrc::check::MutationGuard guard(
      lrc::check::Mutation::kSkipAcquireInvalidation);
  Machine m(SystemParams::test_scale(2), ProtocolKind::kLRC);
  auto x = m.alloc<std::int64_t>(1, "x");
  m.enable_checker(/*strict=*/true);
  EXPECT_THROW(run_mutation_program(m, x), lrc::check::ViolationError);
}

}  // namespace
