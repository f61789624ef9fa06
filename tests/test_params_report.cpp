#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "core/machine.hpp"
#include "core/params.hpp"
#include "core/report.hpp"

namespace lrc::core {
namespace {

TEST(Params, PaperDefaultsMatchTable1) {
  const auto p = SystemParams::paper_default();
  EXPECT_EQ(p.nprocs, 64u);
  EXPECT_EQ(p.line_bytes, 128u);
  EXPECT_EQ(p.cache_bytes, 128u * 1024u);
  EXPECT_EQ(p.mem_setup, 20u);
  EXPECT_EQ(p.mem_bandwidth, 2u);
  EXPECT_EQ(p.bus_bandwidth, 2u);
  EXPECT_EQ(p.net_bandwidth, 2u);
  EXPECT_EQ(p.switch_latency, 2u);
  EXPECT_EQ(p.wire_latency, 1u);
  EXPECT_EQ(p.write_notice_cost, 4u);
  EXPECT_EQ(p.lrc_dir_cost, 25u);
  EXPECT_EQ(p.erc_dir_cost, 15u);
  EXPECT_EQ(p.write_buffer_entries, 4u);
  EXPECT_EQ(p.coalescing_entries, 16u);
}

TEST(Params, FutureMachineMatchesSection43) {
  const auto p = SystemParams::future_machine();
  EXPECT_EQ(p.mem_setup, 40u);
  EXPECT_EQ(p.mem_bandwidth, 4u);
  EXPECT_EQ(p.line_bytes, 256u);
}

TEST(Params, DescribeMentionsEveryTableEntry) {
  const std::string d = SystemParams::paper_default().describe();
  for (const char* needle :
       {"128 bytes", "128 Kbytes", "20 cycles", "2 bytes/cycle",
        "1 cycles", "25 cycles", "15 cycles", "4 entries", "16 entries"}) {
    EXPECT_NE(d.find(needle), std::string::npos) << needle;
  }
}

// ---- Geometry validation (Machine construction calls validate()) -----------

// Each rejection throws std::invalid_argument naming the offending field.
void expect_rejected(const SystemParams& p, const char* field) {
  try {
    p.validate();
    ADD_FAILURE() << "expected rejection for " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "error message should name " << field << ", got: " << e.what();
  }
}

TEST(ParamsValidate, RejectsNonPow2CacheBytes) {
  auto p = SystemParams::test_scale(2);
  p.cache_bytes = 3000;
  expect_rejected(p, "cache_bytes");
}

TEST(ParamsValidate, RejectsNonPow2LineBytes) {
  auto p = SystemParams::test_scale(2);
  p.line_bytes = 100;
  expect_rejected(p, "line_bytes");
}

TEST(ParamsValidate, RejectsLineLargerThanPage) {
  auto p = SystemParams::test_scale(2);
  p.line_bytes = 2 * p.page_bytes;
  expect_rejected(p, "page_bytes");
}

TEST(ParamsValidate, RejectsNonPow2L1Ways) {
  auto p = SystemParams::test_scale(2);
  p.cache.l1_ways = 3;
  expect_rejected(p, "l1_ways");
}

TEST(ParamsValidate, RejectsL1WaysBeyondLineCount) {
  auto p = SystemParams::test_scale(2);
  p.cache_bytes = 256;
  p.line_bytes = 128;
  p.cache.l1_ways = 4;  // only 2 lines exist
  expect_rejected(p, "l1_ways");
}

TEST(ParamsValidate, RejectsNonPow2L2Geometry) {
  auto p = SystemParams::test_scale(2);
  p.cache = cache::CacheConfig::with_l2(48 * 1024, 8,
                                        cache::InclusionPolicy::kInclusive);
  expect_rejected(p, "l2_bytes");
  p.cache = cache::CacheConfig::with_l2(64 * 1024, 6,
                                        cache::InclusionPolicy::kInclusive);
  expect_rejected(p, "l2_ways");
}

TEST(ParamsValidate, RejectsInclusiveL2SmallerThanL1) {
  auto p = SystemParams::test_scale(2);  // 4 KB L1
  p.cache = cache::CacheConfig::with_l2(2 * 1024, 4,
                                        cache::InclusionPolicy::kInclusive);
  expect_rejected(p, "l2_bytes");
  // The same shape is legal for an exclusive boundary.
  p.cache.inclusion = cache::InclusionPolicy::kExclusive;
  EXPECT_NO_THROW(p.validate());
}

TEST(ParamsValidate, RejectsBadLlcGeometry) {
  auto p = SystemParams::test_scale(2);
  p.cache = cache::CacheConfig::l1_only().add_llc(100 * 1000, 8);
  expect_rejected(p, "llc_slice_bytes");
  p.cache = cache::CacheConfig::l1_only().add_llc(64 * 1024, 12);
  expect_rejected(p, "llc_ways");
}

TEST(ParamsValidate, MachineConstructionRejectsBadGeometry) {
  auto p = SystemParams::test_scale(2);
  p.cache_bytes = 3000;
  EXPECT_THROW(Machine(p, ProtocolKind::kLRC), std::invalid_argument);
}

TEST(ParamsValidate, AcceptsAllPresets) {
  EXPECT_NO_THROW(SystemParams::paper_default().validate());
  EXPECT_NO_THROW(SystemParams::future_machine().validate());
  EXPECT_NO_THROW(SystemParams::test_scale(4).validate());
  auto p = SystemParams::paper_default();
  p.cache = cache::CacheConfig::paper_l2();
  EXPECT_NO_THROW(p.validate());
}

TEST(Params, DescribeMentionsHierarchyLevels) {
  auto p = SystemParams::paper_default();
  p.cache = cache::CacheConfig::paper_l2().add_llc(512 * 1024, 8);
  const std::string d = p.describe();
  for (const char* needle : {"L1 cache", "L2 cache", "shared LLC", "1024 Kbytes",
                             "8-way", "inclusive", "interleaved"}) {
    EXPECT_NE(d.find(needle), std::string::npos) << needle;
  }
}

TEST(Params, ProtocolNames) {
  EXPECT_EQ(to_string(ProtocolKind::kSC), "SC");
  EXPECT_EQ(to_string(ProtocolKind::kERC), "ERC");
  EXPECT_EQ(to_string(ProtocolKind::kLRC), "LRC");
  EXPECT_EQ(to_string(ProtocolKind::kLRCExt), "LRC-ext");
}

TEST(Report, SummaryContainsKeyNumbers) {
  Machine m(SystemParams::test_scale(4), ProtocolKind::kLRC);
  auto arr = m.alloc<double>(128, "a");
  m.run([&](Cpu& cpu) {
    for (std::size_t i = cpu.id(); i < arr.size(); i += cpu.nprocs()) {
      arr.put(cpu, i, 1.0);
    }
    cpu.barrier(0);
  });
  const Report r = m.report();
  const std::string s = r.summary();
  EXPECT_NE(s.find("LRC"), std::string::npos);
  EXPECT_NE(s.find("execution time"), std::string::npos);
  EXPECT_NE(s.find("miss rate"), std::string::npos);
  EXPECT_NE(s.find("barrier episodes: 1"), std::string::npos);
  EXPECT_EQ(r.nprocs, 4u);
  EXPECT_EQ(r.per_cpu.size(), 4u);
}

TEST(Report, AggregateEqualsPerCpuSum) {
  Machine m(SystemParams::test_scale(4), ProtocolKind::kERC);
  auto arr = m.alloc<double>(256, "a");
  m.run([&](Cpu& cpu) {
    for (std::size_t i = 0; i < arr.size(); ++i) (void)arr.get(cpu, i);
  });
  const Report r = m.report();
  stats::CpuBreakdown sum;
  for (const auto& b : r.per_cpu) sum += b;
  EXPECT_EQ(sum.total(), r.breakdown.total());
}

TEST(Report, ExecutionTimeIsMaxOverProcessors) {
  Machine m(SystemParams::test_scale(4), ProtocolKind::kSC);
  m.run([&](Cpu& cpu) { cpu.compute(100 * (cpu.id() + 1)); });
  EXPECT_EQ(m.report().execution_time, 400u);
}

TEST(Report, PerLevelLinesOnlyForMultiLevelConfigs) {
  auto run_summary = [](const cache::CacheConfig& cfg) {
    auto p = SystemParams::test_scale(2);
    p.cache = cfg;
    Machine m(p, ProtocolKind::kLRC);
    auto arr = m.alloc<double>(64, "a");
    m.run([&](Cpu& cpu) {
      for (std::size_t i = 0; i < arr.size(); ++i) (void)arr.get(cpu, i);
    });
    return m.report().summary();
  };
  const std::string flat = run_summary(cache::CacheConfig::l1_only());
  EXPECT_EQ(flat.find("L2:"), std::string::npos)
      << "single-level summary must keep the pre-hierarchy format";
  const std::string deep = run_summary(cache::CacheConfig::with_l2(
      16 * 1024, 4, cache::InclusionPolicy::kInclusive));
  EXPECT_NE(deep.find("L1:"), std::string::npos);
  EXPECT_NE(deep.find("L2:"), std::string::npos);
  const std::string llc = run_summary(
      cache::CacheConfig::l1_only().add_llc(16 * 1024, 4));
  EXPECT_NE(llc.find("LLC:"), std::string::npos);
}

// ---- Harness command line -------------------------------------------------

// Runs bench::Options::parse over `args`, with a program name prepended.
bench::Options parse_args(std::vector<std::string> args) {
  args.insert(args.begin(), "fig");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return bench::Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(HarnessCli, AcceptsNumericFlagsAtTheirBounds) {
  const auto opt = parse_args({"--procs", "64", "--seed",
                               "18446744073709551615", "--cache-kb",
                               "4194303", "--line", "64", "--jobs", "3"});
  EXPECT_EQ(opt.procs, 64u);
  EXPECT_EQ(opt.seed, 18446744073709551615ull);
  EXPECT_EQ(opt.cache_bytes, 4194303u * 1024u);
  EXPECT_EQ(opt.line_bytes, 64u);
  EXPECT_EQ(opt.jobs, 3u);
}

// Every malformed numeric value is a usage error (exit 2) that names the
// flag: nothing wraps around or escapes as an exception.
TEST(HarnessCliDeathTest, RejectsMalformedNumericFlags) {
  const struct {
    const char* flag;
    const char* value;
  } cases[] = {
      {"--procs", "abc"},  // non-digits
      {"--line", ""},      // empty
      {"--line", "64x"},   // trailing garbage
      {"--seed", "-5"},    // sign
      {"--jobs", "-1"},
      {"--procs", "65"},   // above kMaxProcs
      {"--jobs", "0"},
      {"--cache-kb", "4194304"},  // * 1024 no longer fits 32 bits
      {"--seed", "18446744073709551616"},
  };
  for (const auto& c : cases) {
    EXPECT_EXIT(parse_args({c.flag, c.value}), ::testing::ExitedWithCode(2),
                c.flag)
        << c.flag << " '" << c.value << "'";
  }
}

// The shared top level turns an escaping exception into exit status 2.
TEST(HarnessCli, RunMainReportsEscapingExceptionsAsStatusTwo) {
  std::string prog = "fig";
  char* argv[] = {prog.data(), nullptr};
  EXPECT_EQ(bench::run_main(1, argv, [](int, char**) { return 0; }), 0);
  EXPECT_EQ(bench::run_main(1, argv,
                            [](int, char**) -> int {
                              throw std::runtime_error("broken input");
                            }),
            2);
}

// Bad input to the real programs: a clear error and exit status 2, never
// std::terminate (exit 134). The child process execs the built binary.
[[noreturn]] void exec_program(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  std::_Exit(127);  // exec failed: not the expected status
}

TEST(CliDeathTest, ReplayOfAMissingTraceExitsTwo) {
  for (const char* jobs : {"1", "3"}) {
    EXPECT_EXIT(exec_program({LRCSIM_FIG4_BIN, "--quick", "--apps", "fft",
                              "--jobs", jobs, "--replay", "nonexist"}),
                ::testing::ExitedWithCode(2),
                // Under --jobs the first failing worker names its cell.
                "nonexist/fft_.*/meta.txt:block 0: cannot open")
        << "--jobs " << jobs;
  }
}

TEST(CliDeathTest, RunAppRejectsBadFlagsWithExitTwo) {
  const struct {
    const char* flag;
    const char* value;
    const char* error;
  } cases[] = {
      {"--procs", "abc", "--procs: invalid value 'abc'"},
      {"--procs", "0", "--procs: invalid value '0'"},
      {"--procs", "100000", "--procs: invalid value '100000'"},
      {"--cache-kb", "-1", "--cache-kb: invalid value '-1'"},
      {"--cache-kb", "3", "cache_bytes must be a non-zero power of two"},
  };
  for (const auto& c : cases) {
    EXPECT_EXIT(exec_program({LRCSIM_RUN_APP_BIN, "fft", "LRC", c.flag,
                              c.value}),
                ::testing::ExitedWithCode(2), c.error)
        << c.flag << " " << c.value;
  }
  EXPECT_EXIT(exec_program({LRCSIM_RUN_APP_BIN, "fft", "LRC", "--procs"}),
              ::testing::ExitedWithCode(2), "--procs: invalid value ''");
}

}  // namespace
}  // namespace lrc::core
