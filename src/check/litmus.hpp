// Litmus-test DSL: small multi-threaded programs with an expected-outcome
// specification, run on a full simulated Machine under any protocol.
//
// File format (see tests/litmus/*.litmus and docs/CHECKER.md):
//
//   # message passing over a barrier
//   procs 2
//   vars x f
//   line x f              # optional: place listed vars in ONE cache line
//   P0: W x 1 ; B 0
//   P1: B 0 ; R x r0
//   forbid all r0=0
//   require all [P0<P1@0] r0=1
//   expect drf
//
// Ops: R var reg | RIF creg var reg | W var imm | I reg imm | INC var |
//      L lock | U lock | B barrier | F | D cycles | rep N <op>
// Conditions: `forbid` fails when every equality holds (the outcome is
// illegal); `require` fails when any equality fails. Both take a protocol
// class (all | sc | eager | lazy) and an optional lock-acquisition-order
// guard `[Pi<Pj@lock]` making the condition vacuous unless proc i's first
// acquisition of `lock` preceded proc j's.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "sim/types.hpp"

namespace lrc::core {
class Machine;
}

namespace lrc::check {

/// Which protocols a condition constrains.
enum class ProtoClass : std::uint8_t { kAll, kSc, kEager, kLazy };

bool class_contains(ProtoClass c, core::ProtocolKind k);

struct LitmusOp {
  enum Kind : std::uint8_t {
    kRead,      // var -> reg
    kReadIf,    // var -> reg, only if regs[creg] != 0
    kWrite,     // imm -> var
    kSetReg,    // imm -> reg (host-only)
    kInc,       // var += 1 (read; write)
    kLock,
    kUnlock,
    kBarrier,
    kFence,
    kDelay,     // compute(value) cycles
  };
  Kind kind{};
  int var = -1;
  int reg = -1;
  int creg = -1;
  std::int64_t value = 0;
  SyncId sync = 0;
  unsigned rep = 1;
};

struct LitmusCond {
  bool forbid = true;  // false: require
  ProtoClass cls = ProtoClass::kAll;
  bool has_guard = false;
  NodeId guard_first = 0, guard_second = 0;  // Pi<Pj
  SyncId guard_lock = 0;                     // @lock
  std::vector<std::pair<int, std::int64_t>> eqs;  // reg = value
  std::string text;  // original line, for failure messages
};

struct LitmusProgram {
  std::string name;
  unsigned nprocs = 0;
  std::vector<std::string> vars;
  std::vector<std::vector<int>> line_groups;  // var indices sharing a line
  std::vector<std::vector<LitmusOp>> code;    // per proc
  std::vector<LitmusCond> conds;
  bool expect_drf = false;

  /// Parses `text`. Errors throw std::runtime_error prefixed with
  /// `location:lineno` (`location` defaults to `name`; parse_file passes
  /// the file path so authoring mistakes point at the offending file line).
  static LitmusProgram parse(const std::string& text, std::string name,
                             std::string location = {});
  static LitmusProgram parse_file(const std::string& path);
};

struct LitmusResult {
  std::vector<std::int64_t> regs;
  std::map<SyncId, std::vector<NodeId>> lock_order;  // grant order per lock
  std::vector<std::string> failures;    // violated forbid/require conditions
  std::vector<std::string> violations;  // checker violations
  std::uint64_t races = 0;              // checker race count
  bool checker_active = false;
  bool passed() const { return failures.empty() && violations.empty(); }
};

/// Extended run controls. Defaults reproduce run_litmus(prog, kind, seed).
struct LitmusRunOptions {
  std::uint64_t seed = 1;
  /// Seeded per-processor start stagger + inter-op compute jitter. The
  /// model checker turns this off so the baseline timing is a pure function
  /// of the program and its schedule decisions.
  bool jitter = true;
  /// Cache hierarchy; unset -> the test_scale default for prog.nprocs.
  std::optional<cache::CacheConfig> cache;
  /// Model-checker hook (src/mc/): invoked on the freshly built Machine
  /// before any fiber starts — install a sim::ScheduleArbiter, disable NIC
  /// arrival batching, attach a core::Observer, etc.
  std::function<void(core::Machine&)> pre_run;
  /// Sync-arrival perturbation (src/mc/): when set, called immediately
  /// before each synchronization op (lock/unlock/barrier/fence); the
  /// returned cycle count is spent as local compute first, letting an
  /// explorer reorder sync arrivals. `nth` counts sync ops per processor.
  std::function<Cycle(NodeId p, unsigned nth)> sync_delay;
  /// Called after the run (and checker finalization) completes, before the
  /// Machine is destroyed — e.g. to print what an observer attached in
  /// pre_run collected. Not called when the run throws.
  std::function<void(core::Machine&)> post_run;
  /// When set, records the per-processor workload stream under this
  /// directory (trace/writer.hpp; DESIGN.md §11). Mutually exclusive with
  /// replay_dir.
  std::string capture_dir;
  /// When set, runs the program's captured trace through the fiber-free
  /// replay front end (trace/replay_cpu.hpp) instead of executing the
  /// litmus body. Registers live on the host and are not traced, so the
  /// result carries no register values and conditions are not evaluated;
  /// use post_run to compare Machine reports.
  std::string replay_dir;
};

/// Runs the program on a fresh test_scale Machine under `kind`. `seed`
/// varies per-processor start/inter-op jitter so repeated runs explore
/// different interleavings. The consistency checker is enabled
/// (non-strict) and its findings are copied into the result.
LitmusResult run_litmus(const LitmusProgram& prog, core::ProtocolKind kind,
                        std::uint64_t seed);

/// Same, with an explicit cache-hierarchy configuration (2-level inclusive
/// or exclusive stacks, shared LLC, alternate replacement policies): the
/// consistency obligations must hold regardless of geometry.
LitmusResult run_litmus(const LitmusProgram& prog, core::ProtocolKind kind,
                        std::uint64_t seed, const cache::CacheConfig& cfg);

/// Fully-controlled run (the model checker's entry point). Exceptions
/// thrown by opts.pre_run-installed machinery (e.g. a pruning arbiter)
/// propagate out with the partially-run Machine cleanly destroyed.
LitmusResult run_litmus(const LitmusProgram& prog, core::ProtocolKind kind,
                        const LitmusRunOptions& opts);

}  // namespace lrc::check
