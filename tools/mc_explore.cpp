// mc_explore: exhaustive small-scope schedule exploration of litmus
// programs (docs/MODELCHECK.md).
//
//   mc_explore --prog tests/litmus/sb.litmus                # all 5 protocols
//   mc_explore --corpus tests/litmus --proto LRC,LRC-ext
//   mc_explore --prog p.litmus --proto LRC --window 2
//   mc_explore --prog p.litmus --proto LRC --no-reduce      # raw enumeration
//   mc_explore --prog p.litmus --proto LRC --replay 0,2,1   # one schedule
//   mc_explore --corpus tests/litmus --repeat               # determinism gate
//   mc_explore --prog p.litmus --proto LRC --mutate tie-drop-write-notice
//
// Exit status: 0 when every explored program/protocol pair is clean, 1 when
// any schedule violated the oracle, a directory invariant, or a litmus
// condition, 2 on usage/setup errors. `--repeat` additionally fails (exit
// 1) if two explorations of the same pair disagree on any count.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/litmus.hpp"
#include "core/machine.hpp"
#include "core/observer.hpp"
#include "core/params.hpp"
#include "mc/explorer.hpp"

namespace {

using lrc::check::LitmusProgram;
using lrc::core::ProtocolKind;
using lrc::mc::ExploreOptions;
using lrc::mc::ExploreResult;

struct Args {
  std::string prog;
  std::string corpus;
  std::vector<ProtocolKind> kinds;
  ExploreOptions opts;
  std::optional<lrc::mc::Choices> replay;
  lrc::check::Mutation mutation = lrc::check::Mutation::kNone;
  bool trace_msgs = false;  // dump the message trace of a --replay run
  bool repeat = false;
  unsigned seed_sweep = 0;  // also run jittered per-seed runs 1..N
};

constexpr ProtocolKind kAllKinds[] = {ProtocolKind::kSC, ProtocolKind::kERC,
                                      ProtocolKind::kERCWT, ProtocolKind::kLRC,
                                      ProtocolKind::kLRCExt};

// --trace: keeps the last kKeep message deliveries of a --replay run and
// prints them as `[t] Kind src->dst line=L tag=T payload=B` lines (tag and
// payload only when nonzero).
class DeliveryLog final : public lrc::core::Observer {
 public:
  static constexpr std::size_t kKeep = 256;

  void on_message(const lrc::mesh::Message& msg, lrc::Cycle t) override {
    if (last_.size() == kKeep) last_.pop_front();
    last_.push_back({t, msg});
  }

  void print(std::ostream& os) const {
    for (const auto& [t, msg] : last_) {
      os << '[' << t << "] " << lrc::mesh::to_string(msg.kind) << ' '
         << msg.src << "->" << msg.dst << " line=" << msg.line;
      if (msg.tag != 0) os << " tag=" << msg.tag;
      if (msg.payload_bytes != 0) os << " payload=" << msg.payload_bytes;
      os << '\n';
    }
  }

 private:
  std::deque<std::pair<lrc::Cycle, lrc::mesh::Message>> last_;
};

[[noreturn]] void usage(const std::string& err = {}) {
  if (!err.empty()) std::cerr << "mc_explore: " << err << "\n";
  std::cerr <<
      "usage: mc_explore (--prog FILE | --corpus DIR) [options]\n"
      "  --proto LIST      comma-separated: SC,ERC,ERC-WT,LRC,LRC-ext "
      "(default: all)\n"
      "  --depth N         per-path decision bound (default 512)\n"
      "  --budget N        schedule budget (default 1048576)\n"
      "  --window W        sync-arrival delay window 0..W (default 0)\n"
      "  --no-reduce       disable sleep-set partial-order reduction\n"
      "  --stop-at-first   stop at the first violating schedule\n"
      "  --max-cex N       counterexamples to record (default 8)\n"
      "  --replay C0,C1,.. replay one choice vector (needs --prog, one "
      "--proto)\n"
      "  --trace           with --replay: dump the message trace of the run\n"
      "  --repeat          explore each pair twice; fail on count mismatch\n"
      "  --mutate NAME     activate a checker mutation: "
      "skip-acquire-invalidation,\n"
      "                    tie-drop-write-notice, "
      "tie-skip-membership-recompute\n"
      "  --seed-sweep N    also run jittered per-seed runs for seeds 1..N\n";
  std::exit(2);
}

ProtocolKind parse_kind(const std::string& s) {
  for (ProtocolKind k : kAllKinds) {
    if (s == lrc::core::to_string(k)) return k;
  }
  usage("unknown protocol `" + s + "`");
}

lrc::check::Mutation parse_mutation(const std::string& s) {
  using lrc::check::Mutation;
  if (s == "skip-acquire-invalidation") return Mutation::kSkipAcquireInvalidation;
  if (s == "tie-drop-write-notice") return Mutation::kTieDropWriteNotice;
  if (s == "tie-skip-membership-recompute")
    return Mutation::kTieSkipMembershipRecompute;
  usage("unknown mutation `" + s + "`");
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, sep)) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& s) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos == s.size()) return v;
  } catch (...) {
  }
  usage("bad value for " + flag + ": `" + s + "`");
}

Args parse_args(int argc, char** argv) {
  Args a;
  auto need = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) usage(std::string(flag) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--prog") a.prog = need(i, "--prog");
    else if (f == "--corpus") a.corpus = need(i, "--corpus");
    else if (f == "--proto") {
      for (const auto& t : split(need(i, "--proto"), ','))
        a.kinds.push_back(parse_kind(t));
    } else if (f == "--depth") {
      a.opts.max_depth =
          static_cast<std::uint32_t>(parse_u64(f, need(i, "--depth")));
    } else if (f == "--budget") {
      a.opts.max_schedules = parse_u64(f, need(i, "--budget"));
    } else if (f == "--window") {
      a.opts.sync_window =
          static_cast<unsigned>(parse_u64(f, need(i, "--window")));
    } else if (f == "--no-reduce") a.opts.reduce = false;
    else if (f == "--stop-at-first") a.opts.stop_at_first = true;
    else if (f == "--max-cex") {
      a.opts.max_counterexamples =
          static_cast<std::uint32_t>(parse_u64(f, need(i, "--max-cex")));
    } else if (f == "--replay") {
      lrc::mc::Choices c;
      for (const auto& t : split(need(i, "--replay"), ','))
        c.push_back(static_cast<std::uint32_t>(parse_u64("--replay", t)));
      a.replay = std::move(c);
    } else if (f == "--trace") a.trace_msgs = true;
    else if (f == "--repeat") a.repeat = true;
    else if (f == "--mutate") a.mutation = parse_mutation(need(i, "--mutate"));
    else if (f == "--seed-sweep") {
      a.seed_sweep = static_cast<unsigned>(parse_u64(f, need(i, "--seed-sweep")));
    } else if (f == "--help" || f == "-h") usage();
    else usage("unknown flag `" + f + "`");
  }
  if (a.prog.empty() == a.corpus.empty())
    usage("exactly one of --prog / --corpus is required");
  if (a.kinds.empty())
    a.kinds.assign(std::begin(kAllKinds), std::end(kAllKinds));
  if (a.replay && (a.corpus.size() || a.kinds.size() != 1))
    usage("--replay needs --prog and exactly one --proto");
  return a;
}

std::vector<std::string> collect_programs(const Args& a) {
  if (!a.prog.empty()) return {a.prog};
  std::vector<std::string> files;
  for (const auto& ent : std::filesystem::directory_iterator(a.corpus)) {
    if (ent.path().extension() == ".litmus") files.push_back(ent.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) usage("no .litmus programs in " + a.corpus);
  return files;
}

void print_counterexample(const lrc::mc::Counterexample& cex, std::size_t i) {
  std::cout << "  counterexample " << i << ":\n";
  for (const auto& f : cex.failures) std::cout << "    failure: " << f << "\n";
  for (const auto& v : cex.violations)
    std::cout << "    violation: " << v << "\n";
  std::cout << lrc::mc::format_trace(cex.trace);
  const auto choices = lrc::mc::choices_of(cex.trace);
  std::cout << "    replay with: --replay ";
  for (std::size_t k = 0; k < choices.size(); ++k)
    std::cout << (k ? "," : "") << choices[k];
  std::cout << "\n";
}

// Returns true when the pair is clean.
bool explore_pair(const LitmusProgram& prog, ProtocolKind kind,
                  const Args& args) {
  const ExploreResult res = lrc::mc::explore(prog, kind, args.opts);
  std::cout << prog.name << " under " << lrc::core::to_string(kind) << ": "
            << res.schedules << " schedules";
  if (args.opts.reduce) std::cout << " (+" << res.sleep_pruned << " pruned)";
  std::cout << ", " << res.decisions << " decision points, "
            << (res.complete ? "complete" : res.truncated
                                                ? "TRUNCATED"
                                                : "BUDGET EXHAUSTED");
  std::cout << ", " << res.violating << " violating\n";
  for (std::size_t i = 0; i < res.counterexamples.size(); ++i)
    print_counterexample(res.counterexamples[i], i);

  bool ok = res.violating == 0;
  if (args.repeat) {
    const ExploreResult again = lrc::mc::explore(prog, kind, args.opts);
    if (again.schedules != res.schedules ||
        again.sleep_pruned != res.sleep_pruned ||
        again.decisions != res.decisions ||
        again.violating != res.violating) {
      std::cout << "  NONDETERMINISM: second exploration disagrees ("
                << again.schedules << " schedules, " << again.sleep_pruned
                << " pruned, " << again.decisions << " decisions, "
                << again.violating << " violating)\n";
      ok = false;
    }
  }
  return ok;
}

// Jittered per-seed runs — the layer the explorer subsumes. Used to show a
// schedule-dependent mutation slipping past every seed.
bool seed_sweep(const LitmusProgram& prog, ProtocolKind kind, unsigned n) {
  unsigned caught = 0;
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    const auto res = lrc::check::run_litmus(prog, kind, seed);
    if (!res.passed()) ++caught;
  }
  std::cout << prog.name << " under " << lrc::core::to_string(kind)
            << ": seeds 1.." << n << ": " << caught
            << " seed(s) caught a violation\n";
  return caught == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::optional<lrc::check::MutationGuard> guard;
  if (args.mutation != lrc::check::Mutation::kNone)
    guard.emplace(args.mutation);

  try {
    bool clean = true;
    for (const auto& path : collect_programs(args)) {
      const LitmusProgram prog = LitmusProgram::parse_file(path);
      if (args.replay) {
        std::vector<lrc::mc::Decision> trace;
        std::function<void(lrc::core::Machine&)> pre, post;
        DeliveryLog deliveries;
        if (args.trace_msgs) {
          pre = [&](lrc::core::Machine& m) { m.add_observer(deliveries); };
          post = [&](lrc::core::Machine&) { deliveries.print(std::cout); };
        }
        const auto res = lrc::mc::replay(prog, args.kinds[0],
                                         args.opts.sync_window, *args.replay,
                                         &trace, pre, post);
        std::cout << prog.name << " under "
                  << lrc::core::to_string(args.kinds[0]) << ": replayed "
                  << trace.size() << " decisions\n"
                  << lrc::mc::format_trace(trace);
        for (const auto& f : res.failures)
          std::cout << "  failure: " << f << "\n";
        for (const auto& v : res.violations)
          std::cout << "  violation: " << v << "\n";
        clean = res.passed();
        continue;
      }
      for (ProtocolKind kind : args.kinds) {
        if (args.seed_sweep > 0) seed_sweep(prog, kind, args.seed_sweep);
        if (!explore_pair(prog, kind, args)) clean = false;
      }
    }
    return clean ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mc_explore: " << e.what() << "\n";
    return 2;
  }
}
