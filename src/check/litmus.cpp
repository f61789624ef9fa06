#include "check/litmus.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>

#include "check/checker.hpp"
#include "core/machine.hpp"
#include "trace/replay_cpu.hpp"
#include "trace/writer.hpp"

namespace lrc::check {

namespace {
constexpr int kNumRegs = 16;

[[noreturn]] void bad(const std::string& name, int lineno,
                      const std::string& what) {
  throw std::runtime_error("litmus " + name + ":" + std::to_string(lineno) +
                           ": " + what);
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream ss(line);
  std::vector<std::string> toks;
  std::string t;
  while (ss >> t) toks.push_back(t);
  return toks;
}

// Whole-token integer parse; false on garbage, trailing junk, or overflow
// (std::stoll alone would accept "12x" and throw bare std::invalid_argument
// on "x", losing the file/line context `bad` attaches).
bool try_int(const std::string& tok, std::int64_t& out) {
  std::size_t pos = 0;
  try {
    out = std::stoll(tok, &pos);
  } catch (const std::exception&) {
    return false;
  }
  return pos == tok.size();
}

std::int64_t parse_int(const std::string& name, int lineno,
                       const std::string& tok) {
  std::int64_t v = 0;
  if (!try_int(tok, v)) bad(name, lineno, "bad number `" + tok + "`");
  return v;
}

std::uint64_t parse_count(const std::string& name, int lineno,
                          const std::string& tok) {
  const std::int64_t v = parse_int(name, lineno, tok);
  if (v < 0) bad(name, lineno, "expected a non-negative number, got " + tok);
  return static_cast<std::uint64_t>(v);
}
}  // namespace

bool class_contains(ProtoClass c, core::ProtocolKind k) {
  using core::ProtocolKind;
  switch (c) {
    case ProtoClass::kAll:
      return true;
    case ProtoClass::kSc:
      return k == ProtocolKind::kSC;
    case ProtoClass::kEager:
      return k == ProtocolKind::kSC || k == ProtocolKind::kERC ||
             k == ProtocolKind::kERCWT;
    case ProtoClass::kLazy:
      return k == ProtocolKind::kLRC || k == ProtocolKind::kLRCExt;
  }
  return false;
}

// ---- Parsing ----------------------------------------------------------------

namespace {

int parse_reg(const std::string& name, int lineno, const std::string& tok) {
  std::int64_t r = -1;
  if (tok.size() < 2 || tok[0] != 'r' || !try_int(tok.substr(1), r)) {
    bad(name, lineno, "bad register " + tok);
  }
  if (r < 0 || r >= kNumRegs) bad(name, lineno, "register out of range " + tok);
  return static_cast<int>(r);
}

int var_index(LitmusProgram& p, const std::string& name, int lineno,
              const std::string& var) {
  for (std::size_t i = 0; i < p.vars.size(); ++i) {
    if (p.vars[i] == var) return static_cast<int>(i);
  }
  bad(name, lineno, "undeclared var " + var);
}

ProtoClass parse_class(const std::string& name, int lineno,
                       const std::string& tok) {
  if (tok == "all") return ProtoClass::kAll;
  if (tok == "sc") return ProtoClass::kSc;
  if (tok == "eager") return ProtoClass::kEager;
  if (tok == "lazy") return ProtoClass::kLazy;
  bad(name, lineno, "unknown protocol class " + tok);
}

// `[P0<P1@2]` -> guard fields. Returns false if tok is not guard-shaped;
// a guard-shaped token with malformed numbers is a located error.
bool parse_guard(LitmusCond& c, const std::string& name, int lineno,
                 const std::string& tok) {
  if (tok.size() < 8 || tok.front() != '[' || tok.back() != ']') return false;
  const auto lt = tok.find('<');
  const auto at = tok.find('@');
  if (lt == std::string::npos || at == std::string::npos) return false;
  if (tok[1] != 'P' || tok[lt + 1] != 'P') return false;
  c.has_guard = true;
  c.guard_first = static_cast<NodeId>(
      parse_count(name, lineno, tok.substr(2, lt - 2)));
  c.guard_second = static_cast<NodeId>(
      parse_count(name, lineno, tok.substr(lt + 2, at - lt - 2)));
  c.guard_lock = static_cast<SyncId>(
      parse_count(name, lineno, tok.substr(at + 1, tok.size() - at - 2)));
  return true;
}

void parse_cond(LitmusProgram& p, const std::string& name, int lineno,
                const std::vector<std::string>& toks, bool forbid,
                const std::string& raw) {
  LitmusCond c;
  c.forbid = forbid;
  c.text = raw;
  std::size_t i = 1;
  if (i >= toks.size()) bad(name, lineno, "missing protocol class");
  c.cls = parse_class(name, lineno, toks[i++]);
  if (i < toks.size() && parse_guard(c, name, lineno, toks[i])) ++i;
  // Remaining: rK=V [& rK=V]...
  for (; i < toks.size(); ++i) {
    if (toks[i] == "&") continue;
    const auto eq = toks[i].find('=');
    if (eq == std::string::npos) bad(name, lineno, "bad term " + toks[i]);
    const int reg = parse_reg(name, lineno, toks[i].substr(0, eq));
    c.eqs.emplace_back(reg, parse_int(name, lineno, toks[i].substr(eq + 1)));
  }
  if (c.eqs.empty()) bad(name, lineno, "condition with no terms");
  p.conds.push_back(std::move(c));
}

void parse_ops(LitmusProgram& p, const std::string& name, int lineno,
               unsigned proc, const std::string& body) {
  std::vector<LitmusOp>& out = p.code[proc];
  std::istringstream ss(body);
  std::string stmt;
  while (std::getline(ss, stmt, ';')) {
    auto toks = tokens_of(stmt);
    if (toks.empty()) continue;
    std::size_t i = 0;
    unsigned rep = 1;
    if (toks[i] == "rep") {
      if (toks.size() < 3) bad(name, lineno, "rep needs a count and an op");
      rep = static_cast<unsigned>(parse_count(name, lineno, toks[1]));
      i = 2;
    }
    LitmusOp op;
    op.rep = rep;
    const std::string& k = toks[i];
    auto need = [&](std::size_t n) {
      if (toks.size() - i != n + 1) {
        bad(name, lineno, "wrong operand count for " + k);
      }
    };
    if (k == "R") {
      need(2);
      op.kind = LitmusOp::kRead;
      op.var = var_index(p, name, lineno, toks[i + 1]);
      op.reg = parse_reg(name, lineno, toks[i + 2]);
    } else if (k == "RIF") {
      need(3);
      op.kind = LitmusOp::kReadIf;
      op.creg = parse_reg(name, lineno, toks[i + 1]);
      op.var = var_index(p, name, lineno, toks[i + 2]);
      op.reg = parse_reg(name, lineno, toks[i + 3]);
    } else if (k == "W") {
      need(2);
      op.kind = LitmusOp::kWrite;
      op.var = var_index(p, name, lineno, toks[i + 1]);
      op.value = parse_int(name, lineno, toks[i + 2]);
    } else if (k == "I") {
      need(2);
      op.kind = LitmusOp::kSetReg;
      op.reg = parse_reg(name, lineno, toks[i + 1]);
      op.value = parse_int(name, lineno, toks[i + 2]);
    } else if (k == "INC") {
      need(1);
      op.kind = LitmusOp::kInc;
      op.var = var_index(p, name, lineno, toks[i + 1]);
    } else if (k == "L" || k == "U" || k == "B") {
      need(1);
      op.kind = k == "L"   ? LitmusOp::kLock
                : k == "U" ? LitmusOp::kUnlock
                           : LitmusOp::kBarrier;
      op.sync = static_cast<SyncId>(parse_count(name, lineno, toks[i + 1]));
    } else if (k == "F") {
      need(0);
      op.kind = LitmusOp::kFence;
    } else if (k == "D") {
      need(1);
      op.kind = LitmusOp::kDelay;
      op.value = parse_int(name, lineno, toks[i + 1]);
    } else {
      bad(name, lineno, "unknown op " + k);
    }
    out.push_back(op);
  }
}

}  // namespace

LitmusProgram LitmusProgram::parse(const std::string& text, std::string name,
                                   std::string location) {
  LitmusProgram p;
  p.name = std::move(name);
  // Error prefix: the file path when known, else the program name. Fixed up
  // front so a mid-file `name` directive cannot change where errors point.
  const std::string loc = location.empty() ? p.name : std::move(location);
  std::istringstream ss(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(ss, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    std::string line = hash == std::string::npos ? raw : raw.substr(0, hash);
    auto toks = tokens_of(line);
    if (toks.empty()) continue;
    const std::string& key = toks[0];
    if (key == "name") {
      if (toks.size() != 2) bad(loc, lineno, "name takes one token");
      p.name = toks[1];
    } else if (key == "procs") {
      if (toks.size() != 2) bad(loc, lineno, "procs takes one number");
      p.nprocs = static_cast<unsigned>(parse_count(loc, lineno, toks[1]));
      if (p.nprocs < 2 || p.nprocs > kMaxProcs) {
        bad(loc, lineno, "procs out of range");
      }
      p.code.resize(p.nprocs);
    } else if (key == "vars") {
      for (std::size_t i = 1; i < toks.size(); ++i) p.vars.push_back(toks[i]);
    } else if (key == "line") {
      std::vector<int> group;
      for (std::size_t i = 1; i < toks.size(); ++i) {
        group.push_back(var_index(p, loc, lineno, toks[i]));
      }
      if (group.size() < 2) bad(loc, lineno, "line group needs >= 2 vars");
      p.line_groups.push_back(std::move(group));
    } else if (key == "forbid" || key == "require") {
      parse_cond(p, loc, lineno, toks, key == "forbid", line);
    } else if (key == "expect") {
      if (toks.size() != 2 || toks[1] != "drf") {
        bad(loc, lineno, "only `expect drf` is supported");
      }
      p.expect_drf = true;
    } else if (key.size() >= 3 && key[0] == 'P' && key.back() == ':') {
      std::int64_t proc = -1;
      if (!try_int(key.substr(1, key.size() - 2), proc) || proc < 0) {
        bad(loc, lineno, "bad proc label " + key);
      }
      if (p.code.empty()) bad(loc, lineno, "procs must come before code");
      if (proc >= p.nprocs) bad(loc, lineno, "proc out of range in " + key);
      const auto colon = line.find(':');
      parse_ops(p, loc, lineno, static_cast<unsigned>(proc),
                line.substr(colon + 1));
    } else {
      bad(loc, lineno, "unrecognized directive " + key);
    }
  }
  if (p.nprocs == 0) bad(loc, 0, "missing procs directive");
  if (p.vars.empty()) bad(loc, 0, "missing vars directive");
  return p;
}

LitmusProgram LitmusProgram::parse_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open litmus file " + path);
  std::stringstream buf;
  buf << f.rdbuf();
  auto slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  if (auto dot = base.rfind(".litmus"); dot != std::string::npos) {
    base = base.substr(0, dot);
  }
  return parse(buf.str(), base, path);
}

// ---- Running ----------------------------------------------------------------

LitmusResult run_litmus(const LitmusProgram& prog, core::ProtocolKind kind,
                        std::uint64_t seed) {
  LitmusRunOptions opts;
  opts.seed = seed;
  return run_litmus(prog, kind, opts);
}

LitmusResult run_litmus(const LitmusProgram& prog, core::ProtocolKind kind,
                        std::uint64_t seed, const cache::CacheConfig& cfg) {
  LitmusRunOptions opts;
  opts.seed = seed;
  opts.cache = cfg;
  return run_litmus(prog, kind, opts);
}

LitmusResult run_litmus(const LitmusProgram& prog, core::ProtocolKind kind,
                        const LitmusRunOptions& opts) {
  const bool replay = !opts.replay_dir.empty();
  if (replay && !opts.capture_dir.empty()) {
    throw std::invalid_argument("litmus " + prog.name +
                                ": capture_dir and replay_dir are exclusive");
  }
  auto params = core::SystemParams::test_scale(prog.nprocs);
  if (opts.cache) params.cache = *opts.cache;
  core::Machine m(params, kind,
                  replay ? trace::ReplayCpu::factory(opts.replay_dir)
                         : core::Machine::CpuFactory{});

  // Lay out variables: grouped vars pack into one line (8 bytes apart,
  // distinct words — the multiple-writer/false-sharing scenarios); the rest
  // get a line each (allocations are line-aligned).
  std::vector<Addr> var_addr(prog.vars.size(), 0);
  std::vector<bool> placed(prog.vars.size(), false);
  for (const auto& group : prog.line_groups) {
    if (group.size() * 8 > params.line_bytes) {
      throw std::runtime_error("litmus " + prog.name +
                               ": line group does not fit in a line");
    }
    const Addr base = m.alloc_bytes(params.line_bytes, "litmus-line");
    for (std::size_t i = 0; i < group.size(); ++i) {
      var_addr[group[i]] = base + i * 8;
      placed[group[i]] = true;
    }
  }
  for (std::size_t v = 0; v < prog.vars.size(); ++v) {
    if (!placed[v]) var_addr[v] = m.alloc_bytes(8, prog.vars[v]);
  }
  for (Addr a : var_addr) m.poke_mem<std::int64_t>(a, 0);

  LitmusResult res;
  res.regs.assign(kNumRegs, 0);

#ifdef LRCSIM_CHECK
  // Non-strict: litmus results are evaluated by the caller; collect rather
  // than throw so a violating run still reports its outcome. Replay skips
  // the checker: it needs the fiber front end (Machine::run rejects the
  // combination).
  check::Checker* ck = replay ? nullptr : m.enable_checker(/*strict=*/false);
#endif

  std::unique_ptr<trace::CaptureLog> capture;
  if (!opts.capture_dir.empty()) {
    capture = std::make_unique<trace::CaptureLog>(opts.capture_dir,
                                                  prog.nprocs);
    capture->set_meta(prog.name, std::string(core::to_string(kind)),
                      opts.seed);
    m.set_access_log(capture.get());
  }

  if (opts.pre_run) opts.pre_run(m);

  if (replay) {
    // The trace carries the workload; registers are host-side state that is
    // not traced, so the result reports no register values and the
    // forbid/require conditions are not evaluated (compare Machine reports
    // via post_run instead).
    m.run(nullptr);
    if (opts.post_run) opts.post_run(m);
    return res;
  }

  m.run([&](core::Cpu& cpu) {
    const NodeId p = cpu.id();
    const auto& ops = prog.code[p];
    // det-lint: ok(seed is a pure function of the run options and the
    //   processor id, so jitter schedules replay bit-identically)
    std::mt19937_64 rng(opts.seed * 1000003ULL + p * 7919ULL + 13);
    if (opts.jitter) cpu.compute(1 + rng() % 29);  // stagger the start
    unsigned nth_sync = 0;
    for (const LitmusOp& op : ops) {
      for (unsigned k = 0; k < op.rep; ++k) {
        if (opts.jitter && (rng() & 3) == 0) cpu.compute(1 + rng() % 7);
        if (opts.sync_delay &&
            (op.kind == LitmusOp::kLock || op.kind == LitmusOp::kUnlock ||
             op.kind == LitmusOp::kBarrier || op.kind == LitmusOp::kFence)) {
          if (const Cycle d = opts.sync_delay(p, nth_sync++); d > 0) {
            cpu.compute(d);
          }
        }
        switch (op.kind) {
          case LitmusOp::kRead:
            res.regs[op.reg] = cpu.read<std::int64_t>(var_addr[op.var]);
            break;
          case LitmusOp::kReadIf:
            if (res.regs[op.creg] != 0) {
              res.regs[op.reg] = cpu.read<std::int64_t>(var_addr[op.var]);
            }
            break;
          case LitmusOp::kWrite:
            cpu.write<std::int64_t>(var_addr[op.var], op.value);
            break;
          case LitmusOp::kSetReg:
            res.regs[op.reg] = op.value;
            break;
          case LitmusOp::kInc: {
            const auto v = cpu.read<std::int64_t>(var_addr[op.var]);
            cpu.write<std::int64_t>(var_addr[op.var], v + 1);
            break;
          }
          case LitmusOp::kLock:
            cpu.lock(op.sync);
            // Host order equals simulated grant order: grants are serialized
            // at the lock's home and each fiber resumes in event order.
            res.lock_order[op.sync].push_back(p);
            break;
          case LitmusOp::kUnlock:
            cpu.unlock(op.sync);
            break;
          case LitmusOp::kBarrier:
            cpu.barrier(op.sync);
            break;
          case LitmusOp::kFence:
            cpu.fence();
            break;
          case LitmusOp::kDelay:
            cpu.compute(static_cast<Cycle>(op.value));
            break;
        }
      }
    }
  });

  if (capture) capture->finish();

#ifdef LRCSIM_CHECK
  if (ck != nullptr) {
    res.checker_active = true;
    res.violations = ck->violations();
    res.races = ck->races();
  }
#endif

  if (opts.post_run) opts.post_run(m);

  // Evaluate conditions against the final register file and lock orders.
  auto first_pos = [&](SyncId lock, NodeId p) -> std::int64_t {
    auto it = res.lock_order.find(lock);
    if (it == res.lock_order.end()) return -1;
    const auto& v = it->second;
    auto f = std::find(v.begin(), v.end(), p);
    return f == v.end() ? -1 : f - v.begin();
  };
  for (const LitmusCond& c : prog.conds) {
    if (!class_contains(c.cls, kind)) continue;
    if (c.has_guard) {
      const auto a = first_pos(c.guard_lock, c.guard_first);
      const auto b = first_pos(c.guard_lock, c.guard_second);
      if (a < 0 || b < 0 || a >= b) continue;  // guard not satisfied
    }
    bool all_hold = true;
    bool any_fail = false;
    for (const auto& [reg, v] : c.eqs) {
      if (res.regs[reg] == v) continue;
      all_hold = false;
      any_fail = true;
    }
    if (c.forbid ? all_hold : any_fail) {
      std::string regs;
      for (const auto& [reg, v] : c.eqs) {
        regs += " r" + std::to_string(reg) + "=" +
                std::to_string(res.regs[reg]);
      }
      res.failures.push_back(prog.name + " under " +
                             std::string(to_string(kind)) + ": `" + c.text +
                             "` violated; got" + regs);
    }
  }
  return res;
}

}  // namespace lrc::check
