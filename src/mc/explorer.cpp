#include "mc/explorer.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "core/machine.hpp"
#include "sim/event.hpp"

namespace lrc::mc {

namespace {

// An event remembered by a sleep set: enough of its identity to test
// independence against later firings after the Event object is gone.
struct SleepEnt {
  std::uint64_t seq = 0;
  std::uint16_t actor = 0;
  bool fiber = false;
};

// Conservative independence: both actors statically known, different nodes,
// and at most one side runs workload code (fibers share the backing store
// and the litmus register file). Everything else is treated as dependent,
// which only costs reduction, never soundness.
bool indep(const SleepEnt& a, std::uint16_t actor, bool fiber) {
  if (a.actor == sim::Event::kNoActor || actor == sim::Event::kNoActor) {
    return false;
  }
  return a.actor != actor && !(a.fiber && fiber);
}

bool in_sleep(const std::vector<SleepEnt>& sleep, std::uint64_t seq) {
  for (const SleepEnt& s : sleep) {
    if (s.seq == seq) return true;
  }
  return false;
}

// The modeled mesh preserves point-to-point FIFO order: two messages on the
// same (src, dst) channel arrive in send order. A tie candidate whose
// channel has a lower-seq candidate in the same bucket therefore cannot
// fire first — branching on it would explore an ordering the machine can
// never produce (e.g. a forwarded request overtaking the data reply that
// made its target the owner).
bool fifo_blocked(const std::vector<TieCand>& cands, std::size_t i) {
  const TieCand& c = cands[i];
  if (c.src == sim::Event::kNoActor || c.actor == sim::Event::kNoActor) {
    return false;
  }
  for (const TieCand& o : cands) {
    if (o.seq < c.seq && o.src == c.src && o.actor == c.actor) return true;
  }
  return false;
}

// Persistent DFS state for one decision point along the current prefix.
// For ties, `sleep` starts as the sleep set on entry to the decision and
// grows by one entry per fully-explored sibling (classical sleep sets);
// candidates whose seq is in `sleep` are never branched on.
struct Frame {
  Decision dec;
  std::vector<SleepEnt> sleep;
};

// Thrown (from host context only — never from inside a fiber) to abandon
// the current path. Deliberately not derived from std::exception so no
// intermediate handler can swallow it.
struct PathAbandoned {
  bool sleep_blocked = false;  // else: depth-truncated
};

std::string cand_list(const sim::Event* const* cands, std::size_t n) {
  std::ostringstream os;
  for (std::size_t i = 0; i < n; ++i) {
    os << (i ? " " : "") << cands[i]->seq();
  }
  return os.str();
}

// Per-path chooser: replays the shared frame prefix, extends it at the
// first fresh decision, and maintains the running sleep set.
class RunChooser final : public sim::ScheduleArbiter {
 public:
  RunChooser(std::vector<Frame>& frames, const ExploreOptions& opts,
             std::uint64_t& decisions)
      : frames_(frames), opts_(opts), decisions_(decisions) {}

  void attach(core::Machine& m) {
    m_ = &m;
    m.nic().set_batching(false);
    m.engine().set_arbiter(this);
  }

  std::size_t pick(Cycle when, const sim::Event* const* cands,
                   std::size_t n) override {
    if (stopping()) return 0;  // unwinding via engine stop; choices moot
    if (n == 1) {
      // No branching — but a sleeping event firing here means this whole
      // path is a reordering of an already-explored one: abandon it.
      if (opts_.reduce) {
        if (in_sleep(cur_sleep_, cands[0]->seq())) throw PathAbandoned{true};
        filter_sleep(cands[0]->mc_actor(), cands[0]->mc_fiber());
      }
      return 0;
    }
    Frame* f = nullptr;
    if (pos_ < frames_.size()) {
      f = &frames_[pos_];
      verify_tie(*f, when, cands, n);
    } else {
      if (frames_.size() >= opts_.max_depth) throw PathAbandoned{false};
      frames_.push_back(fresh_tie(when, cands, n));
      ++decisions_;
      f = &frames_.back();
      if (!select_first(*f)) {
        frames_.pop_back();
        throw PathAbandoned{true};  // every candidate is asleep
      }
    }
    ++pos_;
    const TieCand& chosen = f->dec.cands[f->dec.chosen];
    if (opts_.reduce) {
      descend_sleep(f->sleep, chosen);
    }
    return f->dec.chosen;
  }

  /// LitmusRunOptions::sync_delay target. Runs on a workload fiber, so it
  /// must not throw: abandonment/nondeterminism are flagged and the engine
  /// is stopped instead, and the controller sorts it out after the run.
  Cycle delay(NodeId p, unsigned nth) {
    if (stopping()) return 0;
    if (pos_ < frames_.size()) {
      Frame& f = frames_[pos_];
      if (f.dec.kind != Decision::Kind::kDelay || f.dec.proc != p ||
          f.dec.nth != nth) {
        flag_mismatch("delay decision " + std::to_string(pos_) +
                      " re-encountered as P" + std::to_string(p) + " sync#" +
                      std::to_string(nth));
        return 0;
      }
      ++pos_;
      return f.dec.chosen;
    }
    if (frames_.size() >= opts_.max_depth) {
      abandoned_depth_ = true;
      m_->engine().stop();
      return 0;
    }
    Frame f;
    f.dec.kind = Decision::Kind::kDelay;
    f.dec.proc = p;
    f.dec.nth = nth;
    f.dec.window = opts_.sync_window;
    f.dec.chosen = 0;
    frames_.push_back(std::move(f));
    ++decisions_;
    ++pos_;
    return 0;
  }

  bool abandoned_depth() const { return abandoned_depth_; }

  /// Rethrows a fiber-context nondeterminism flag on the host side.
  void check_consistent(bool run_completed) const {
    if (!mismatch_.empty()) {
      throw std::logic_error("mc: nondeterministic replay: " + mismatch_);
    }
    if (run_completed && !abandoned_depth_ && pos_ != frames_.size()) {
      throw std::logic_error(
          "mc: nondeterministic replay: run consumed " + std::to_string(pos_) +
          " of " + std::to_string(frames_.size()) + " recorded decisions");
    }
  }

 private:
  bool stopping() const { return abandoned_depth_ || !mismatch_.empty(); }

  void flag_mismatch(std::string what) {
    mismatch_ = std::move(what);
    m_->engine().stop();
  }

  void filter_sleep(std::uint16_t actor, bool fiber) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < cur_sleep_.size(); ++i) {
      if (indep(cur_sleep_[i], actor, fiber)) cur_sleep_[w++] = cur_sleep_[i];
    }
    cur_sleep_.resize(w);
  }

  // Child sleep set after firing `chosen` from a decision whose sleep set
  // (entry set plus explored siblings) is `sleep`.
  void descend_sleep(const std::vector<SleepEnt>& sleep,
                     const TieCand& chosen) {
    cur_sleep_.clear();
    for (const SleepEnt& s : sleep) {
      if (s.seq != chosen.seq && indep(s, chosen.actor, chosen.fiber)) {
        cur_sleep_.push_back(s);
      }
    }
  }

  Frame fresh_tie(Cycle when, const sim::Event* const* cands, std::size_t n) {
    Frame f;
    f.dec.kind = Decision::Kind::kTie;
    f.dec.when = when;
    f.dec.cands.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      f.dec.cands.push_back(TieCand{cands[i]->seq(), cands[i]->mc_actor(),
                                    cands[i]->mc_src(), cands[i]->mc_fiber()});
    }
    if (opts_.reduce) {
      f.sleep = cur_sleep_;  // entry sleep; siblings are appended on advance
    }
    return f;
  }

  bool select_first(Frame& f) const {
    for (std::uint32_t i = 0; i < f.dec.cands.size(); ++i) {
      if (fifo_blocked(f.dec.cands, i)) continue;
      if (!opts_.reduce || !in_sleep(f.sleep, f.dec.cands[i].seq)) {
        f.dec.chosen = i;
        return true;
      }
    }
    return false;
  }

  void verify_tie(const Frame& f, Cycle when, const sim::Event* const* cands,
                  std::size_t n) const {
    bool same = f.dec.kind == Decision::Kind::kTie && f.dec.when == when &&
                f.dec.cands.size() == n;
    for (std::size_t i = 0; same && i < n; ++i) {
      same = f.dec.cands[i].seq == cands[i]->seq();
    }
    if (!same) {
      throw std::logic_error(
          "mc: nondeterministic replay: tie decision " + std::to_string(pos_) +
          " re-encountered at t=" + std::to_string(when) + " cands=[" +
          cand_list(cands, n) + "]");
    }
  }

  std::vector<Frame>& frames_;
  const ExploreOptions& opts_;
  std::uint64_t& decisions_;
  core::Machine* m_ = nullptr;
  std::size_t pos_ = 0;                // next frame index along this path
  std::vector<SleepEnt> cur_sleep_;    // running sleep set
  bool abandoned_depth_ = false;
  std::string mismatch_;
};

// Backtrack: advance the deepest frame that still has an unexplored,
// non-sleeping choice; pop exhausted frames. Returns false when the whole
// tree has been explored.
bool advance(std::vector<Frame>& frames, const ExploreOptions& opts) {
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.dec.kind == Decision::Kind::kDelay) {
      if (f.dec.chosen < f.dec.window) {
        ++f.dec.chosen;
        return true;
      }
    } else {
      if (opts.reduce) {
        const TieCand& done = f.dec.cands[f.dec.chosen];
        f.sleep.push_back(SleepEnt{done.seq, done.actor, done.fiber});
      }
      for (std::uint32_t j = f.dec.chosen + 1; j < f.dec.cands.size(); ++j) {
        if (fifo_blocked(f.dec.cands, j)) continue;
        if (!opts.reduce || !in_sleep(f.sleep, f.dec.cands[j].seq)) {
          f.dec.chosen = j;
          return true;
        }
      }
    }
    frames.pop_back();
  }
  return false;
}

std::vector<Decision> trace_of(const std::vector<Frame>& frames) {
  std::vector<Decision> t;
  t.reserve(frames.size());
  for (const Frame& f : frames) t.push_back(f.dec);
  return t;
}

// Forced-choice chooser for replay: decision k takes choices[k] (0 beyond
// the vector), recording what it saw.
class ReplayChooser final : public sim::ScheduleArbiter {
 public:
  ReplayChooser(const Choices& choices, unsigned window,
                std::vector<Decision>* trace)
      : choices_(choices), window_(window), trace_(trace) {}

  void attach(core::Machine& m) {
    m.nic().set_batching(false);
    m.engine().set_arbiter(this);
  }

  std::size_t pick(Cycle when, const sim::Event* const* cands,
                   std::size_t n) override {
    if (n == 1) return 0;
    std::uint32_t c = next();
    if (c >= n) {
      throw std::logic_error("mc: replay choice " + std::to_string(c) +
                             " out of range at tie decision " +
                             std::to_string(k_ - 1) + " (t=" +
                             std::to_string(when) + ", " + std::to_string(n) +
                             " candidates)");
    }
    Decision d;
    d.kind = Decision::Kind::kTie;
    d.when = when;
    d.chosen = c;
    for (std::size_t i = 0; i < n; ++i) {
      d.cands.push_back(TieCand{cands[i]->seq(), cands[i]->mc_actor(),
                                cands[i]->mc_src(), cands[i]->mc_fiber()});
    }
    if (fifo_blocked(d.cands, c)) {
      throw std::logic_error(
          "mc: replay choice " + std::to_string(c) + " at tie decision " +
          std::to_string(k_ - 1) +
          " violates channel FIFO order (a lower-seq delivery on the same "
          "(src, dst) channel is co-enabled)");
    }
    if (trace_ != nullptr) trace_->push_back(std::move(d));
    return c;
  }

  Cycle delay(NodeId p, unsigned nth) {
    std::uint32_t c = next();
    if (c > window_) c = window_;
    if (trace_ != nullptr) {
      Decision d;
      d.kind = Decision::Kind::kDelay;
      d.proc = p;
      d.nth = nth;
      d.window = window_;
      d.chosen = c;
      trace_->push_back(std::move(d));
    }
    return c;
  }

 private:
  std::uint32_t next() {
    const std::uint32_t c = k_ < choices_.size() ? choices_[k_] : 0;
    ++k_;
    return c;
  }

  const Choices& choices_;
  unsigned window_ = 0;
  std::vector<Decision>* trace_;
  std::size_t k_ = 0;
};

}  // namespace

ExploreResult explore(const check::LitmusProgram& prog,
                      core::ProtocolKind kind, const ExploreOptions& opts) {
  ExploreResult res;
  std::vector<Frame> frames;
  bool budget_hit = false;
  for (;;) {
    if (res.examined() + res.truncated >= opts.max_schedules) {
      budget_hit = true;
      break;
    }
    RunChooser ch(frames, opts, res.decisions);
    check::LitmusRunOptions lo;
    lo.jitter = false;
    lo.pre_run = [&ch](core::Machine& m) { ch.attach(m); };
    if (opts.sync_window > 0) {
      lo.sync_delay = [&ch](NodeId p, unsigned nth) { return ch.delay(p, nth); };
    }

    bool violating = false;
    auto record = [&](std::vector<std::string> failures,
                      std::vector<std::string> violations) {
      violating = true;
      ++res.violating;
      if (res.counterexamples.size() < opts.max_counterexamples) {
        res.counterexamples.push_back(Counterexample{
            trace_of(frames), std::move(failures), std::move(violations)});
      }
    };

    try {
      check::LitmusResult lr = check::run_litmus(prog, kind, lo);
      ch.check_consistent(/*run_completed=*/true);
      if (ch.abandoned_depth()) {
        ++res.truncated;
      } else {
        ++res.schedules;
        if (!lr.passed()) record(std::move(lr.failures), std::move(lr.violations));
      }
    } catch (const PathAbandoned& pa) {
      ch.check_consistent(/*run_completed=*/false);
      if (pa.sleep_blocked) {
        ++res.sleep_pruned;
      } else {
        ++res.truncated;
      }
    } catch (const std::logic_error&) {
      throw;  // nondeterminism / internal invariant: not a schedule outcome
    } catch (const std::exception& e) {
      ch.check_consistent(/*run_completed=*/false);
      if (ch.abandoned_depth()) {
        ++res.truncated;
      } else {
        // A schedule-dependent hard failure (deadlock, protocol assert
        // surfaced as an exception) is itself a counterexample.
        ++res.schedules;
        record({}, {std::string("run failed: ") + e.what()});
      }
    }

    if (violating && opts.stop_at_first) break;
    if (!advance(frames, opts)) {
      res.complete = res.truncated == 0 && !budget_hit;
      break;
    }
  }
  return res;
}

check::LitmusResult replay(const check::LitmusProgram& prog,
                           core::ProtocolKind kind, unsigned sync_window,
                           const Choices& choices, std::vector<Decision>* trace,
                           const std::function<void(core::Machine&)>& pre_run,
                           const std::function<void(core::Machine&)>& post_run) {
  ReplayChooser ch(choices, sync_window, trace);
  check::LitmusRunOptions lo;
  lo.jitter = false;
  lo.pre_run = [&ch, &pre_run](core::Machine& m) {
    ch.attach(m);
    if (pre_run) pre_run(m);
  };
  lo.post_run = post_run;
  if (sync_window > 0) {
    lo.sync_delay = [&ch](NodeId p, unsigned nth) { return ch.delay(p, nth); };
  }
  return check::run_litmus(prog, kind, lo);
}

std::string format_trace(const std::vector<Decision>& trace) {
  std::ostringstream os;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const Decision& d = trace[k];
    os << "  #" << k << " ";
    if (d.kind == Decision::Kind::kDelay) {
      os << "delay P" << d.proc << " sync#" << d.nth << " -> +" << d.chosen
         << " cycles (window " << d.window << ")\n";
      continue;
    }
    os << "tie t=" << d.when << " [";
    for (std::size_t i = 0; i < d.cands.size(); ++i) {
      const TieCand& c = d.cands[i];
      os << (i ? " " : "");
      if (i == d.chosen) os << "*";
      os << "(" << d.when << "," << c.seq << ")";
      if (c.actor != sim::Event::kNoActor) {
        if (c.fiber) {
          os << "P" << c.actor;
        } else if (c.src != sim::Event::kNoActor) {
          os << "n" << c.src << ">" << c.actor;  // channel delivery src>dst
        } else {
          os << "n" << c.actor;
        }
      }
    }
    os << "] -> fired " << d.cands[d.chosen].seq << "\n";
  }
  return os.str();
}

}  // namespace lrc::mc
