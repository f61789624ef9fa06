#include "core/machine.hpp"

#include <stdexcept>

#include "check/checker.hpp"
#include "proto/sync_manager.hpp"

namespace lrc::core {

namespace {
// Validation must precede every member construction (a bad geometry would
// otherwise trip asserts deep inside Cache); run it inside the first
// initializer.
const SystemParams& validated(const SystemParams& p) {
  p.validate();
  return p;
}
}  // namespace

Machine::Machine(const SystemParams& params, ProtocolKind protocol,
                 CpuFactory cpu_factory)
    : params_(validated(params)),
      kind_(protocol),
      topo_(params.nprocs),
      nic_(engine_, topo_,
           mesh::NicParams{params.switch_latency, params.wire_latency,
                           params.net_bandwidth, /*header_bytes=*/8}),
      amap_(params.nprocs, params.line_bytes, params.page_bytes,
            params.home_policy),
      dram_(params.nprocs,
            mem::DramParams{params.mem_setup, params.mem_bandwidth}),
      classifier_(params.nprocs, params.line_bytes / mem::AddressMap::kWordBytes),
      pp_free_(params.nprocs, 0) {
  if (params_.cache.has_llc()) {
    llc_ = std::make_unique<mem::SharedLlc>(params_.cache, params_.nprocs,
                                            params_.line_bytes, params_.seed);
  }
  sync_ = std::make_unique<proto::SyncManager>(*this);
  protocol_ = proto::make_protocol(protocol, *this);
  nic_.set_deliver(
      [](void* ctx, const mesh::Message& msg, Cycle t) {
        static_cast<Machine*>(ctx)->dispatch(msg, t);
      },
      this);
  cpus_.reserve(params.nprocs);
  for (NodeId p = 0; p < params.nprocs; ++p) {
    cpus_.push_back(cpu_factory ? cpu_factory(*this, p)
                                : std::make_unique<Cpu>(*this, p));
  }
  // Lines displaced out of a private stack exit through the protocol,
  // which owes the same transactions a coherence invalidation produces.
  for (auto& c : cpus_) {
    c->dcache().set_victim_sink(
        [](void* ctx, NodeId p, const cache::CacheLine& victim, Cycle at) {
          static_cast<proto::Protocol*>(ctx)->evict_victim(p, victim, at);
        },
        protocol_.get());
  }
}

Machine::~Machine() {
  // A run that unwinds mid-flight (checker strict mode, a replay
  // TraceError) leaves events queued — including the Cpus' reusable
  // resume events, which live inside the Cpu objects. engine_ is declared
  // before cpus_ and so is destroyed after them; drain it here, while the
  // Cpus are still alive, so releasing those events is safe.
  engine_.drop_pending();
}

check::Checker* Machine::enable_checker(bool strict) {
#ifdef LRCSIM_CHECK
  if (!checker_) {
    checker_ = std::make_unique<check::Checker>(*this, strict);
  }
#else
  (void)strict;  // compiled out: hooks are no-ops, a checker would see nothing
#endif
  return checker_.get();
}

Addr Machine::alloc_bytes(std::size_t bytes, std::string name) {
  return store_.allocate(bytes, params_.line_bytes, std::move(name));
}

namespace {

// Pooled typed events for the machine's deferred work. Defined here so
// Engine::schedule_make sees complete types.
class RedeliverEvent final : public sim::Event {
 public:
  RedeliverEvent(Machine& m, const mesh::Message& msg) : m_(m), msg_(msg) {
    set_mc_actor(msg.dst, /*resumes_fiber=*/false);
    set_mc_src(msg.src);
  }
  void fire(Cycle t) override { m_.dispatch_deferred(msg_, t); }

 private:
  Machine& m_;
  mesh::Message msg_;
};

class PokeEvent final : public sim::Event {
 public:
  PokeEvent(Machine& m, NodeId p) : m_(m), p_(p) {
    set_mc_actor(p, /*resumes_fiber=*/false);
  }
  void fire(Cycle t) override { m_.cpu(p_).poke(t); }

 private:
  Machine& m_;
  NodeId p_;
};

static_assert(sizeof(RedeliverEvent) <= sim::Engine::kMaxPooledBytes);

}  // namespace

void Machine::redeliver(const mesh::Message& msg, Cycle t) {
  engine_.schedule_make<RedeliverEvent>(t, *this, msg);
}

void Machine::schedule_poke(NodeId p, Cycle t) {
  engine_.schedule_make<PokeEvent>(t, *this, p);
}

void Machine::dispatch_deferred(const mesh::Message& msg, Cycle t) {
  dispatch(msg, t);
}

Cycle Machine::pp_claim(NodeId n, Cycle at, Cycle cost) {
  const Cycle start = std::max(at, pp_free_[n]);
  pp_free_[n] = start + cost;
  return start;
}

void Machine::dispatch(const mesh::Message& msg, Cycle t) {
  trace_.record(msg, t);
  const Cycle start = std::max(t, pp_free_[msg.dst]);
  if (!proto::SyncManager::owns(msg.kind)) {
    LRCSIM_HOOK(*this, before_handle(msg));
  }
  const Cycle cost = proto::SyncManager::owns(msg.kind)
                         ? sync_->handle(msg, start)
                         : protocol_->handle(msg, start);
  pp_free_[msg.dst] = start + cost;
  LRCSIM_HOOK(*this, after_handle(msg));
}

void Machine::run(std::function<void(Cpu&)> body) {
  if (ran_) throw std::logic_error("Machine::run may be called only once");
  ran_ = true;
  if (!cpus_.empty() && cpus_[0]->is_replay()) {
    // A replayed stream carries no values and no workload body, so the
    // value-oracle checker and a second capture have nothing to observe.
    if (checker_) {
      throw std::logic_error("trace replay: runtime checker needs the "
                             "fiber front end");
    }
    if (access_log_) {
      throw std::logic_error("trace replay: capturing a replayed run is "
                             "unsupported");
    }
  }
  for (auto& c : cpus_) c->start(body);
  engine_.run();
  std::string stuck;
  for (auto& c : cpus_) {
    if (!c->finished()) {
      stuck += "\n  cpu " + std::to_string(c->id()) +
               " blocked=" + (c->blocked() ? "y" : "n") +
               " now=" + std::to_string(c->now()) +
               " wb=" + std::to_string(c->wb().occupied()) +
               " ot=" + std::to_string(c->ot().size()) +
               " cb=" + std::to_string(c->cb().size()) +
               " wt=" + std::to_string(c->wt_outstanding);
      c->ot().for_each([&stuck](const cache::OtEntry& e) {
        stuck += " [line=" + std::to_string(e.line) +
                 " data=" + std::to_string(e.data_pending) +
                 " acks=" + std::to_string(e.acks_pending) + "]";
      });
    }
  }
  if (!stuck.empty()) {
    throw std::runtime_error("deadlock: no pending events but" + stuck);
  }
#ifdef LRCSIM_CHECK
  // Engine stopped; this is normal (non-fiber) context, so strict mode may
  // safely throw collected violations here.
  if (checker_) {
    checker_->final_check();
    checker_->throw_if_violations();
  }
#endif
}

Report Machine::report() const {
  Report r;
  r.protocol = std::string(to_string(kind_));
  r.nprocs = params_.nprocs;
  r.nic = nic_.stats();
  r.dram = dram_.stats();
  r.miss_classes = classifier_.aggregate();
  r.lock_acquires = lock_acquires();
  r.barrier_episodes = barrier_episodes();
  r.sync = sync_->stats();
  r.sched_past_violations = engine_.past_violations();
  r.events_executed = engine_.events_executed();
  for (const auto& c : cpus_) {
    r.execution_time = std::max(r.execution_time, c->now());
    r.per_cpu.push_back(c->breakdown());
    r.breakdown += c->breakdown();
    for (std::size_t k = 0; k < stats::kStallKinds; ++k) {
      r.stall_hist[k] += c->stall_hist(static_cast<stats::StallKind>(k));
    }
    const auto& cs = c->dcache().stats();
    r.cache.read_hits += cs.read_hits;
    r.cache.read_misses += cs.read_misses;
    r.cache.write_hits += cs.write_hits;
    r.cache.write_misses += cs.write_misses;
    r.cache.upgrade_misses += cs.upgrade_misses;
    r.cache.evictions += cs.evictions;
    r.cache.invalidations += cs.invalidations;
  }
  // Per-level movement accounting (kept out of the golden digest: the
  // protocol-visible aggregate above is the pinned contract).
  const unsigned levels = cpus_.empty() ? 0 : cpus_[0]->dcache().levels();
  r.cache_levels.assign(levels, {});
  for (const auto& c : cpus_) {
    for (unsigned l = 0; l < levels; ++l) {
      const auto& ls = c->dcache().level_stats(l);
      auto& rl = r.cache_levels[l];
      rl.hits += ls.hits;
      rl.fills += ls.fills;
      rl.evictions += ls.evictions;
      rl.invalidations += ls.invalidations;
      rl.promotions += ls.promotions;
      rl.demotions += ls.demotions;
      rl.back_invals += ls.back_invals;
    }
  }
  if (llc_) {
    r.has_llc = true;
    r.llc = llc_->stats();
  }
  return r;
}

}  // namespace lrc::core
