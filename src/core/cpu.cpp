#include "core/cpu.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/machine.hpp"
#include "proto/protocol.hpp"
#include "proto/sync_manager.hpp"

namespace lrc::core {

Cpu::Cpu(Machine& m, NodeId id)
    : m_(m),
      id_(id),
      cache_(m.params().cache, m.params().cache_bytes, m.params().line_bytes,
             id, m.params().seed),
      wb_(m.params().write_buffer_entries),
      cb_(m.params().coalescing_entries) {
  resume_event_.set_mc_actor(id, /*resumes_fiber=*/true);
}

unsigned Cpu::nprocs() const { return m_.nprocs(); }

void Cpu::compute(Cycle n) {
  for (Observer* o : m_.observers()) o->on_compute(id_, n);
  tick(n);
}

namespace {

// Sync events bracket the protocol call so the host-order sequence of
// observer events matches the simulated happens-before order: a release
// (begin) event runs before the lock can be granted elsewhere, and an
// acquire (end) event runs only after the grant came back to this fiber.
template <typename Call>
void synchronize(Cpu& cpu, SyncOp op, SyncId s, Call call) {
  const auto& observers = cpu.machine().observers();
  for (Observer* o : observers) o->on_sync_begin(cpu.id(), op, s);
  cpu.drive(call(cpu.machine().protocol()));
  for (Observer* o : observers) o->on_sync_end(cpu.id(), op, s);
}

}  // namespace

void Cpu::fence() {
  synchronize(*this, SyncOp::kFence, 0,
              [&](proto::Protocol& pr) { return pr.fence(*this); });
}
void Cpu::lock(SyncId s) {
  synchronize(*this, SyncOp::kLock, s,
              [&](proto::Protocol& pr) { return pr.acquire(*this, s); });
}
void Cpu::unlock(SyncId s) {
  synchronize(*this, SyncOp::kUnlock, s,
              [&](proto::Protocol& pr) { return pr.release(*this, s); });
}
void Cpu::barrier(SyncId s) {
  synchronize(*this, SyncOp::kBarrier, s,
              [&](proto::Protocol& pr) { return pr.barrier(*this, s); });
}

void Cpu::tick(Cycle n) {
  bd_[stats::StallKind::kCpu] += n;
  now_ += n;
  hits_since_yield_ += n;
  if (hits_since_yield_ >= m_.params().runahead_quantum) {
    quantum_yield();
  }
}

void Cpu::schedule_quantum_resume() {
  hits_since_yield_ = 0;
  resume_scheduled_ = true;
  resume_mode_ = ResumeMode::kQuantum;
  m_.engine().schedule_external(now_, resume_event_);
}

void Cpu::quantum_yield() {
  // Re-enter the engine so messages timestamped before our run-ahead horizon
  // get processed; we resume at our own local time.
  schedule_quantum_resume();
  sim::Fiber::yield();
}

void Cpu::block(stats::StallKind k) {
  assert(sim::Fiber::current() == fiber_.get());
  note_blocked(k);
  sim::Fiber::yield();
}

void Cpu::poke(Cycle t) {
  if (!blocked_ || resume_scheduled_) return;
  resume_scheduled_ = true;
  resume_mode_ = ResumeMode::kPoke;
  m_.engine().schedule_external(std::max(t, now_), resume_event_);
}

void Cpu::on_resume(Cycle t) {
  switch (resume_mode_) {
    case ResumeMode::kStart:
      resume_execution();
      return;
    case ResumeMode::kQuantum:
      resume_scheduled_ = false;
      now_ = std::max(now_, t);
      resume_execution();
      return;
    case ResumeMode::kPoke:
      resume_scheduled_ = false;
      if (!blocked_) return;
      blocked_ = false;
      bd_[block_kind_] += t - block_start_;
      stall_hist_[static_cast<std::size_t>(block_kind_)].add(t - block_start_);
      now_ = std::max(now_, t);
      resume_execution();
      return;
  }
}

void Cpu::schedule_start() {
  resume_mode_ = ResumeMode::kStart;
  m_.engine().schedule_external(0, resume_event_);
}

void Cpu::start(std::function<void(Cpu&)> body) {
  if (!body) {
    throw std::invalid_argument("fiber front end requires a workload body");
  }
  body_ = std::move(body);
  fiber_ = std::make_unique<sim::Fiber>([this] { run_body(); });
  schedule_start();
}

void Cpu::resume_execution() { fiber_->resume(); }

void Cpu::run_body() {
  body_(*this);
  drive(m_.protocol().finalize(*this));
}

}  // namespace lrc::core
