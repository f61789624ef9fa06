#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

#ifdef LRC_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#ifdef LRC_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#ifdef LRC_FIBER_FAST_SWITCH
// lrc_fiber_switch(save_sp, load_sp): pushes the System V callee-saved
// registers, stores rsp to *save_sp, installs load_sp, pops the registers
// and returns — on the *other* stack. Floating-point control state (mxcsr,
// x87 cw) is deliberately not saved: the simulator never changes it, and
// glibc's swapcontext additionally makes a sigprocmask syscall per switch,
// which is exactly the cost this path removes.
extern "C" void lrc_fiber_switch(void** save_sp, void* load_sp);

asm(R"(
.text
.align 16
.globl lrc_fiber_switch
.type lrc_fiber_switch, @function
lrc_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
.size lrc_fiber_switch, .-lrc_fiber_switch
)");
#endif  // LRC_FIBER_FAST_SWITCH

namespace lrc::sim {

namespace {
// One simulation per host thread (the bench harness runs independent
// Machines on a thread pool), so the "currently running fiber" is
// per-thread state.
thread_local Fiber* g_current = nullptr;
}  // namespace

Fiber::Stack::Stack(std::size_t bytes)
    : guard_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
  map_bytes_ = guard_ + (bytes + guard_ - 1) / guard_ * guard_;
  // MAP_NORESERVE: the stack is mostly never touched, so it should not
  // count against the commit limit either.
  void* p = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(),
                            "Fiber: cannot map stack");
  }
  map_ = static_cast<char*>(p);
  if (mprotect(map_, guard_, PROT_NONE) != 0) {
    const int err = errno;
    munmap(map_, map_bytes_);
    throw std::system_error(err, std::generic_category(),
                            "Fiber: cannot protect stack guard page");
  }
}

Fiber::Stack::~Stack() {
#ifdef LRC_FIBER_ASAN
  // Frame redzones left in the shadow would outlive the mapping and fault
  // whatever is mapped at this address next; the ASan allocator clears the
  // shadow of its own unmapped chunks the same way.
  __asan_unpoison_memory_region(data(), size());
#endif
  munmap(map_, map_bytes_);
}

#ifdef LRC_FIBER_FAST_SWITCH

Fiber::Fiber(std::function<void()> fn, std::size_t stack_bytes)
    : fn_(std::move(fn)), stack_(stack_bytes) {
  // Build an initial frame so the first lrc_fiber_switch "returns" into
  // trampoline(). Layout, from the (16-aligned) stack top downward:
  //   [top-16]  return address  -> trampoline
  //   [top-24 .. top-64]  rbp, rbx, r12..r15 slots (values don't matter)
  // The return-address slot sits at a 16-byte boundary so that after the
  // ret pops it, rsp % 16 == 8 — exactly the System V alignment a function
  // sees on entry via call.
  auto top = reinterpret_cast<std::uintptr_t>(stack_.data() + stack_.size());
  top &= ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<void**>(top - 16);
  *frame = reinterpret_cast<void*>(&Fiber::trampoline);
  for (int i = 1; i <= 6; ++i) frame[-i] = nullptr;  // popped register slots
  ctx_sp_ = frame - 6;
#ifdef LRC_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::trampoline() {
  Fiber* self = g_current;
  assert(self != nullptr);
  self->run_fn();
  // Dying switch back to the caller; never returns (ctx_sp_ is dead).
#ifdef LRC_FIBER_TSAN
  __tsan_switch_to_fiber(self->tsan_caller_, 0);
#endif
  lrc_fiber_switch(&self->ctx_sp_, self->caller_sp_);
  std::abort();  // unreachable
}

void Fiber::resume() {
  assert(g_current == nullptr && "resume() must be called from main context");
  assert(!finished_);
  g_current = this;
  started_ = true;
#ifdef LRC_FIBER_TSAN
  // Refreshed per resume rather than cached at construction, so the switch
  // back always targets the thread doing the resuming; under --jobs that is
  // the harness worker running this fiber's machine.
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  lrc_fiber_switch(&caller_sp_, ctx_sp_);
  g_current = nullptr;
}

void Fiber::yield() {
  Fiber* self = g_current;
  assert(self != nullptr && "yield() must be called from inside a fiber");
  g_current = nullptr;
#ifdef LRC_FIBER_TSAN
  __tsan_switch_to_fiber(self->tsan_caller_, 0);
#endif
  lrc_fiber_switch(&self->ctx_sp_, self->caller_sp_);
  g_current = self;
  if (self->unwinding_) throw Unwind{};
}

#else  // ucontext fallback (non-x86-64, or AddressSanitizer builds)

Fiber::Fiber(std::function<void()> fn, std::size_t stack_bytes)
    : fn_(std::move(fn)), stack_(stack_bytes) {
  if (getcontext(&ctx_) != 0) {
    throw std::runtime_error("Fiber: getcontext failed");
  }
  ctx_.uc_stack.ss_sp = stack_.data();
  ctx_.uc_stack.ss_size = stack_.size();
  ctx_.uc_link = &caller_;  // return to caller context on function exit
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
#ifdef LRC_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::trampoline() {
  Fiber* self = g_current;
  assert(self != nullptr);
#ifdef LRC_FIBER_ASAN
  // First entry onto the fiber stack: complete the switch begun in resume()
  // and capture the caller's stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_caller_stack_,
                                  &self->asan_caller_size_);
#endif
  self->run_fn();
#ifdef LRC_FIBER_ASAN
  // Dying switch back to the caller; nullptr releases this fiber's fake
  // stack.
  __sanitizer_start_switch_fiber(nullptr, self->asan_caller_stack_,
                                 self->asan_caller_size_);
#endif
#ifdef LRC_FIBER_TSAN
  __tsan_switch_to_fiber(self->tsan_caller_, 0);
#endif
  // Falling off the end returns to uc_link (the caller_ context captured by
  // the most recent resume()).
}

void Fiber::resume() {
  assert(g_current == nullptr && "resume() must be called from main context");
  assert(!finished_);
  g_current = this;
  started_ = true;
#ifdef LRC_FIBER_ASAN
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, stack_.data(), stack_.size());
#endif
#ifdef LRC_FIBER_TSAN
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  swapcontext(&caller_, &ctx_);
#ifdef LRC_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  g_current = nullptr;
}

void Fiber::yield() {
  Fiber* self = g_current;
  assert(self != nullptr && "yield() must be called from inside a fiber");
  g_current = nullptr;
#ifdef LRC_FIBER_ASAN
  __sanitizer_start_switch_fiber(&self->asan_fake_stack_,
                                 self->asan_caller_stack_,
                                 self->asan_caller_size_);
#endif
#ifdef LRC_FIBER_TSAN
  __tsan_switch_to_fiber(self->tsan_caller_, 0);
#endif
  swapcontext(&self->ctx_, &self->caller_);
#ifdef LRC_FIBER_ASAN
  __sanitizer_finish_switch_fiber(self->asan_fake_stack_,
                                  &self->asan_caller_stack_,
                                  &self->asan_caller_size_);
#endif
  g_current = self;
  if (self->unwinding_) throw Unwind{};
}

#endif  // LRC_FIBER_FAST_SWITCH

Fiber::~Fiber() {
  if (started_ && !finished_) {
    unwinding_ = true;
    resume();
  }
#ifdef LRC_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::run_fn() {
  try {
    fn_();
  } catch (const Unwind&) {
    // ~Fiber unwound the stack; nothing past the yield point runs.
  }
  finished_ = true;
}

Fiber* Fiber::current() { return g_current; }

}  // namespace lrc::sim
