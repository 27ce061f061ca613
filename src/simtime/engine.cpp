#include "simtime/engine.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <sstream>
#include <utility>

#include "trace/recorder.hpp"

namespace m3rma::sim {

namespace {

// The default thread stack size; a PROT_NONE guard page below each faults.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
const auto kGuardBytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));

// AddressSanitizer tracks one stack per thread: tell it where a switch lands.
#if defined(__SANITIZE_ADDRESS__)
void asan_start(void** fake, const void* bottom, std::size_t size) {
  __sanitizer_start_switch_fiber(fake, bottom, size);
}
void asan_finish(void* fake, const void** bottom, std::size_t* size) {
  __sanitizer_finish_switch_fiber(fake, bottom, size);
}
#else
void asan_start(void**, const void*, std::size_t) {}
void asan_finish(void*, const void**, std::size_t*) {}
#endif

}  // namespace

// ---------------------------------------------------------------- Context

Time Context::now() const { return eng_->now(); }

const std::string& Context::name() const {
  return eng_->procs_[static_cast<std::size_t>(pid_)]->name;
}

void Context::delay(Time ns) {
  eng_->check_killed(pid_);
  eng_->schedule_in(ns, [e = eng_, pid = pid_] { e->dispatch(pid); });
  eng_->block_current(pid_, "delay");
}

void Context::yield() { delay(0); }

void Context::await(Condition& c) {
  M3RMA_ENSURE(c.eng_ == eng_, "Condition belongs to a different engine");
  eng_->check_killed(pid_);
  c.waiters_.push_back(pid_);
  eng_->block_current(pid_, "await");
}

// -------------------------------------------------------------- Condition

void Condition::notify_all() {
  for (int pid : std::exchange(waiters_, {})) eng_->wake(pid);
}

// ----------------------------------------------------------------- Engine

Engine::Engine(std::uint64_t seed) : rng_(seed), seed_(seed) {}

Engine::~Engine() { shutdown_all(); }

void Engine::set_tracer(trace::Recorder* t) {
  tracer_ = t;
  if (t != nullptr) t->bind_clock(&now_);
}

int Engine::spawn(std::string name, std::function<void(Context&)> fn,
                  bool daemon) {
  M3RMA_ENSURE(!shutdown_, "spawn after shutdown");
  const int pid = static_cast<int>(procs_.size());
  auto ps = std::make_unique<ProcessState>();
  ps->name = std::move(name);
  ps->fn = std::move(fn);
  ps->daemon = daemon;
  if (!daemon) ++live_nondaemon_;
  procs_.push_back(std::move(ps));
  wake(pid);  // first dispatch at the current instant (time 0 before run())
  return pid;
}

void Engine::schedule_in(Time after, std::function<void()> fn) {
  schedule_at(now_ + after, std::move(fn));
}

void Engine::schedule_at(Time t, std::function<void()> fn) {
  M3RMA_ENSURE(t >= now_, "cannot schedule an event in the past");
  events_.push(Event{t, next_seq_++, std::move(fn)});
}

void Engine::run() {
  M3RMA_ENSURE(!in_run_, "Engine::run is not reentrant");
  in_run_ = true;
  while (true) {
    if (failure_) break;
    if (events_.empty()) {
      if (live_nondaemon_ == 0) break;  // drained; all real work finished
      // Live non-daemon processes exist but nothing can ever wake them.
      std::ostringstream os;
      os << "simulation deadlock at t=" << now_ << "ns; blocked processes:";
      for (const auto& p : procs_) {
        if (!p->finished) {
          os << " " << p->name;
          if (tracer_ != nullptr && !p->last_site.empty()) {
            os << " (last: " << p->last_site << ")";
          }
        }
      }
      failure_ = std::make_exception_ptr(DeadlockError(os.str()));
      break;
    }
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = ev.t;
    ++events_processed_;
    if (auto* tr = trace::want(tracer_, trace::Category::sim)) {
      tr->add_counter(trace::Category::sim, "sim.events");
    }
    try {
      ev.fn();
    } catch (...) {
      // Event callbacks (message deliveries, AM handlers) may throw; treat
      // it as a simulation failure so teardown still runs in order.
      if (!failure_) failure_ = std::current_exception();
    }
  }
  shutdown_all();
  in_run_ = false;
  if (failure_) std::rethrow_exception(std::exchange(failure_, nullptr));
}

void Engine::process_main(int pid) {
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  asan_finish(nullptr, &sched_stack_bottom_, &sched_stack_size_);
  Context ctx(this, pid);
  try {
    ps.fn(ctx);
  } catch (const ShutdownSignal&) {
    // Normal teardown of a blocked process.
  } catch (const KillSignal&) {
    // Fail-stop death (Engine::kill): the body unwound mid-simulation and
    // the rest of the world keeps running.
  } catch (...) {
    if (!failure_) failure_ = std::current_exception();
  }
  ps.finished = true;
  if (!ps.daemon) --live_nondaemon_;
  // Never returns: resume() unmaps this stack once it is back.
  asan_start(nullptr, sched_stack_bottom_, sched_stack_size_);
  setcontext(&sched_fiber_);
}

void Engine::dispatch(int pid) {
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  if (ps.finished) return;
  ps.wake_pending = false;
  if (tracer_ != nullptr && ps.blocked_span != 0) {
    tracer_->span_end(std::exchange(ps.blocked_span, 0));
  }
  ++context_switches_;
  resume(pid);
}

void Engine::resume(int pid) {
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  if (ps.stack == nullptr) {  // first dispatch: make the fiber
    void* mem = mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    M3RMA_ENSURE(mem != MAP_FAILED &&
                     mprotect(mem, kGuardBytes, PROT_NONE) == 0,
                 "cannot map a process stack");
    ps.stack = static_cast<char*>(mem);
    getcontext(&ps.fiber);
    ps.fiber.uc_stack.ss_sp = ps.stack + kGuardBytes;
    ps.fiber.uc_stack.ss_size = kStackBytes;
    // makecontext passes int arguments only, so `this` travels in halves.
    auto* entry = +[](unsigned hi, unsigned lo, int p) {
      auto* e = reinterpret_cast<Engine*>((std::uintptr_t{hi} << 32) | lo);
      e->process_main(p);
    };
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ps.fiber, reinterpret_cast<void (*)()>(entry), 3,
                static_cast<unsigned>(self >> 32), static_cast<unsigned>(self),
                pid);
  }
  asan_start(&sched_asan_fake_stack_, ps.stack + kGuardBytes, kStackBytes);
  swapcontext(&sched_fiber_, &ps.fiber);
  asan_finish(sched_asan_fake_stack_, nullptr, nullptr);
  if (ps.finished) {
    ASAN_UNPOISON_MEMORY_REGION(ps.stack, kGuardBytes + kStackBytes);
    munmap(ps.stack, kGuardBytes + kStackBytes);
  }
}

void Engine::block_current(int pid, const char* why) {
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  if (tracer_ != nullptr) {
    // Snapshot first: the simulation is sequential, so the recorder's most
    // recent (non-sim) record is what this process was doing when it blocked.
    ps.last_site = tracer_->last_site();
    if (auto* tr = trace::want(tracer_, trace::Category::sim)) {
      if (ps.trace_track < 0) ps.trace_track = tr->track(ps.name);
      ps.blocked_span =
          tr->span_begin(ps.trace_track, trace::Category::sim, why);
    }
  }
  if (shutdown_) throw ShutdownSignal{};
  // The runtime's list of handled exceptions is per thread, not per fiber.
  M3RMA_ENSURE(std::current_exception() == nullptr,
               "a simulated process must not block inside a catch handler");
  asan_start(&ps.asan_fake_stack, sched_stack_bottom_, sched_stack_size_);
  swapcontext(&ps.fiber, &sched_fiber_);
  asan_finish(ps.asan_fake_stack, &sched_stack_bottom_, &sched_stack_size_);
  if (shutdown_) throw ShutdownSignal{};
  if (ps.killed) throw KillSignal{};
}

void Engine::wake(int pid) {
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  if (ps.finished || ps.wake_pending) return;
  ps.wake_pending = true;
  schedule_in(0, [this, pid] { dispatch(pid); });
}

void Engine::check_killed(int pid) {
  if (procs_[static_cast<std::size_t>(pid)]->killed) throw KillSignal{};
}

void Engine::kill(int pid) {
  M3RMA_REQUIRE(pid >= 0 && pid < static_cast<int>(procs_.size()),
                "kill of an unknown process");
  ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  if (ps.finished || ps.killed) return;
  ps.killed = true;
  wake(pid);  // a blocked victim sees the flag at the current instant
}

bool Engine::kill_requested(int pid) const {
  if (pid < 0 || pid >= static_cast<int>(procs_.size())) return false;
  const ProcessState& ps = *procs_[static_cast<std::size_t>(pid)];
  return ps.killed && !ps.finished;
}

void Engine::shutdown_all() {
  shutdown_ = true;
  // Unwind each blocked process on its own stack, in pid order (unwinding
  // bodies cannot spawn). A process never dispatched has no stack yet.
  for (std::size_t pid = 0; pid < procs_.size(); ++pid) {
    ProcessState& ps = *procs_[pid];
    if (ps.stack == nullptr) ps.finished = true;
    if (!ps.finished) resume(static_cast<int>(pid));
  }
}

}  // namespace m3rma::sim
