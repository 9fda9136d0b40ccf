// Allocation-free hot paths — regression tests for the kernel-speed work.
//
// This binary replaces global operator new/delete with counting wrappers:
// steady-state stepping of the CycleKernel and event dispatch in the
// EventKernel must perform ZERO heap allocations per iteration.  These are
// the properties that keep the simulator's inner loops out of the
// allocator (see src/sim/inline_function.hpp and the bucketed timed-event
// ring in event_kernel.hpp); a regression shows up here as a nonzero
// counter delta, not as a 20%-slower benchmark three PRs later.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/cycle_kernel.hpp"
#include "sim/event_kernel.hpp"

namespace {

std::uint64_t g_allocs = 0;

}  // namespace

// Counting global allocator.  Single-threaded test binary: a plain counter
// is enough, and malloc keeps the sanitizer interposers in the loop.
void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime they would allocate with its allocator and be freed
// by the replaced delete below, an alloc-dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace ahbp;

TEST(AllocFree, CycleKernelStepAllocatesNothing) {
  sim::CycleKernel kernel;
  std::uint64_t work = 0;
  sim::CallbackClocked a("a", 0, [&work](sim::Cycle c) { work += c; });
  sim::CallbackClocked b(
      "b", 1, [&work](sim::Cycle c) { work ^= c; },
      [&work](sim::Cycle) { ++work; });
  kernel.add(a);
  kernel.add(b);

  kernel.run_until([] { return false; }, 16);  // warm-up

  const std::uint64_t before = g_allocs;
  for (int i = 0; i < 100'000; ++i) {
    kernel.step();
  }
  const std::uint64_t after = g_allocs;

  EXPECT_EQ(after - before, 0u)
      << "CycleKernel::step() hit the heap " << (after - before)
      << " times over 100k steps";
  EXPECT_GT(work, 0u);
}

TEST(AllocFree, EventKernelDispatchesMillionEventsWithoutHeapChurn) {
  sim::EventKernel kernel;

  // A self-rescheduling ticker — the clock idiom.  The capture is one
  // pointer, far under InlineFunction's buffer, so every schedule() builds
  // the node in place; near-future delays stay in the bucketed ring.
  struct Ticker {
    sim::EventKernel* k;
    std::uint64_t remaining;
    std::uint64_t fired = 0;
    void operator()() {
      ++fired;
      if (remaining-- > 0) {
        k->schedule(2, [this] { (*this)(); });
      }
    }
  };
  constexpr std::uint64_t kEvents = 1'000'000;
  Ticker t{&kernel, kEvents};
  kernel.schedule(0, [&t] { t(); });

  kernel.run_until(2 * 1000);  // warm-up: ring + scratch reach capacity

  const std::uint64_t before = g_allocs;
  kernel.run_until(2 * (kEvents + 2));
  const std::uint64_t after = g_allocs;

  EXPECT_TRUE(kernel.idle());
  EXPECT_EQ(t.fired, kEvents + 1);
  EXPECT_EQ(after - before, 0u)
      << "EventKernel dispatch hit the heap " << (after - before)
      << " times over ~1M timed events";
  EXPECT_GE(kernel.stats().timed_events, kEvents);
}

TEST(AllocFree, EventKernelSignalCommitLoopAllocatesNothing) {
  // The delta loop: a process subscribed to a signal it toggles via a
  // timed echo.  Steady-state evaluate/update rounds must recycle their
  // scratch vectors instead of reallocating them.
  sim::EventKernel kernel;
  sim::Signal<bool> clk(kernel, "clk");
  std::uint64_t edges = 0;
  sim::Process proc(kernel, "count", [&edges] { ++edges; });
  clk.subscribe(proc, sim::Edge::kPos);

  struct Driver {
    sim::EventKernel* k;
    sim::Signal<bool>* clk;
    bool level = false;
    std::uint64_t remaining;
    void operator()() {
      if (remaining-- == 0) {
        return;
      }
      level = !level;
      clk->write(level);
      k->schedule(1, [this] { (*this)(); });
    }
  };
  Driver d{&kernel, &clk, false, 200'000};
  kernel.schedule(0, [&d] { d(); });

  kernel.run_until(1000);  // warm-up

  const std::uint64_t before = g_allocs;
  kernel.run_until(300'000);
  const std::uint64_t after = g_allocs;

  EXPECT_TRUE(kernel.idle());
  EXPECT_GT(edges, 50'000u);
  EXPECT_EQ(after - before, 0u)
      << "signal/delta loop hit the heap " << (after - before) << " times";
}

}  // namespace
