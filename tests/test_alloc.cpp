// Allocation-bounded hot paths — regression tests for the kernel-speed work.
//
// This binary replaces global operator new/delete with counting wrappers.
// Event dispatch in the EventKernel must perform ZERO heap allocations per
// iteration (see src/sim/inline_function.hpp and the bucketed timed-event
// ring in event_kernel.hpp).  The TLM platform allocates per transaction
// (script pops, write-buffer entries), never per cycle: its allocations
// are bounded per retired transaction.  A regression shows up here as a
// counter delta, not as a slower benchmark much later.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/checkpoint.hpp"
#include "scenario/registry.hpp"
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

// The nothrow forms too (std::stable_sort's temporary buffer, for one):
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

/// Heap allocations per retired transaction over 100k cycles of `preset`
/// on `model`, after a 20k-cycle warm-up (construction and stimulus
/// expansion happen before either).
double allocs_per_txn(const char* preset, core::ModelKind model) {
  SCOPED_TRACE(preset);
  core::Platform p(scenario::ScenarioRegistry::builtin().build(preset, 20'000),
                   model);
  p.run(20'000);
  const std::uint64_t done_before = p.result().completed;

  const std::uint64_t before = g_allocs;
  const sim::Cycle ran = p.run(100'000);
  const std::uint64_t after = g_allocs;

  const std::uint64_t retired = p.result().completed - done_before;
  EXPECT_EQ(ran, 100'000u) << "workload finished inside the window";
  EXPECT_GT(retired, 1'000u);
  return static_cast<double>(after - before) /
         static_cast<double>(retired > 0 ? retired : 1);
}

TEST(AllocFree, TlmAllocationsScaleWithTransactionsNotCycles) {
  for (const char* preset : {"table1/cpu-1", "wbuf-stress"}) {
    EXPECT_LE(allocs_per_txn(preset, core::ModelKind::kTlm), 4.0) << preset;
  }
}

TEST(AllocFree, RtlAllocationsScaleWithTransactionsNotCycles) {
  // The RTL allocates per transaction like the TLM (script pops, the
  // master's read-data buffer, write-buffer entries); an arbitration round
  // reuses one context, so no allocation scales with rounds or cycles.
  const double per_txn =
      allocs_per_txn("table1/cpu-1", core::ModelKind::kRtl);
  std::printf("RTL allocations per retired transaction: %.2f\n", per_txn);
  EXPECT_LE(per_txn, 2.5);
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
