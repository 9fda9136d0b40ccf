// Event-kernel micro-benchmarks (google-benchmark): the per-primitive cost
// of the signal-level model (clocked processes, signal commits, delta
// cascades, timed events) — the side of the paper's §4 speed ratio that
// pays for signals.  The TLM has no kernel: its parts call each other
// directly, so bench_speed's whole-model rows measure it.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_kernel.hpp"

namespace {

using namespace ahbp::sim;

// `prefix` followed by `i`, built by appending: GCC 12 -O3 flags the
// `"lit" + std::string` form with a false-positive -Wrestrict.
template <typename Int>
std::string numbered(const char* prefix, Int i) {
  return std::string(prefix).append(std::to_string(i));
}

// One clock cycle of the event kernel with N posedge processes each
// committing one signal write — the RTL fabric's base cost.
void BM_EventKernelClockedProcesses(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  EventKernel k;
  Clock clk(k, "clk", 2);
  std::vector<std::unique_ptr<Signal<std::uint64_t>>> sigs;
  std::vector<std::unique_ptr<Process>> ps;
  std::uint64_t n = 0;
  for (int i = 0; i < procs; ++i) {
    sigs.push_back(std::make_unique<Signal<std::uint64_t>>(
        k, numbered("s", i)));
    auto* sig = sigs.back().get();
    ps.push_back(std::make_unique<Process>(k, numbered("p", i),
                                           [sig, &n] { sig->write(++n); }));
    clk.signal().subscribe(*ps.back(), Edge::kPos);
  }
  Tick t = 0;
  for (auto _ : state) {
    t += 2;
    k.run_until(t);
  }
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_EventKernelClockedProcesses)->Arg(8)->Arg(32)->Arg(128);

// Pure signal commit cost (write + update phase, no subscribers).
void BM_SignalCommit(benchmark::State& state) {
  EventKernel k;
  Signal<std::uint64_t> s(k, "s");
  std::uint64_t v = 0;
  for (auto _ : state) {
    s.write(++v);
    k.settle();
  }
  benchmark::DoNotOptimize(s.read());
}
BENCHMARK(BM_SignalCommit);

// Rewriting the committed value: not an event, so no update phase runs —
// the cost of a wire re-driven with the value it already holds.
void BM_SignalRewriteUnchanged(benchmark::State& state) {
  EventKernel k;
  Signal<std::uint64_t> s(k, "s", 1);
  for (auto _ : state) {
    s.write(1);
    k.settle();
  }
  benchmark::DoNotOptimize(s.read());
}
BENCHMARK(BM_SignalRewriteUnchanged);

// One 32-pin bus driven with a random word and settled: the bit-level
// layer's per-edge cost class (`pin.haddr` and friends).  The pins are one
// packed kernel signal; each flipped bit still counts as its own commit.
void BM_BitBusDrive(benchmark::State& state) {
  EventKernel k;
  BitVector bus(k, "pin", 32);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    bus.write(x);
    k.settle();
  }
  benchmark::DoNotOptimize(bus.read());
  state.counters["commits_per_drive"] = benchmark::Counter(
      static_cast<double>(k.stats().signal_commits),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BitBusDrive);

// Delta cascade: a chain of N combinational processes settles per write —
// the ripple/mux cost class of the pin-level model.
void BM_DeltaCascade(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  EventKernel k;
  std::vector<std::unique_ptr<Signal<std::uint64_t>>> sigs;
  for (std::size_t i = 0; i <= depth; ++i) {
    sigs.push_back(std::make_unique<Signal<std::uint64_t>>(
        k, numbered("n", i)));
  }
  std::vector<std::unique_ptr<Process>> ps;
  for (std::size_t i = 0; i < depth; ++i) {
    auto* in = sigs[i].get();
    auto* out = sigs[i + 1].get();
    ps.push_back(std::make_unique<Process>(
        k, numbered("f", i), [in, out] { out->write(in->read() + 1); }));
    in->subscribe(*ps.back());
  }
  std::uint64_t v = 0;
  for (auto _ : state) {
    sigs[0]->write(++v);
    k.settle();
  }
  benchmark::DoNotOptimize(sigs[depth]->read());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_DeltaCascade)->Arg(4)->Arg(16)->Arg(64);

// Timed-event scheduling throughput (the clock generator's cost class).
void BM_TimedEvents(benchmark::State& state) {
  EventKernel k;
  Tick t = 0;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    k.schedule(1, [&fired] { ++fired; });
    ++t;
    k.run_until(t);
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_TimedEvents);

}  // namespace
