// Event-for-event pin of the pin-accurate reference.  The RTL's event
// kernel activity — delta rounds, process activations, committed signal
// changes and timed events — is fully deterministic, so it is gated
// exactly for a few Table-1 presets.  A kernel change that claims to keep
// HDL semantics (the same deltas, wake-ups and commits) must keep these
// numbers; a change that alters them on purpose re-baselines them here, in
// the same commit, with the reason.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/checkpoint.hpp"
#include "scenario/registry.hpp"
#include "sim/event_kernel.hpp"

namespace {

using namespace ahbp;

struct Golden {
  const char* preset;
  std::uint64_t deltas;
  std::uint64_t process_activations;
  std::uint64_t signal_commits;
  std::uint64_t timed_events;
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.preset; }

constexpr unsigned kItems = 60;

class RtlKernelPin : public ::testing::TestWithParam<Golden> {};

TEST_P(RtlKernelPin, KernelStatsMatchGolden) {
  const Golden& g = GetParam();
  const auto cfg =
      scenario::ScenarioRegistry::builtin().build(g.preset, kItems);
  core::Platform p(cfg, core::ModelKind::kRtl);
  p.run_to_completion();
  ASSERT_TRUE(p.finished());
  const sim::KernelStats& s = p.rtl_kernel_stats();
  EXPECT_EQ(s.deltas, g.deltas);
  EXPECT_EQ(s.process_activations, g.process_activations);
  EXPECT_EQ(s.signal_commits, g.signal_commits);
  EXPECT_EQ(s.timed_events, g.timed_events);
}

// Captured from the kernel that queued a commit for every signal write.
INSTANTIATE_TEST_SUITE_P(
    Table1, RtlKernelPin,
    ::testing::Values(Golden{"table1/cpu-1", 10947, 34900, 66757, 5120},
                      Golden{"table1/dma-1", 20414, 64454, 133832, 8704},
                      Golden{"table1/rt-1", 19350, 61627, 89046, 9728}),
    [](const ::testing::TestParamInfo<Golden>& param_info) {
      std::string name = param_info.param.preset;
      for (char& c : name) {
        if (c == '/' || c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(RtlKernelPin, TlmPlatformHasNoKernelStats) {
  const auto cfg =
      scenario::ScenarioRegistry::builtin().build("table1/cpu-1", kItems);
  core::Platform p(cfg, core::ModelKind::kTlm);
  EXPECT_THROW(static_cast<void>(p.rtl_kernel_stats()), std::logic_error);
}

}  // namespace
