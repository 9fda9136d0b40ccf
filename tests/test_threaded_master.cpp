// Thread-based master (the §4 modeling-style ablation): must be a
// cycle-exact drop-in for the method-based TlmMaster — same completions,
// same total cycles — differing only in host cost.

#include <gtest/gtest.h>

#include <memory>

#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "sim/cycle_kernel.hpp"
#include "tlm/bus.hpp"
#include "tlm/ddrc.hpp"
#include "tlm/master.hpp"
#include "tlm/threaded_master.hpp"

namespace {

using namespace ahbp;

template <typename MasterT>
std::pair<sim::Cycle, std::uint64_t> run_with(
    const core::PlatformConfig& cfg) {
  sim::CycleKernel kernel;
  ahb::QosRegisterFile qos(static_cast<unsigned>(cfg.masters.size()));
  for (unsigned m = 0; m < cfg.masters.size(); ++m) {
    qos.program(static_cast<ahb::MasterId>(m), cfg.masters[m].qos);
  }
  tlm::TlmDdrc ddrc(cfg.timing, cfg.geom, cfg.ddr_base);
  chk::ViolationLog log;
  tlm::AhbPlusBus bus(cfg.bus, qos, ddrc,
                      static_cast<unsigned>(cfg.masters.size()), &log);
  kernel.add(bus);
  auto scripts = core::expand_stimulus(cfg);
  std::vector<std::unique_ptr<MasterT>> masters;
  for (unsigned m = 0; m < cfg.masters.size(); ++m) {
    masters.push_back(std::make_unique<MasterT>(
        static_cast<ahb::MasterId>(m), bus, std::move(scripts[m])));
    kernel.add(*masters.back());
  }
  kernel.run_until(
      [&] {
        for (const auto& m : masters) {
          if (!m->finished()) {
            return false;
          }
        }
        return bus.quiescent();
      },
      200000);
  std::uint64_t completed = 0;
  for (const auto& m : masters) {
    completed += m->completed();
  }
  EXPECT_EQ(log.errors(), 0u) << log.to_string();
  return {kernel.now(), completed};
}

/// The hand-wired kernels above step every cycle (CycleKernel::run_until);
/// the Platform leaps provably idle stretches.  Keep the plain per-cycle
/// loop as a live reference: both must stop on the same cycle with the
/// same completions.
void expect_platform_matches(const core::PlatformConfig& cfg,
                             const std::pair<sim::Cycle, std::uint64_t>& ref) {
  const core::SimResult leaped = core::run_tlm(cfg);
  EXPECT_EQ(leaped.ran_cycles, ref.first);
  EXPECT_EQ(leaped.completed, ref.second);
}

TEST(ThreadedMaster, SingleMasterMatchesMethodBased) {
  const auto cfg = core::default_platform(1, 9, 25);
  const auto method = run_with<tlm::TlmMaster>(cfg);
  const auto threaded = run_with<tlm::ThreadedMaster>(cfg);
  EXPECT_EQ(method.first, threaded.first);    // identical cycle count
  EXPECT_EQ(method.second, threaded.second);  // identical completions
  EXPECT_EQ(threaded.second, 25u);
  expect_platform_matches(cfg, method);
}

TEST(ThreadedMaster, MultiMasterMatchesMethodBased) {
  auto cfg = core::default_platform(3, 4, 20);
  cfg.masters[1].traffic.kind = traffic::PatternKind::kDma;
  cfg.masters[2].traffic.kind = traffic::PatternKind::kRandom;
  const auto method = run_with<tlm::TlmMaster>(cfg);
  const auto threaded = run_with<tlm::ThreadedMaster>(cfg);
  EXPECT_EQ(method.first, threaded.first);
  EXPECT_EQ(method.second, threaded.second);
  EXPECT_EQ(threaded.second, 60u);
  expect_platform_matches(cfg, method);
}

TEST(ThreadedMaster, CleanShutdownMidRun) {
  // Destroying the platform while the worker threads are mid-script must
  // not hang or crash.
  const auto cfg = core::default_platform(2, 8, 50);
  sim::CycleKernel kernel;
  ahb::QosRegisterFile qos(2);
  for (unsigned m = 0; m < 2; ++m) {
    qos.program(static_cast<ahb::MasterId>(m), cfg.masters[m].qos);
  }
  tlm::TlmDdrc ddrc(cfg.timing, cfg.geom, cfg.ddr_base);
  tlm::AhbPlusBus bus(cfg.bus, qos, ddrc, 2, nullptr);
  kernel.add(bus);
  auto scripts = core::expand_stimulus(cfg);
  tlm::ThreadedMaster m0(0, bus, std::move(scripts[0]));
  tlm::ThreadedMaster m1(1, bus, std::move(scripts[1]));
  kernel.add(m0);
  kernel.add(m1);
  kernel.run_until([] { return false; }, 40);  // stop mid-flight
  SUCCEED();       // destructors must join cleanly
}

}  // namespace
