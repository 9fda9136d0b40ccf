// Unit tests for the 2-step cycle-based kernel: phase ordering, the
// evaluate/update split, run control and activity counters.

#include <gtest/gtest.h>

#include <vector>

#include "sim/cycle_kernel.hpp"

namespace {

using namespace ahbp::sim;

TEST(CycleKernel, StepRunsEvaluateThenUpdate) {
  CycleKernel k;
  std::vector<std::string> log;
  CallbackClocked c(
      "c", 0, [&](Cycle) { log.push_back("eval"); },
      [&](Cycle) { log.push_back("update"); });
  k.add(c);
  k.step();
  EXPECT_EQ(log, (std::vector<std::string>{"eval", "update"}));
}

TEST(CycleKernel, PhaseOrderingControlsEvaluationOrder) {
  CycleKernel k;
  std::vector<int> order;
  CallbackClocked late("late", 5, [&](Cycle) { order.push_back(5); });
  CallbackClocked early("early", 0, [&](Cycle) { order.push_back(0); });
  CallbackClocked mid("mid", 2, [&](Cycle) { order.push_back(2); });
  k.add(late);
  k.add(early);
  k.add(mid);
  k.step();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 5}));
}

TEST(CycleKernel, EqualPhasesKeepRegistrationOrder) {
  CycleKernel k;
  std::vector<int> order;
  CallbackClocked a("a", 1, [&](Cycle) { order.push_back(1); });
  CallbackClocked b("b", 1, [&](Cycle) { order.push_back(2); });
  k.add(a);
  k.add(b);
  k.step();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(CycleKernel, AllEvaluatesBeforeAnyUpdate) {
  CycleKernel k;
  std::vector<std::string> log;
  CallbackClocked a(
      "a", 0, [&](Cycle) { log.push_back("a.eval"); },
      [&](Cycle) { log.push_back("a.upd"); });
  CallbackClocked b(
      "b", 1, [&](Cycle) { log.push_back("b.eval"); },
      [&](Cycle) { log.push_back("b.upd"); });
  k.add(a);
  k.add(b);
  k.step();
  EXPECT_EQ(log, (std::vector<std::string>{"a.eval", "b.eval", "a.upd",
                                           "b.upd"}));
}

TEST(CycleKernel, NowAdvancesPerStep) {
  CycleKernel k;
  CallbackClocked c("c", 0, [](Cycle) {});
  k.add(c);
  EXPECT_EQ(k.now(), 0u);
  k.step();
  EXPECT_EQ(k.now(), 1u);
  k.run_until([] { return false; }, 9);
  EXPECT_EQ(k.now(), 10u);
}

TEST(CycleKernel, EvaluateSeesCurrentCycleNumber) {
  CycleKernel k;
  std::vector<Cycle> seen;
  CallbackClocked c("c", 0, [&](Cycle now) { seen.push_back(now); });
  k.add(c);
  k.run_until([] { return false; }, 3);
  EXPECT_EQ(seen, (std::vector<Cycle>{0, 1, 2}));
}

TEST(CycleKernel, RunUntilPredicate) {
  CycleKernel k;
  int counter = 0;
  CallbackClocked c("c", 0, [&](Cycle) { ++counter; });
  k.add(c);
  const Cycle ran = k.run_until([&] { return counter >= 7; }, 1000);
  EXPECT_EQ(ran, 7u);
  EXPECT_EQ(counter, 7);
}

TEST(CycleKernel, RunUntilHonoursMaxCycles) {
  CycleKernel k;
  CallbackClocked c("c", 0, [](Cycle) {});
  k.add(c);
  const Cycle ran = k.run_until([] { return false; }, 25);
  EXPECT_EQ(ran, 25u);
}

TEST(CycleKernel, EvaluationCounterCountsComponents) {
  CycleKernel k;
  CallbackClocked a("a", 0, [](Cycle) {});
  CallbackClocked b("b", 0, [](Cycle) {});
  k.add(a);
  k.add(b);
  k.run_until([] { return false; }, 10);
  EXPECT_EQ(k.evaluations(), 20u);
}

TEST(CycleKernel, ComponentAddedLateJoinsNextStep) {
  CycleKernel k;
  int a_runs = 0, b_runs = 0;
  CallbackClocked a("a", 0, [&](Cycle) { ++a_runs; });
  CallbackClocked b("b", 0, [&](Cycle) { ++b_runs; });
  k.add(a);
  k.step();
  k.add(b);
  k.step();
  EXPECT_EQ(a_runs, 2);
  EXPECT_EQ(b_runs, 1);
}

TEST(CycleKernel, TwoStepStateExchange) {
  // Classic 2-step usage: both components read each other's committed
  // state during evaluate and commit in update — order independence.
  CycleKernel k;
  int a_state = 0, b_state = 100;
  int a_next = 0, b_next = 0;
  CallbackClocked a(
      "a", 0, [&](Cycle) { a_next = b_state + 1; },
      [&](Cycle) { a_state = a_next; });
  CallbackClocked b(
      "b", 1, [&](Cycle) { b_next = a_state + 1; },
      [&](Cycle) { b_state = b_next; });
  k.add(a);
  k.add(b);
  k.step();
  // Both read pre-cycle values: a sees b=100, b sees a=0.
  EXPECT_EQ(a_state, 101);
  EXPECT_EQ(b_state, 1);
}

}  // namespace
