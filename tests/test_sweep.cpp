// Sweep subsystem: cross-product expansion is exact and ordered, the
// threaded runner produces byte-identical aggregates at any worker count
// (results are keyed by expansion index, never completion order), warm-up
// forks demote exactly the points whose stimulus diverged, and spec files
// compose with the scenario layer.

#include <gtest/gtest.h>

#include <sstream>

#include "scenario/scenario.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace ahbp;
using scenario::ScenarioError;

const char* kSweepText = R"(
base = table1/rt-1

[master *]
items = 40

[sweep]
bus.write_buffer_depth = 0, 2, 4, 8
bus.filter_mask = 0x7f, 0x77
)";

// ---------------------------------------------------------- expansion ----

TEST(SweepSpec, CrossProductExpansion) {
  const auto spec = sweep::parse_spec(kSweepText);
  EXPECT_EQ(spec.base, "table1/rt-1");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.points(), 8u);

  const auto points = sweep::expand(spec);
  ASSERT_EQ(points.size(), 8u);
  // First axis slowest: depth changes every 2 points, mask alternates.
  EXPECT_EQ(points[0].config.bus.write_buffer_depth, 0u);
  EXPECT_EQ(points[1].config.bus.write_buffer_depth, 0u);
  EXPECT_EQ(points[2].config.bus.write_buffer_depth, 2u);
  EXPECT_EQ(points[7].config.bus.write_buffer_depth, 8u);
  EXPECT_EQ(points[0].config.bus.filter_mask, 0x7F);
  EXPECT_EQ(points[1].config.bus.filter_mask, 0x77);
  // Base override applied before axes.
  EXPECT_EQ(points[5].config.masters.at(0).traffic.items, 40u);
  // Labels carry the axis assignments, indices are positional.
  EXPECT_EQ(points[3].index, 3u);
  EXPECT_EQ(points[3].label,
            "bus.write_buffer_depth=2 bus.filter_mask=0x77");
}

TEST(SweepSpec, NoAxesYieldsSingleBasePoint) {
  const auto spec = sweep::parse_spec("base = single-master\n");
  const auto points = sweep::expand(spec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].label, "base");
  EXPECT_EQ(points[0].config.masters.size(), 1u);
}

TEST(SweepSpec, InlineScenarioAsBase) {
  const auto spec = sweep::parse_spec(R"(
[master 0]
pattern = dma
items = 10

[sweep]
ddr.preset = toy, ddr266
)");
  const auto points = sweep::expand(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].config.timing.tRFC, ddr::toy_timing().tRFC);
  EXPECT_EQ(points[1].config.timing.tRFC, ddr::ddr266().tRFC);
}

TEST(SweepSpec, Errors) {
  EXPECT_THROW(sweep::parse_spec(""), ScenarioError);  // no base, no scenario
  EXPECT_THROW(sweep::parse_spec("base = not-a-scenario-or-file\n"),
               ScenarioError);
  EXPECT_THROW(sweep::parse_spec("base = single-master\n[sweep]\nnodot = 1\n"),
               ScenarioError);
  EXPECT_THROW(
      sweep::parse_spec("base = single-master\n[sweep]\nbus.depth = \n"),
      ScenarioError);
  EXPECT_THROW(sweep::parse_spec("[bus]\nwrite_buffer_depth = 1\n"
                                 "base = single-master\n"),
               ScenarioError);  // base after sections
  EXPECT_THROW(sweep::parse_spec("stray = 1\n"), ScenarioError);
}

TEST(SweepSpec, InlineScenarioErrorsKeepSweepFileLineNumbers) {
  // Blank lines, comments, and the [sweep] section above the bad key must
  // not shift the reported line number.
  try {
    sweep::parse_spec(
        "# header comment\n"       // 1
        "\n"                       // 2
        "[sweep]\n"                // 3
        "bus.filter_mask = 1, 2\n" // 4
        "\n"                       // 5
        "[master 0]\n"             // 6
        "items = nope\n");         // 7
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.line(), 7u) << e.what();
  }
}

TEST(SweepSpec, ExpandEnforcesWholeConfigValidation) {
  // Axis values go through apply_key one at a time, which cannot see
  // whole-config invariants; expand() must re-validate each point.  A
  // swept ddr.rows shrinking the aperture under the base's master windows
  // is an error, not a silently wrapping run.
  const auto spec = sweep::parse_spec(
      "base = table1/dma-1\n"
      "[sweep]\nddr.rows = 4096, 4\n");
  EXPECT_THROW(sweep::expand(spec), ScenarioError);
  // Same rule for the sweep file's own targeted overrides of the base.
  EXPECT_THROW(sweep::parse_spec("base = table1/dma-1\n"
                                 "[ddr]\nrows = 4\n"
                                 "[sweep]\nbus.filter_mask = 0x7f\n"),
               ScenarioError);
  // A channel override the interleave does not instantiate is an error
  // at expand, not silently dropped by resolution.
  const auto ch = sweep::parse_spec(
      "base = table1/dma-1\n"
      "[sweep]\nchannel1.tCL = 4, 6\n");
  EXPECT_THROW(sweep::expand(ch), ScenarioError);
}

TEST(SweepSpec, BadAxisSurfacesAtExpand) {
  const auto bad_value = sweep::parse_spec(
      "base = single-master\n[sweep]\nbus.write_buffer_depth = 1, soon\n");
  EXPECT_THROW(sweep::expand(bad_value), ScenarioError);
  const auto bad_key = sweep::parse_spec(
      "base = single-master\n[sweep]\nbus.bogus = 1, 2\n");
  EXPECT_THROW(sweep::expand(bad_key), ScenarioError);
}

// -------------------------------------------------------------- runner ----

TEST(SweepRunner, ModelNames) {
  sweep::Model m = sweep::Model::kTlm;
  EXPECT_TRUE(sweep::model_from_string("rtl", m));
  EXPECT_EQ(m, sweep::Model::kRtl);
  EXPECT_TRUE(sweep::model_from_string("both", m));
  EXPECT_FALSE(sweep::model_from_string("spice", m));
}

std::string render(const std::vector<sweep::PointOutcome>& outcomes,
                   sweep::Model model) {
  std::ostringstream os;
  sweep::aggregate_table(outcomes, model).print(os);
  return os.str();
}

TEST(SweepRunner, DeterministicAcrossJobCounts) {
  const auto spec = sweep::parse_spec(kSweepText);
  const auto points = sweep::expand(spec);
  ASSERT_GE(points.size(), 8u);

  const auto seq = sweep::SweepRunner(1).run(points, sweep::Model::kTlm);
  const auto par4 = sweep::SweepRunner(4).run(points, sweep::Model::kTlm);
  const auto par0 = sweep::SweepRunner(0).run(points, sweep::Model::kTlm);

  ASSERT_EQ(seq.size(), par4.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].index, i);
    EXPECT_EQ(par4[i].index, i);
    EXPECT_EQ(seq[i].label, par4[i].label);
    EXPECT_EQ(seq[i].tlm.cycles, par4[i].tlm.cycles) << i;
    EXPECT_EQ(seq[i].tlm.completed, par4[i].tlm.completed) << i;
    EXPECT_EQ(seq[i].tlm.cycles, par0[i].tlm.cycles) << i;
  }
  // The rendered aggregate (the artifact reports diff) is byte-identical.
  EXPECT_EQ(render(seq, sweep::Model::kTlm), render(par4, sweep::Model::kTlm));
  EXPECT_EQ(render(seq, sweep::Model::kTlm), render(par0, sweep::Model::kTlm));
}

TEST(SweepRunner, ChannelAxisDeterministicAcrossJobCounts) {
  // `ddr.channels` is a sweepable axis like any other knob, and the
  // index-ordered aggregates stay byte-identical at every worker count.
  const auto spec = sweep::parse_spec(
      "base = table1/dma-1\n"
      "[master *]\nitems = 30\n"
      "[sweep]\n"
      "ddr.channels = 1, 2, 4\n"
      "ddr.interleave_bytes = 256, 1024\n");
  const auto points = sweep::expand(spec);
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0].config.interleave.channels, 1u);
  EXPECT_EQ(points[5].config.interleave.channels, 4u);
  EXPECT_EQ(points[5].config.interleave.stripe_bytes, 1024u);

  const auto seq = sweep::SweepRunner(1).run(points, sweep::Model::kTlm);
  const auto par = sweep::SweepRunner(4).run(points, sweep::Model::kTlm);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_TRUE(seq[i].tlm.finished) << seq[i].label;
    EXPECT_EQ(seq[i].tlm.cycles, par[i].tlm.cycles) << i;
    EXPECT_EQ(seq[i].tlm.completed, par[i].tlm.completed) << i;
  }
  EXPECT_EQ(render(seq, sweep::Model::kTlm), render(par, sweep::Model::kTlm));

  // Sharding pays on the bandwidth-bound base (points are ordered
  // channels-major, stripe-minor; the strict per-step monotonicity
  // property lives in test_multi_channel.cpp at full workload size).
  EXPECT_LE(seq[5].tlm.cycles, seq[1].tlm.cycles);  // 4ch vs 1ch @1024B
}

TEST(SweepRunner, RunsCleanAndAggregates) {
  const auto spec = sweep::parse_spec(kSweepText);
  const auto points = sweep::expand(spec);
  const auto outcomes =
      sweep::SweepRunner(4).run(points, sweep::Model::kTlm);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.error.empty()) << o.error;
    EXPECT_TRUE(o.has_tlm);
    EXPECT_FALSE(o.has_rtl);
    EXPECT_TRUE(o.tlm.finished) << o.label;
    EXPECT_EQ(o.tlm.protocol_errors, 0u) << o.label;
    EXPECT_EQ(o.tlm.completed, 160u) << o.label;  // 4 masters x 40
  }
  const auto table = sweep::aggregate_table(outcomes, sweep::Model::kTlm);
  EXPECT_EQ(table.rows(), outcomes.size());
}

TEST(SweepRunner, BothModelsProduceAccuracyColumn) {
  auto spec = sweep::parse_spec(
      "base = single-master\n"
      "[master *]\nitems = 25\n"
      "[sweep]\nbus.write_buffer_depth = 2, 4\n");
  const auto outcomes =
      sweep::SweepRunner(2).run(sweep::expand(spec), sweep::Model::kBoth);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.has_tlm);
    EXPECT_TRUE(o.has_rtl);
    EXPECT_TRUE(o.tlm.finished);
    EXPECT_TRUE(o.rtl.finished);
    EXPECT_LT(o.cycle_error(), 0.25) << o.label;  // models stay close
  }
  const std::string text = render(outcomes, sweep::Model::kBoth);
  EXPECT_NE(text.find("error"), std::string::npos);
}

std::string point_csv(const std::vector<sweep::PointOutcome>& outcomes,
                      sweep::Model model) {
  std::ostringstream os;
  sweep::write_point_csv(os, outcomes, model);
  return os.str();
}

TEST(SweepRunner, BothModelsIdenticalAcrossJobCounts) {
  const auto points = sweep::expand(sweep::parse_spec(
      "base = table1/cpu-1\n"
      "[master *]\nitems = 30\n"
      "[sweep]\n"
      "bus.write_buffer_depth = 2, 4\n"
      "master0.items = 30, 33\n"));
  ASSERT_EQ(points.size(), 4u);

  const auto seq = sweep::SweepRunner(1).run(points, sweep::Model::kBoth);
  const auto par = sweep::SweepRunner(4).run(points, sweep::Model::kBoth);
  for (const auto& o : seq) {
    EXPECT_TRUE(o.error.empty()) << o.index << ": " << o.error;
    EXPECT_TRUE(o.has_tlm);
    EXPECT_TRUE(o.has_rtl);
  }
  EXPECT_EQ(point_csv(seq, sweep::Model::kBoth),
            point_csv(par, sweep::Model::kBoth));
  EXPECT_EQ(render(seq, sweep::Model::kBoth), render(par, sweep::Model::kBoth));
}

TEST(SweepRunner, WarmForkDemotesExactlyTheDivergentPoints) {
  // A swept seed reshapes master0's stimulus prefix, so those points
  // cannot fork from the warm base: they are demoted to cold runs, at any
  // worker count, and report exactly what a cold sweep reports.
  const auto spec = sweep::parse_spec(R"(
base = table1/cpu-1

[master *]
items = 40

[sweep]
master0.seed = 1, 7
master0.items = 40, 44, 48
)");
  const auto points = sweep::expand(spec);
  ASSERT_EQ(points.size(), 6u);
  const sim::Cycle warmup = 400;

  const auto cold = sweep::SweepRunner(1).run(points, sweep::Model::kTlm);
  const auto warm1 = sweep::SweepRunner(1).run(points, sweep::Model::kTlm,
                                               spec.base_config, warmup);
  const auto warm4 = sweep::SweepRunner(4).run(points, sweep::Model::kTlm,
                                               spec.base_config, warmup);
  EXPECT_EQ(point_csv(warm1, sweep::Model::kTlm),
            point_csv(warm4, sweep::Model::kTlm));

  // seed = 1 is the base's own seed (points 0-2 fork clean); seed = 7
  // (points 3-5) diverges inside the warm-up.
  std::size_t demoted = 0;
  for (std::size_t i = 0; i < warm1.size(); ++i) {
    SCOPED_TRACE(warm1[i].label);
    EXPECT_TRUE(warm1[i].error.empty()) << warm1[i].error;
    EXPECT_EQ(warm1[i].demoted, i >= 3);
    demoted += warm1[i].demoted ? 1u : 0u;
    if (warm1[i].demoted) {
      auto as_cold = warm1[i];
      as_cold.demoted = false;
      EXPECT_EQ(point_csv({as_cold}, sweep::Model::kTlm),
                point_csv({cold[i]}, sweep::Model::kTlm));
    }
  }
  EXPECT_EQ(demoted, 3u);
}

TEST(SweepRunner, FailedPointIsReportedNotFatal) {
  // max_cycles too small to drain: the run "fails" (finished == false) but
  // the sweep still completes and reports it.
  auto spec = sweep::parse_spec(
      "base = single-master\n"
      "[platform]\nmax_cycles = 50\n"
      "[sweep]\nbus.write_buffer_depth = 2, 4\n");
  const auto outcomes =
      sweep::SweepRunner(2).run(sweep::expand(spec), sweep::Model::kTlm);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.error.empty());
    EXPECT_FALSE(o.tlm.finished);
  }
}

}  // namespace
