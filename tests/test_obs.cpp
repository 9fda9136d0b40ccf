// Observability layer: JSON writer, stall attribution, self-profiling,
// timeline structure — and the invariant that instrumentation never
// perturbs simulated behaviour in either model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "obs/json.hpp"
#include "obs/selfprof.hpp"
#include "obs/stall.hpp"
#include "obs/timeline.hpp"
#include "state/snapshot.hpp"

namespace {

using namespace ahbp;

// ------------------------------------------------------------- JsonWriter --

TEST(JsonWriter, NestedStructuresAndCommas) {
  std::ostringstream os;
  obs::JsonWriter j(os);
  j.begin_object()
      .member("a", 1u)
      .key("b")
      .begin_array()
      .value("x\"y")
      .value(true)
      .value(0.5)
      .end_array()
      .key("c")
      .begin_object()
      .end_object()
      .end_object();
  EXPECT_EQ(os.str(), "{\"a\":1,\"b\":[\"x\\\"y\",true,0.5],\"c\":{}}");
}

TEST(JsonWriter, EscapesControlCharacters) {
  EXPECT_EQ(obs::json_escape("a\tb\nc"), "a\\tb\\nc");
  EXPECT_EQ(obs::json_escape(std::string("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(obs::json_escape("q\\\"q"), "q\\\\\\\"q");
}

TEST(JsonWriter, NonFiniteDoublesDegradeToZero) {
  std::ostringstream os;
  obs::JsonWriter j(os);
  j.begin_array().value(0.0 / 0.0).value(1e308 * 10).end_array();
  EXPECT_EQ(os.str(), "[0,0]");
}

// ---------------------------------------------------------- StallCounters --

TEST(StallCounters, AddTotalAndRoundtrip) {
  obs::StallCounters c;
  c.add(obs::StallClass::kRunning);
  c.add(obs::StallClass::kThink);
  c.add(obs::StallClass::kThink);
  EXPECT_EQ(c[obs::StallClass::kRunning], 1u);
  EXPECT_EQ(c[obs::StallClass::kThink], 2u);
  EXPECT_EQ(c[obs::StallClass::kWbufFull], 0u);
  EXPECT_EQ(c.total(), 3u);

  state::StateWriter w;
  w.begin("stalls");
  c.save_state(w);
  w.end();
  const auto bytes = w.finish();

  obs::StallCounters back;
  state::StateReader r(bytes.data(), bytes.size());
  r.enter("stalls");
  back.restore_state(r);
  r.leave();
  EXPECT_EQ(back.cycles, c.cycles);
}

TEST(StallCounters, ClassNamesAreStable) {
  EXPECT_EQ(obs::to_string(obs::StallClass::kRunning), "running");
  EXPECT_EQ(obs::to_string(obs::StallClass::kArbWait), "arb_wait");
  EXPECT_EQ(obs::to_string(obs::StallClass::kBusBusy), "bus_busy");
  EXPECT_EQ(obs::to_string(obs::StallClass::kDdrBusy), "ddr_busy");
  EXPECT_EQ(obs::to_string(obs::StallClass::kWbufFull), "wbuf_full");
  EXPECT_EQ(obs::to_string(obs::StallClass::kThink), "think");
}

// ----------------------------------------------------------- SelfProfiler --

TEST(SelfProfiler, PhaseIdsAreDenseAndDeduped) {
  obs::SelfProfiler sp;
  const unsigned a = sp.phase("alpha");
  const unsigned b = sp.phase("beta");
  EXPECT_EQ(sp.phase("alpha"), a);
  EXPECT_NE(a, b);
  sp.add(a, 100);
  sp.add(a, 50);
  sp.add(b, 7);
  EXPECT_EQ(sp.phases()[a].calls, 2u);
  EXPECT_EQ(sp.phases()[a].ns, 150u);
  EXPECT_EQ(sp.total_ns(), 157u);
}

TEST(SelfProfiler, NullScopedTimerIsANoOp) {
  // The disabled fast path: no profiler, no effect (and no crash).
  obs::ScopedTimer t(nullptr, 12345);
  SUCCEED();
}

// --------------------------------------------------------------- Timeline --

TEST(Timeline, EndWithoutBeginIsDropped) {
  obs::Timeline tl;
  const unsigned pid = tl.add_process("p");
  const unsigned t = tl.add_track(pid, "t");
  tl.end(t, 5);
  EXPECT_TRUE(tl.events().empty());
}

TEST(Timeline, FinalizeClosesOpenSpans) {
  obs::Timeline tl;
  const unsigned pid = tl.add_process("p");
  const unsigned t = tl.add_track(pid, "t");
  tl.begin(t, 1, "outer");
  tl.begin(t, 2, "inner");
  tl.end(t, 3);
  tl.finalize(9);
  ASSERT_EQ(tl.events().size(), 4u);
  EXPECT_EQ(tl.events()[3].ph, 'E');
  EXPECT_EQ(tl.events()[3].ts, 9u);
  EXPECT_TRUE(tl.tracks()[t].open.empty());
}

/// Extract every "ts": value from a trace JSON document, in order.
std::vector<std::uint64_t> extract_ts(const std::string& s) {
  std::vector<std::uint64_t> out;
  const std::string key = "\"ts\":";
  for (std::size_t pos = s.find(key); pos != std::string::npos;
       pos = s.find(key, pos + 1)) {
    out.push_back(std::stoull(s.substr(pos + key.size())));
  }
  return out;
}

TEST(Timeline, WriteSortsTimestampsAndBalancesSpans) {
  obs::Timeline tl;
  const unsigned pid = tl.add_process("model");
  const unsigned t = tl.add_track(pid, "track");
  // Emit deliberately out of order; write() must sort.
  tl.instant(t, 10, "late");
  tl.counter(t, 3, "occ", 2);
  tl.begin(t, 1, "span");
  tl.end(t, 7);

  std::ostringstream os;
  tl.write(os);
  const std::string s = os.str();

  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"thread_name\""), std::string::npos);
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.substr(s.size() - 2), "}\n");

  const auto ts = extract_ts(s);
  ASSERT_EQ(ts.size(), 4u);  // metadata events carry no "ts"
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LE(ts[i - 1], ts[i]);
  }
}

// ----------------------------------------------- cross-model invariants --

/// B/E events nest and balance on every track.
void expect_balanced(const obs::Timeline& tl) {
  std::vector<int> depth(tl.tracks().size(), 0);
  for (const auto& e : tl.events()) {
    if (e.ph == 'B') {
      ++depth[e.track];
    } else if (e.ph == 'E') {
      --depth[e.track];
      EXPECT_GE(depth[e.track], 0);
    }
  }
  for (const int d : depth) {
    EXPECT_EQ(d, 0);
  }
}

TEST(Observability, InstrumentationDoesNotPerturbEitherModel) {
  auto cfg = core::table1_workloads(12, 3)[0].config;
  for (const auto kind : {core::ModelKind::kTlm, core::ModelKind::kRtl}) {
    core::Platform plain(cfg, kind);
    plain.run_to_completion();
    const core::SimResult base = plain.result();

    obs::Timeline tl;
    obs::SelfProfiler sp;
    core::Platform instr(cfg, kind);
    instr.enable_timeline(tl);
    instr.enable_self_profile(sp);
    instr.run_to_completion();
    tl.finalize(instr.now());
    const core::SimResult r = instr.result();

    EXPECT_EQ(base.cycles, r.cycles) << core::to_string(kind);
    EXPECT_EQ(base.ran_cycles, r.ran_cycles) << core::to_string(kind);
    EXPECT_EQ(base.completed, r.completed) << core::to_string(kind);
    EXPECT_EQ(base.kernel_activity, r.kernel_activity)
        << core::to_string(kind);

    EXPECT_FALSE(tl.events().empty());
    expect_balanced(tl);
    // Self-profiling saw the kernel components plus stimulus expansion.
    EXPECT_GT(sp.phases().size(), 1u);
  }
}

TEST(Observability, StallDecompositionSumsToSimulatedCycles) {
  auto cfg = core::table1_workloads(15, 5)[0].config;
  for (const auto kind : {core::ModelKind::kTlm, core::ModelKind::kRtl}) {
    core::Platform p(cfg, kind);
    p.run_to_completion();
    const core::SimResult r = p.result();
    ASSERT_FALSE(r.profile.masters.empty());
    for (const auto& m : r.profile.masters) {
      EXPECT_EQ(m.stalls.total(), r.ran_cycles)
          << core::to_string(kind) << " " << m.name;
      // Something happened: a finishing master has running cycles.
      EXPECT_GT(m.stalls[obs::StallClass::kRunning], 0u);
    }
  }
}

TEST(Observability, ProgressChunkingKeepsResultsBitIdentical) {
  auto cfg = core::table1_workloads(12, 7)[0].config;
  for (const auto kind : {core::ModelKind::kTlm, core::ModelKind::kRtl}) {
    core::Platform plain(cfg, kind);
    plain.run_to_completion();
    const core::SimResult base = plain.result();

    std::ostringstream sink;
    core::Platform chunked(cfg, kind);
    chunked.set_progress(&sink, /*interval_sec=*/0.0);
    chunked.run_to_completion();
    const core::SimResult r = chunked.result();

    EXPECT_EQ(base.cycles, r.cycles) << core::to_string(kind);
    EXPECT_EQ(base.ran_cycles, r.ran_cycles) << core::to_string(kind);
    EXPECT_EQ(base.completed, r.completed) << core::to_string(kind);
    EXPECT_EQ(base.kernel_activity, r.kernel_activity)
        << core::to_string(kind);
  }
}

TEST(Observability, CompletionHookSeesEveryRetirementWithoutPerturbing) {
  auto cfg = core::table1_workloads(12, 3)[0].config;
  // Host time is the only thing two runs of one config may disagree on.
  const auto stats_json = [](core::SimResult r) {
    r.wall_seconds = 0.0;
    std::ostringstream os;
    core::write_stats_json(os, r);
    return os.str();
  };
  for (const auto kind : {core::ModelKind::kTlm, core::ModelKind::kRtl}) {
    core::Platform plain(cfg, kind);
    plain.run_to_completion();

    core::Platform hooked(cfg, kind);
    std::uint64_t calls = 0;
    sim::Cycle latest = 0;
    hooked.set_on_complete([&](ahb::MasterId m, const ahb::Transaction& t) {
      ++calls;
      latest = std::max(latest, hooked.now());
      EXPECT_EQ(t.master, m) << core::to_string(kind);
    });
    hooked.run_to_completion();
    const core::SimResult r = hooked.result();

    ASSERT_TRUE(r.finished) << core::to_string(kind);
    EXPECT_EQ(calls, r.completed) << core::to_string(kind);
    EXPECT_EQ(latest, r.cycles) << core::to_string(kind);
    EXPECT_EQ(stats_json(plain.result()), stats_json(r))
        << core::to_string(kind);
  }
}

TEST(Observability, StatsJsonIsWellFormedAndCarriesStalls) {
  auto cfg = core::table1_workloads(10, 3)[0].config;
  const core::SimResult r = core::run_tlm(cfg);
  std::ostringstream os;
  core::write_stats_json(os, r);
  const std::string s = os.str();

  EXPECT_NE(s.find("\"model\":\"tlm\""), std::string::npos);
  EXPECT_NE(s.find("\"stalls\""), std::string::npos);
  EXPECT_NE(s.find("\"violations\""), std::string::npos);
  EXPECT_NE(s.find("\"arb_wait\""), std::string::npos);

  // Structural sanity: braces and brackets balance (strings in this dump
  // never contain them).
  int braces = 0, brackets = 0;
  for (const char c : s) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Observability, TimelineJsonNamesBothModelsUnderOneFile) {
  auto cfg = core::table1_workloads(8, 3)[0].config;
  obs::Timeline tl;
  for (const auto kind : {core::ModelKind::kTlm, core::ModelKind::kRtl}) {
    core::Platform p(cfg, kind);
    p.enable_timeline(tl);
    p.run_to_completion();
    tl.finalize(p.now());
  }
  std::ostringstream os;
  tl.write(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"name\":\"tlm\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"rtl\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"bus\""), std::string::npos);
  EXPECT_NE(s.find("ddr ch0"), std::string::npos);
  expect_balanced(tl);
}

}  // namespace
