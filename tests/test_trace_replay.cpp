// The capture→replay acceptance contract (closed loop).
//
// For every Table-1 preset: tap the master ports, run, write the captured
// streams back in as trace-backed stimulus, and the replay must reproduce
// the original run's per-master transaction stream bit-exactly and its
// cycle count exactly — in both the transaction-level and the signal-level
// model.  Captured gaps are think time relative to the same port's
// completions, so a capture taken on one model also replays cycle-exactly
// on the other.  A checkpoint taken mid-way through a trace-driven run
// must resume bit-exactly after the trace file is deleted (self-describing
// snapshot).

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "assertions/assert.hpp"
#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "scenario/scenario.hpp"
#include "state/snapshot.hpp"
#include "traffic/stimulus.hpp"
#include "traffic/trace.hpp"

namespace {

using namespace ahbp;

constexpr unsigned kItems = 30;  // per master; keeps 12 presets x 2 models fast

/// Bitwise equality of two captured/expanded streams.
void expect_stream_equal(const traffic::Script& a, const traffic::Script& b,
                         const std::string& what, bool compare_gaps) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string at = what + " item " + std::to_string(i);
    if (compare_gaps) {
      EXPECT_EQ(a[i].gap, b[i].gap) << at;
    }
    EXPECT_EQ(a[i].txn.id, b[i].txn.id) << at;
    EXPECT_EQ(a[i].txn.master, b[i].txn.master) << at;
    EXPECT_EQ(a[i].txn.dir, b[i].txn.dir) << at;
    EXPECT_EQ(a[i].txn.addr, b[i].txn.addr) << at;
    EXPECT_EQ(a[i].txn.size, b[i].txn.size) << at;
    EXPECT_EQ(a[i].txn.burst, b[i].txn.burst) << at;
    EXPECT_EQ(a[i].txn.beats, b[i].txn.beats) << at;
    EXPECT_EQ(a[i].txn.locked, b[i].txn.locked) << at;
    EXPECT_EQ(a[i].txn.data, b[i].txn.data) << at;
  }
}

/// Run `cfg` on `model` with the capture tap on; returns (result, captures).
std::pair<core::SimResult, std::vector<traffic::Script>> run_captured(
    const core::PlatformConfig& cfg, core::ModelKind model) {
  core::Platform p(cfg, model);
  p.enable_capture();
  p.run_to_completion();
  std::vector<traffic::Script> captured;
  for (std::size_t m = 0; m < cfg.masters.size(); ++m) {
    captured.push_back(p.capture(static_cast<ahb::MasterId>(m)).captured());
  }
  return {p.result(), std::move(captured)};
}

/// Flip every master of `cfg` to replay `captures` via resolved trace text.
core::PlatformConfig replay_config(const core::PlatformConfig& cfg,
                                   const std::vector<traffic::Script>& caps) {
  core::PlatformConfig replay = cfg;
  for (std::size_t m = 0; m < replay.masters.size(); ++m) {
    std::ostringstream os;
    traffic::save_trace(os, caps[m]);
    traffic::StimulusSpec& spec = replay.masters[m].traffic;
    spec.source = traffic::StimulusSource::kTrace;
    spec.trace_path.clear();
    spec.trace_text = os.str();
  }
  return replay;
}

class TraceReplayClosedLoop
    : public ::testing::TestWithParam<core::ModelKind> {};

TEST_P(TraceReplayClosedLoop, EveryTable1PresetReplaysBitExactly) {
  const core::ModelKind model = GetParam();
  for (const core::Workload& row : core::table1_workloads(kItems)) {
    // Original synthetic run, master ports tapped.
    const auto [orig, captured] = run_captured(row.config, model);
    ASSERT_TRUE(orig.finished) << row.name;

    // The tap saw exactly the expanded stimulus (same skeletons, in order).
    const auto scripts = core::expand_stimulus(row.config);
    for (std::size_t m = 0; m < scripts.size(); ++m) {
      expect_stream_equal(captured[m], scripts[m],
                          row.name + " capture m" + std::to_string(m),
                          /*compare_gaps=*/false);
    }

    // Replay the capture through trace-backed stimulus: same cycle count,
    // same transaction count, and the replay's own capture reproduces the
    // original capture bit-exactly (gaps included — the tap is a fixed
    // point, so a re-capture of a replay is the trace itself).
    const auto [replayed, recaptured] =
        run_captured(replay_config(row.config, captured), model);
    EXPECT_EQ(replayed.cycles, orig.cycles) << row.name;
    EXPECT_EQ(replayed.ran_cycles, orig.ran_cycles) << row.name;
    EXPECT_EQ(replayed.completed, orig.completed) << row.name;
    EXPECT_EQ(replayed.protocol_errors, orig.protocol_errors) << row.name;
    for (std::size_t m = 0; m < captured.size(); ++m) {
      expect_stream_equal(recaptured[m], captured[m],
                          row.name + " replay m" + std::to_string(m),
                          /*compare_gaps=*/true);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothModels, TraceReplayClosedLoop,
                         ::testing::Values(core::ModelKind::kTlm,
                                           core::ModelKind::kRtl),
                         [](const auto& pinfo) {
                           return std::string(core::to_string(pinfo.param));
                         });

TEST(TraceReplay, CaptureCrossesModels) {
  // Gaps are recorded relative to the capturing port's own completions, so
  // a TLM capture replays cycle-exactly on the RTL and vice versa — one
  // recorded workload serves both sides of the Table-1 comparison.
  const core::Workload row = core::table1_workloads(kItems)[4];  // dma-1
  const auto [tlm_orig, tlm_caps] = run_captured(row.config,
                                                 core::ModelKind::kTlm);
  const auto [rtl_orig, rtl_caps] = run_captured(row.config,
                                                 core::ModelKind::kRtl);

  core::Platform rtl_replay(replay_config(row.config, tlm_caps),
                            core::ModelKind::kRtl);
  rtl_replay.run_to_completion();
  EXPECT_EQ(rtl_replay.result().cycles, rtl_orig.cycles);
  EXPECT_EQ(rtl_replay.result().completed, rtl_orig.completed);

  core::Platform tlm_replay(replay_config(row.config, rtl_caps),
                            core::ModelKind::kTlm);
  tlm_replay.run_to_completion();
  EXPECT_EQ(tlm_replay.result().cycles, tlm_orig.cycles);
  EXPECT_EQ(tlm_replay.result().completed, tlm_orig.completed);
}

TEST(TraceReplay, CheckpointOfTraceDrivenRunSurvivesFileDeletion) {
  // Capture a preset, park the traces in real files, and drive a
  // trace-driven run through checkpoint/restore with the files deleted
  // before the resume: the snapshot must be self-describing.
  const core::Workload row = core::table1_workloads(kItems)[0];  // cpu-1
  for (const core::ModelKind model :
       {core::ModelKind::kTlm, core::ModelKind::kRtl}) {
    const auto [orig, captured] = run_captured(row.config, model);

    core::PlatformConfig cfg = row.config;
    std::vector<std::string> paths;
    for (std::size_t m = 0; m < cfg.masters.size(); ++m) {
      const std::string path = "trace_replay_ckpt_m" + std::to_string(m) +
                               "." + std::string(core::to_string(model)) +
                               ".trace";
      std::ofstream os(path);
      ASSERT_TRUE(os) << path;
      traffic::save_trace(os, captured[m]);
      paths.push_back(path);
      traffic::StimulusSpec& spec = cfg.masters[m].traffic;
      spec.source = traffic::StimulusSource::kTrace;
      spec.trace_path = path;
      spec.trace_text.clear();
    }

    // Straight trace-driven run for the reference result.
    core::Platform straight(cfg, model);
    straight.run_to_completion();
    const core::SimResult expect = straight.result();
    EXPECT_EQ(expect.cycles, orig.cycles);

    // Checkpoint strictly inside the run.
    core::Platform warm(cfg, model);
    warm.run(expect.ran_cycles / 2 + 1);
    ASSERT_FALSE(warm.finished());
    state::StateWriter w;
    core::write_checkpoint(w, warm, scenario::serialize(cfg));
    const std::vector<std::uint8_t> bytes = w.finish();

    // The trace files are gone; only the snapshot knows the workload.
    for (const std::string& path : paths) {
      std::remove(path.c_str());
    }

    state::StateReader r(bytes.data(), bytes.size());
    const core::CheckpointInfo info = core::read_checkpoint_header(r);
    EXPECT_EQ(info.model, core::to_string(model));
    EXPECT_EQ(info.traces.size(), cfg.masters.size());
    core::PlatformConfig resumed_cfg = scenario::parse(info.scenario_text);
    core::apply_embedded_traces(resumed_cfg, info);
    core::Platform fork(resumed_cfg, model);
    fork.restore_state(r);
    fork.run_to_completion();
    const core::SimResult resumed = fork.result();

    EXPECT_EQ(resumed.finished, expect.finished);
    EXPECT_EQ(resumed.cycles, expect.cycles);
    EXPECT_EQ(resumed.ran_cycles, expect.ran_cycles);
    EXPECT_EQ(resumed.completed, expect.completed);
    EXPECT_EQ(resumed.protocol_errors, expect.protocol_errors);
    EXPECT_EQ(resumed.qos_warnings, expect.qos_warnings);
  }
}

TEST(TraceReplay, PathlessTraceCheckpointIsResumable) {
  // A capture fed back as resolved text only (no file ever parked on
  // disk) must still checkpoint and resume: the serialized scenario
  // carries the '<embedded>' marker and the snapshot carries the content.
  const core::Workload row = core::table1_workloads(kItems)[8];  // rt-1
  const auto [orig, captured] = run_captured(row.config,
                                             core::ModelKind::kTlm);
  const core::PlatformConfig cfg = replay_config(row.config, captured);

  core::Platform warm(cfg, core::ModelKind::kTlm);
  warm.run(orig.ran_cycles / 2 + 1);
  ASSERT_FALSE(warm.finished());
  state::StateWriter w;
  core::write_checkpoint(w, warm, scenario::serialize(cfg));
  const std::vector<std::uint8_t> bytes = w.finish();

  state::StateReader r(bytes.data(), bytes.size());
  const core::CheckpointInfo info = core::read_checkpoint_header(r);
  core::PlatformConfig resumed_cfg = scenario::parse(info.scenario_text);
  core::apply_embedded_traces(resumed_cfg, info);
  core::Platform fork(resumed_cfg, core::ModelKind::kTlm);
  fork.restore_state(r);
  fork.run_to_completion();
  const core::SimResult resumed = fork.result();
  EXPECT_EQ(resumed.cycles, orig.cycles);
  EXPECT_EQ(resumed.completed, orig.completed);
}

TEST(TraceReplay, EmptyCaptureReplaysAsIdleMaster) {
  // items = 0 captures an empty stream; replaying it is a master that
  // finishes immediately — the platform must still drain cleanly.
  core::PlatformConfig cfg = core::default_platform(2, 3, kItems);
  cfg.masters[1].traffic.items = 0;
  const auto [orig, captured] = run_captured(cfg, core::ModelKind::kTlm);
  ASSERT_TRUE(orig.finished);
  EXPECT_TRUE(captured[1].empty());
  core::Platform replay(replay_config(cfg, captured), core::ModelKind::kTlm);
  replay.run_to_completion();
  EXPECT_EQ(replay.result().cycles, orig.cycles);
  EXPECT_EQ(replay.result().completed, orig.completed);
}

TEST(TraceReplay, EmptyTraceFileResolvesAndSurvivesDeletion) {
  // A zero-byte trace file is a valid empty stimulus; resolution must mark
  // it authoritative (not "unresolved") so a checkpoint-style flow never
  // goes back to the (deleted) file.
  const std::string path = "trace_replay_empty.trace";
  { std::ofstream os(path); ASSERT_TRUE(os); }
  core::PlatformConfig cfg = core::default_platform(2, 3, kItems);
  traffic::StimulusSpec& spec = cfg.masters[1].traffic;
  spec.source = traffic::StimulusSource::kTrace;
  spec.trace_path = path;
  core::resolve_stimulus(cfg);
  EXPECT_TRUE(spec.resolved());
  std::remove(path.c_str());
  // Expansion works purely from the resolved (empty) text.
  const auto scripts = core::expand_stimulus(cfg);
  EXPECT_TRUE(scripts[1].empty());
  core::Platform p(cfg, core::ModelKind::kTlm);
  p.run_to_completion();
  EXPECT_TRUE(p.result().finished);
}

TEST(TraceReplay, TraceWiderThanBusRejected) {
  // A trace recorded on an 8-byte bus must not silently replay on a
  // 4-byte one.
  core::PlatformConfig cfg = core::default_platform(1, 3, kItems);
  cfg.bus.data_width_bytes = 8;
  const auto [orig, captured] = run_captured(cfg, core::ModelKind::kTlm);
  ASSERT_TRUE(orig.finished);
  core::PlatformConfig replay = replay_config(cfg, captured);
  replay.bus.data_width_bytes = 4;
  EXPECT_THROW(core::expand_stimulus(replay), std::runtime_error);
}

TEST(TraceReplay, TraceOutsideApertureRejected) {
  core::PlatformConfig cfg = core::default_platform(1, 3, kItems);
  traffic::StimulusSpec& spec = cfg.masters[0].traffic;
  spec.source = traffic::StimulusSource::kTrace;
  spec.trace_text = "0 R fffffff0 4 SINGLE 1\n";  // far past an 8MB device
  EXPECT_THROW(core::expand_stimulus(cfg), std::runtime_error);
}

/// Run `ahbp_sim <args>`; returns (exit code, stdout + stderr).  A crash
/// (no normal exit) reports -1.
std::pair<int, std::string> run_cli(const std::string& args) {
  const std::string cmd = std::string(AHBP_SIM_EXE) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return {-1, "popen failed"};
  }
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    out.append(buf, n);
  }
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(TraceReplay, RetiredBinaryImageFailsCleanly) {
  // Binary trace images ("\x89AHBPTRC", version 1, one read record) are no
  // longer a trace format.  Whether they arrive as a trace file or inside
  // a checkpoint, run, resume and lint must report one line-numbered trace
  // error for the master and exit nonzero.
  std::string image("\x89" "AHBPTRC", 8);
  const auto put = [&](std::uint64_t v, unsigned bytes) {
    for (unsigned i = 0; i < bytes; ++i) {
      image += static_cast<char>((v >> (8 * i)) & 0xff);
    }
  };
  put(1, 4);       // version
  put(0, 4);       // reserved
  put(1, 8);       // records
  put(0, 8);       // no index
  put(24, 8);      // payload bytes
  put(0, 8);       // record: gap
  put(0x100, 8);   //         addr
  put(0x200, 4);   //         dir R, size word, burst SINGLE, flags 0
  put(1, 4);       //         beats

  namespace fs = std::filesystem;
  const std::string trace = fs::absolute("trace_replay_retired.trace");
  const std::string scn = fs::absolute("trace_replay_retired.scenario");
  const std::string ckpt = fs::absolute("trace_replay_retired.ckpt");
  {
    std::ofstream os(trace, std::ios::binary);
    os << image;
  }
  core::PlatformConfig cfg = core::default_platform(2, 3, kItems);
  traffic::StimulusSpec& spec = cfg.masters[1].traffic;
  spec.source = traffic::StimulusSource::kTrace;
  spec.trace_path = trace;
  {
    std::ofstream os(scn);
    os << scenario::serialize(cfg);
  }
  // The checkpoint embeds the image for master 1 next to the state of a
  // platform that replays a valid trace.
  {
    core::PlatformConfig valid = cfg;
    valid.masters[1].traffic.trace_path.clear();
    valid.masters[1].traffic.trace_text = "0 R 100 4 SINGLE 1\n";
    core::Platform warm(valid, core::ModelKind::kTlm);
    warm.run(10);
    state::StateWriter w;
    w.begin("checkpoint");
    w.put_str("tlm");
    w.put_u64(warm.now());
    w.put_str(scenario::serialize(cfg));
    w.put_u64(1);
    w.put_u64(1);
    w.put_str(image);
    w.end();
    warm.save_state(w);
    w.write_file(ckpt);
  }

  const std::string error = "master 1 trace '" + trace + "': trace line 1: ";
  for (const std::string& args :
       {"run " + scn, "resume " + ckpt, "lint " + scn}) {
    const auto [code, out] = run_cli(args);
    EXPECT_GT(code, 0) << args << "\n" << out;
    EXPECT_EQ(count_of(out, "trace line"), 1u) << args << "\n" << out;
    EXPECT_NE(out.find(error), std::string::npos) << args << "\n" << out;
  }
  std::remove(trace.c_str());
  std::remove(scn.c_str());
  std::remove(ckpt.c_str());
}

TEST(TraceReplay, TraceToolsNameTheMalformedFile) {
  // `trace info` and `trace slice` name the file in a parse error, as run
  // and lint do.
  const std::string trace =
      std::filesystem::absolute("trace_replay_malformed.trace");
  {
    std::ofstream os(trace);
    os << "0 R 100 4 NOSUCHBURST 1\n";
  }
  const std::string out_path =
      std::filesystem::absolute("trace_replay_malformed.slice");
  const std::string error = "error: trace '" + trace + "': trace line 1: ";
  for (const std::string& args :
       {"trace info " + trace, "trace slice " + trace + " --out " + out_path}) {
    const auto [code, out] = run_cli(args);
    EXPECT_GT(code, 0) << args << "\n" << out;
    EXPECT_EQ(count_of(out, "trace line"), 1u) << args << "\n" << out;
    EXPECT_NE(out.find(error), std::string::npos) << args << "\n" << out;
  }
  EXPECT_FALSE(std::filesystem::exists(out_path));
  std::remove(trace.c_str());
}

TEST(TraceReplay, DirectoryTracePathRejected) {
  // Regression: an openable directory used to resolve into an empty
  // workload with trace_loaded = true (on Linux, ifstream opens a
  // directory and rdbuf extraction reports it exactly like an empty
  // file).  It must throw, naming the path, and leave the spec
  // unresolved.
  const std::string dir = "trace_replay_dir_fixture";
  std::filesystem::create_directory(dir);

  traffic::StimulusSpec spec;
  spec.source = traffic::StimulusSource::kTrace;
  spec.trace_path = dir;
  try {
    traffic::resolve(spec);
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(dir), std::string::npos) << msg;
    EXPECT_NE(msg.find("directory"), std::string::npos) << msg;
  }
  EXPECT_FALSE(spec.trace_loaded);
  EXPECT_FALSE(spec.resolved());

  // Through the platform choke point the error also names the master.
  core::PlatformConfig cfg = core::default_platform(2, 3, kItems);
  cfg.masters[1].traffic.source = traffic::StimulusSource::kTrace;
  cfg.masters[1].traffic.trace_path = dir;
  try {
    core::expand_stimulus(cfg);
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("master 1"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(dir);
}

TEST(TraceReplay, UnreadableTraceFileRejected) {
  // A file the process cannot open must throw, not resolve empty.  Root
  // bypasses permission bits entirely, so skip there (CI runners and
  // developer machines exercise it).
  if (::geteuid() == 0) {
    GTEST_SKIP() << "running as root: permission bits are not enforced";
  }
  const std::string path = "trace_replay_unreadable.trace";
  {
    std::ofstream os(path);
    ASSERT_TRUE(os);
    os << "0 R 100 4 INCR4 4\n";
  }
  ASSERT_EQ(::chmod(path.c_str(), 0), 0);

  traffic::StimulusSpec spec;
  spec.source = traffic::StimulusSource::kTrace;
  spec.trace_path = path;
  EXPECT_THROW(traffic::resolve(spec), std::runtime_error);
  EXPECT_FALSE(spec.trace_loaded);

  ::chmod(path.c_str(), 0600);
  std::remove(path.c_str());
}

TEST(TraceReplay, RecorderRejectsIssueBeforeCompletion) {
  // Regression: `now - last_complete_` on uint64 wrapped a contradictory
  // issue-before-completion report into a near-2^64 gap that poisoned the
  // capture.  The recorder must assert (throw) instead, and the bad entry
  // must not be captured.
  traffic::TraceRecorder rec(0);
  ahb::Transaction txn;
  txn.addr = 0x100;
  rec.record_issue(10, txn);
  rec.record_complete(100);
  EXPECT_THROW(rec.record_issue(50, txn), chk::ModelAssertError);
  ASSERT_EQ(rec.captured().size(), 1u);  // the bad entry was rejected

  // Equality is legal (zero think time): gap saturates at exactly 0.
  rec.record_issue(100, txn);
  ASSERT_EQ(rec.captured().size(), 2u);
  EXPECT_EQ(rec.captured()[1].gap, 0u);

  // And the normal case still measures think time.
  rec.record_complete(120);
  rec.record_issue(127, txn);
  EXPECT_EQ(rec.captured()[2].gap, 7u);
}

TEST(TraceReplay, MissingTraceFileNamesTheMaster) {
  core::PlatformConfig cfg = core::default_platform(2, 3, kItems);
  traffic::StimulusSpec& spec = cfg.masters[1].traffic;
  spec.source = traffic::StimulusSource::kTrace;
  spec.trace_path = "definitely/not/here.trace";
  try {
    core::expand_stimulus(cfg);
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("master 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("definitely/not/here.trace"), std::string::npos)
        << msg;
  }
}

}  // namespace
