// The repo-specific source linter (src/lint) — every rule family must fire
// on a violating snippet and stay silent on a compliant one, including the
// deliberate exemptions (TrafficRng, src/obs, assert.hpp).  These are the
// fixtures that keep the linter honest: a rule that never fires is dead
// weight, and a rule that fires on idiomatic code gets deleted in anger.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace {

using ahbp::lint::Finding;
using ahbp::lint::SnapshotManifest;
using ahbp::lint::SourceFile;

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::vector<Finding> lint_one(const std::string& path,
                              const std::string& text) {
  return ahbp::lint::lint_sources({{path, text}}, "");
}

// ---------------------------------------------------------------------------
// strip_code: token rules must never fire on prose.

TEST(StripCode, PreservesLengthAndNewlines) {
  const std::string src =
      "int a = 1; // rand() in a comment\n"
      "/* mt19937 in a block\n   comment */ int b = 2;\n"
      "const char* s = \"time(nullptr)\";\n";
  const std::string out = ahbp::lint::strip_code(src);
  EXPECT_EQ(out.size(), src.size());
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("mt19937"), std::string::npos);
  EXPECT_EQ(out.find("time"), std::string::npos);
  EXPECT_NE(out.find("int a = 1;"), std::string::npos);
  EXPECT_NE(out.find("int b = 2;"), std::string::npos);
}

TEST(StripCode, BlanksRawStringsAndCharLiterals) {
  const std::string src =
      "auto r = R\"(srand(42))\";\n"
      "char c = 'r'; char q = '\\'';\n"
      "int live = 3;\n";
  const std::string out = ahbp::lint::strip_code(src);
  EXPECT_EQ(out.size(), src.size());
  EXPECT_EQ(out.find("srand"), std::string::npos);
  EXPECT_NE(out.find("int live = 3;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// determinism/rng

TEST(LintRules, RngInLibraryCodeFlagged) {
  const auto findings =
      lint_one("src/tlm/bus.cpp", "int jitter() { return rand(); }\n");
  ASSERT_EQ(count_rule(findings, "determinism/rng"), 1u);
  EXPECT_EQ(findings[0].file, "src/tlm/bus.cpp");
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(LintRules, RawEngineFlagged) {
  const auto findings =
      lint_one("src/ddr/bank.cpp", "std::mt19937 eng_{123};\n");
  EXPECT_EQ(count_rule(findings, "determinism/rng"), 1u);
}

TEST(LintRules, TrafficRngHomeIsExempt) {
  // The one sanctioned randomness source: the seeded per-master stream.
  const auto findings = lint_one("src/traffic/generator.cpp",
                                 "std::mt19937_64 eng_{seed};\n");
  EXPECT_EQ(count_rule(findings, "determinism/rng"), 0u);
}

TEST(LintRules, NonLibraryFilesAreOutOfScope) {
  // Drivers (tools/tests/benches) may do what they like.
  const auto findings =
      lint_one("tools/ahbp_sim.cpp", "std::cout << rand();\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRules, TokenMatchingRespectsWordBoundaries) {
  const auto findings = lint_one(
      "src/tlm/bus.cpp",
      "int strand = 0; int operand = my_rand(); int brand = 1;\n");
  EXPECT_EQ(count_rule(findings, "determinism/rng"), 0u);
}

TEST(LintRules, CommentsAndStringsDoNotFire) {
  const auto findings = lint_one(
      "src/tlm/bus.cpp",
      "// rand() would break determinism\n"
      "const char* why = \"never call srand(1) here\";\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// determinism/wall-clock

TEST(LintRules, SystemClockFlaggedSteadyClockAllowed) {
  const auto bad = lint_one(
      "src/core/sim.cpp",
      "auto t = std::chrono::system_clock::now();\n");
  EXPECT_EQ(count_rule(bad, "determinism/wall-clock"), 1u);

  // steady_clock is the sanctioned self-profiling clock.
  const auto good = lint_one(
      "src/obs/profiler_helper_in_core.cpp",
      "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(count_rule(good, "determinism/wall-clock"), 0u);
}

TEST(LintRules, TimeNullFlaggedOtherTimeCallsAllowed) {
  const auto bad =
      lint_one("src/core/sim.cpp", "std::srand(time(nullptr));\n");
  EXPECT_EQ(count_rule(bad, "determinism/wall-clock"), 1u);

  // A different arity/identifier must not trip the call matcher.
  const auto good = lint_one("src/core/sim.cpp",
                             "timer(0); uptime(nullptr); time(&out);\n");
  EXPECT_EQ(count_rule(good, "determinism/wall-clock"), 0u);
}

// ---------------------------------------------------------------------------
// library/no-stdout

TEST(LintRules, StdoutInLibraryFlagged) {
  const auto findings =
      lint_one("src/sweep/runner_helper.cpp", "std::cout << \"hi\";\n");
  EXPECT_EQ(count_rule(findings, "library/no-stdout"), 1u);
}

TEST(LintRules, SnprintfIsNotPrintf) {
  const auto findings = lint_one(
      "src/obs/format_helper_in_core.cpp",
      "std::snprintf(buf, sizeof buf, \"%d\", v);\n");
  EXPECT_EQ(count_rule(findings, "library/no-stdout"), 0u);
}

// ---------------------------------------------------------------------------
// library/no-cassert

TEST(LintRules, StdFunctionInSimFlagged) {
  const auto f = lint_one(
      "src/sim/vcd.hpp",
      "#include <functional>\nstd::function<void(int)> cb_;\n");
  EXPECT_EQ(count_rule(f, "sim/no-std-function"), 1u);
}

TEST(LintRules, StdFunctionAllowMarkerAndScopeRespected) {
  // Same-line allow marker opts a setup-time callable out.
  const auto allowed = lint_one(
      "src/sim/vcd.hpp",
      "std::function<void()> setup_;  // lint:allow-std-function\n");
  EXPECT_EQ(count_rule(allowed, "sim/no-std-function"), 0u);
  // Outside src/sim/ the rule does not apply (tlm test hooks keep
  // std::function for copyability).
  const auto tlm = lint_one("src/tlm/master.hpp",
                            "std::function<void()> on_complete;\n");
  EXPECT_EQ(count_rule(tlm, "sim/no-std-function"), 0u);
  // A comment mention alone never fires.
  const auto comment = lint_one("src/sim/event_kernel.hpp",
                                "// std::function is banned here\n");
  EXPECT_EQ(count_rule(comment, "sim/no-std-function"), 0u);
}

TEST(LintRules, CassertFlaggedInBothForms) {
  const auto findings = lint_one("src/ahb/arbiter_helper.cpp",
                                 "#include <cassert>\n"
                                 "void f(int x) { assert(x > 0); }\n");
  EXPECT_EQ(count_rule(findings, "library/no-cassert"), 2u);
}

TEST(LintRules, ModelAssertAndStaticAssertAllowed) {
  const auto findings = lint_one(
      "src/ahb/arbiter_helper.cpp",
      "static_assert(sizeof(int) == 4, \"w\");\n"
      "void f(int x) { AHBP_ASSERT(x > 0); }\n");
  EXPECT_EQ(count_rule(findings, "library/no-cassert"), 0u);
}

TEST(LintRules, AssertHppItselfIsExempt) {
  const auto findings = lint_one("src/assertions/assert.hpp",
                                 "void g() { assert(true); }\n");
  EXPECT_EQ(count_rule(findings, "library/no-cassert"), 0u);
}

// ---------------------------------------------------------------------------
// snapshot/unordered-iteration (cross-file: member in header, save_state in
// source)

TEST(LintRules, EmittingInUnorderedIterationOrderFlagged) {
  const std::vector<SourceFile> files = {
      {"src/mem/sparse.hpp",
       "std::unordered_map<std::uint64_t, Page> pages_;\n"},
      {"src/mem/sparse.cpp",
       "void Sparse::save_state(state::StateWriter& w) const {\n"
       "  for (const auto& kv : pages_) {\n"
       "    w.put_u64(kv.first);\n"
       "  }\n"
       "}\n"},
  };
  const auto findings = ahbp::lint::lint_sources(files, "");
  EXPECT_EQ(count_rule(findings, "snapshot/unordered-iteration"), 1u);
}

TEST(LintRules, ExplicitPairLoopVariableStillFlagged) {
  // A `std::pair<...>` loop header contains `::` — the range-for detector
  // must still find the standalone ':' separator.
  const std::vector<SourceFile> files = {
      {"src/mem/sparse.hpp",
       "std::unordered_map<std::uint64_t, Page> pages_;\n"},
      {"src/mem/sparse.cpp",
       "void Sparse::save_state(state::StateWriter& w) const {\n"
       "  for (const std::pair<const std::uint64_t, Page>& kv : pages_) {\n"
       "    w.put_u64(kv.first);\n"
       "  }\n"
       "}\n"},
  };
  const auto findings = ahbp::lint::lint_sources(files, "");
  EXPECT_EQ(count_rule(findings, "snapshot/unordered-iteration"), 1u);
}

TEST(LintRules, CollectSortEmitIsAllowed) {
  const std::vector<SourceFile> files = {
      {"src/mem/sparse.hpp",
       "std::unordered_map<std::uint64_t, Page> pages_;\n"},
      {"src/mem/sparse.cpp",
       "void Sparse::save_state(state::StateWriter& w) const {\n"
       "  std::vector<std::uint64_t> keys;\n"
       "  for (const auto& kv : pages_) {\n"
       "    keys.push_back(kv.first);\n"
       "  }\n"
       "  std::sort(keys.begin(), keys.end());\n"
       "  for (const std::uint64_t k : keys) {\n"
       "    w.put_u64(k);\n"
       "  }\n"
       "}\n"},
  };
  const auto findings = ahbp::lint::lint_sources(files, "");
  EXPECT_EQ(count_rule(findings, "snapshot/unordered-iteration"), 0u);
}

TEST(LintRules, UnorderedIterationOutsideSerializationAllowed) {
  // Hash-order iteration is only a problem when it reaches the byte stream.
  const std::vector<SourceFile> files = {
      {"src/mem/sparse.hpp",
       "std::unordered_map<std::uint64_t, Page> pages_;\n"},
      {"src/mem/sparse.cpp",
       "std::size_t Sparse::footprint() const {\n"
       "  std::size_t n = 0;\n"
       "  for (const auto& kv : pages_) { n += kv.second.size(); }\n"
       "  return n;\n"
       "}\n"},
  };
  const auto findings = ahbp::lint::lint_sources(files, "");
  EXPECT_EQ(count_rule(findings, "snapshot/unordered-iteration"), 0u);
}

// ---------------------------------------------------------------------------
// obs/null-gate

TEST(LintRules, UngatedObsDereferenceFlagged) {
  const std::vector<SourceFile> files = {
      {"src/tlm/bus_tap.hpp", "obs::Timeline* timeline_ = nullptr;\n"},
      {"src/tlm/bus_tap.cpp",
       "void Bus::grant(int m) { timeline_->mark_grant(m); }\n"},
  };
  const auto findings = ahbp::lint::lint_sources(files, "");
  ASSERT_EQ(count_rule(findings, "obs/null-gate"), 1u);
}

TEST(LintRules, GatedObsDereferenceAllowed) {
  const std::vector<SourceFile> files = {
      {"src/tlm/bus_tap.hpp", "obs::SelfProfiler* prof_ = nullptr;\n"},
      {"src/tlm/bus_tap.cpp",
       "void Bus::grant(int m) {\n"
       "  if (prof_ != nullptr) { prof_->enter(m); }\n"
       "}\n"},
  };
  const auto findings = ahbp::lint::lint_sources(files, "");
  EXPECT_EQ(count_rule(findings, "obs/null-gate"), 0u);
}

TEST(LintRules, ObsImplementationFilesAreExempt) {
  // The obs layer dereferences its own pointers by construction.
  const std::vector<SourceFile> files = {
      {"src/obs/timeline.cpp",
       "obs::Timeline* parent_ = nullptr;\n"
       "void Timeline::flush() { parent_->absorb(*this); }\n"},
  };
  const auto findings = ahbp::lint::lint_sources(files, "");
  EXPECT_EQ(count_rule(findings, "obs/null-gate"), 0u);
}

// ---------------------------------------------------------------------------
// snapshot tags and the manifest contract

TEST(LintManifest, DuplicateTagsReported) {
  const std::vector<SourceFile> files = {
      {"src/ahb/arbiter.cpp", "w.begin(\"arb\");\n"},
      {"src/tlm/bus.cpp", "w.begin(\"arb\");\n"},
  };
  const auto findings = ahbp::lint::lint_sources(files, "");
  EXPECT_EQ(count_rule(findings, "snapshot/tag-unique"), 1u);
  // No manifest text supplied while tags exist: that is itself a finding.
  EXPECT_EQ(count_rule(findings, "snapshot/manifest"), 1u);
}

TEST(LintManifest, MatchingManifestIsClean) {
  SnapshotManifest m;
  m.version = 7;
  m.tags = {"arb", "bus"};
  const std::vector<SourceFile> files = {
      {"src/tlm/bus.cpp", "w.begin(\"bus\");\nw.begin(\"arb\");\n"},
  };
  const auto findings =
      ahbp::lint::lint_sources(files, ahbp::lint::render_manifest(m));
  EXPECT_TRUE(findings.empty());
}

TEST(LintManifest, TagSetDriftReported) {
  SnapshotManifest m;
  m.version = 7;
  m.tags = {"arb"};
  const std::vector<SourceFile> files = {
      {"src/tlm/bus.cpp", "w.begin(\"bus\");\nw.begin(\"arb\");\n"},
  };
  const auto findings =
      ahbp::lint::lint_sources(files, ahbp::lint::render_manifest(m));
  ASSERT_EQ(count_rule(findings, "snapshot/manifest"), 1u);
  // The message names the drifted tag and demands a version bump.
  const Finding& f = *std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& x) { return x.rule == "snapshot/manifest"; });
  EXPECT_NE(f.message.find("+bus"), std::string::npos);
  EXPECT_NE(f.message.find("kFormatVersion"), std::string::npos);
}

TEST(LintManifest, FormatVersionMismatchReported) {
  SnapshotManifest m;
  m.version = 7;
  m.tags = {"arb"};
  const std::vector<SourceFile> files = {
      {"src/state/snapshot.hpp",
       "inline constexpr std::uint32_t kFormatVersion = 9;\n"},
      {"src/tlm/bus.cpp", "w.begin(\"arb\");\n"},
  };
  const auto findings =
      ahbp::lint::lint_sources(files, ahbp::lint::render_manifest(m));
  ASSERT_EQ(count_rule(findings, "snapshot/manifest"), 1u);
  EXPECT_NE(findings.back().message.find("9"), std::string::npos);
}

TEST(LintManifest, ParseRenderRoundTrip) {
  SnapshotManifest m;
  m.version = 4;
  m.tags = {"bus", "arb", "arb"};  // render sorts and dedups
  const SnapshotManifest back =
      ahbp::lint::parse_manifest(ahbp::lint::render_manifest(m));
  EXPECT_EQ(back.version, 4u);
  ASSERT_EQ(back.tags.size(), 2u);
  EXPECT_EQ(back.tags[0], "arb");
  EXPECT_EQ(back.tags[1], "bus");
}

TEST(LintManifest, MalformedManifestThrows) {
  EXPECT_THROW(ahbp::lint::parse_manifest("no version line\n"),
               std::runtime_error);
}

TEST(LintManifest, FindFormatVersionReadsSnapshotHeader) {
  const std::vector<SourceFile> files = {
      {"src/state/snapshot.hpp",
       "inline constexpr std::uint32_t kFormatVersion = 12;\n"},
  };
  EXPECT_EQ(ahbp::lint::find_format_version(files), 12u);
  EXPECT_EQ(ahbp::lint::find_format_version({}), 0u);
}

// ---------------------------------------------------------------------------
// output contract

TEST(LintOutput, FindingsSortedByFileThenLine) {
  const std::vector<SourceFile> files = {
      {"src/z/late.cpp", "int a = rand();\n"},
      {"src/a/early.cpp", "std::cout << 1;\nint b = rand();\n"},
  };
  const auto findings = ahbp::lint::lint_sources(files, "");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].file, "src/a/early.cpp");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[1].file, "src/a/early.cpp");
  EXPECT_EQ(findings[1].line, 2u);
  EXPECT_EQ(findings[2].file, "src/z/late.cpp");
}

}  // namespace
