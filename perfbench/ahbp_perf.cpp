// ahbp_perf — the measuring program behind perfbench/run.py.
//
// Runs one benchmark workload as several identical, independent passes
// (fresh parse, construct, simulate and report every time) and prints the
// raw facts of every pass as one JSON object on stdout.  run.py turns them
// into metrics and decides correctness; this program only measures.
//
//   ahbp_perf --workload tlm-table1|rtl-accuracy|sweep-warmfork
//             --seed N --seconds S [--trace 0|1]
//
// Inputs are scenario / sweep-spec text generated here from the seed before
// any clock starts; every timed pass begins from that text.  Host times are
// integer nanoseconds of std::chrono::steady_clock.
//
// With --trace 1 the run additionally makes one pass with spans around each
// public library call (kept in memory, written at the end with self and
// inclusive time), one with the model self-profiler attached and one with
// the checkers off, drives the layers the workload lacks at small sizes,
// and runs the state save/restore and fixed-input layer probes.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ahb/config.hpp"
#include "ahb/qos.hpp"
#include "core/checkpoint.hpp"
#include "core/compare.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "ddr/bank.hpp"
#include "ddr/scheduler.hpp"
#include "obs/json.hpp"
#include "obs/selfprof.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "state/snapshot.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "tlm/arbiter.hpp"
#include "traffic/generator.hpp"

namespace {

using namespace ahbp;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------ workload sizes --
// Each pass of a workload is sized to take one to three seconds on one host
// core: far above timer and scheduler noise, yet short enough that a run
// holds several estimator windows of passes.  Changing any of these changes
// the benchmark.

constexpr unsigned kTableItems = 8'000;      ///< tlm-table1 txns/master
constexpr unsigned kAccuracyItems = 2'000;   ///< rtl-accuracy txns/master
constexpr sim::Cycle kMaxCycles = 400'000'000;
constexpr unsigned kSweepJobs = 2;
/// At least one estimator window (metrics.WINDOW in perfbench/metrics.py).
constexpr unsigned kMinPasses = 6;
/// A traced run makes three passes a round and its per-layer figures are
/// not gated, so fewer rounds keep an RTL workload's run well inside its
/// time limit.
constexpr unsigned kMinTracedRounds = 2;
/// Setup-only repetitions after every plain pass: spread over the run like
/// the passes, so one short host slow spell cannot move their median.
constexpr unsigned kSetupRepsPerPass = 3;
/// Every table run advances in Platform::run calls of this many cycles, each
/// timed: a few milliseconds of host time, a multiple of 256 so the RTL
/// stops at exactly the cycle an uninterrupted run would.
constexpr sim::Cycle kRunChunk = 8192;

/// A warm-forked sweep of the wbuf-stress preset.
struct SweepSize {
  unsigned base_items;  ///< warm base txns/master
  sim::Cycle warmup;    ///< fork point (bus cycles)
  const char* axes;
};

constexpr SweepSize kSweep{3'000, 37'500,
                           "bus.write_buffer_depth = 2, 4, 6, 8\n"
                           "bus.filter_mask = 0x7f, 0x77, 0x7b, 0x3f\n"
                           "master*.items = 3000, 3250, 3500, 3750\n"};

// The traced run also drives, at these small sizes, the layers its workload
// does not exercise (RTL for tlm-table1, a sweep and state for the table
// workloads), so every per-layer metric is measured on every workload.
constexpr unsigned kCompanionItems = 300;  ///< companion table txns/master
constexpr SweepSize kCompanionSweep{2'000, 20'000,
                                    "bus.write_buffer_depth = 2, 8\n"
                                    "bus.filter_mask = 0x7f, 0x77\n"
                                    "master*.items = 2000, 2500\n"};

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::uint64_t wall_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

// ---------------------------------------------------------------- spans --

/// In-memory span recorder for one thread.  A null Tracer* disables every
/// Scope, so plain and traced passes run the same code.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int32_t parent = -1;
    Clock::time_point t0{};
    Clock::time_point t1{};
  };

  Tracer() { spans_.reserve(1U << 14); }

  std::int32_t open(const char* name) {
    spans_.push_back(Span{name, cur_, Clock::now(), {}});
    cur_ = static_cast<std::int32_t>(spans_.size() - 1);
    return cur_;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].t1 = Clock::now();
    cur_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int32_t cur_ = -1;
};

class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~Scope() {
    if (t_ != nullptr) {
      t_->close(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t self_ns = 0;
  std::vector<std::uint64_t> each_ns;  ///< per-span inclusive durations
};

/// Fold spans into per-name totals.  Self time is a span's duration minus
/// the durations of its direct children.
void fold_spans(const Tracer& t, std::map<std::string, SpanTotals>& out) {
  const auto& spans = t.spans();
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += ns_between(s.t0, s.t1);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t d = ns_between(spans[i].t0, spans[i].t1);
    SpanTotals& tot = out[spans[i].name];
    ++tot.count;
    tot.incl_ns += d;
    tot.self_ns += d > child_ns[i] ? d - child_ns[i] : 0;
    tot.each_ns.push_back(d);
  }
}

// ------------------------------------------------------------- facts ---

/// Simulated counters summed over every model run of a pass.  Deterministic
/// for a given seed.
struct Counters {
  std::uint64_t ran_cycles = 0;
  std::uint64_t bus_cycles = 0;
  std::uint64_t bus_busy = 0;
  std::uint64_t handovers = 0;
  std::uint64_t stall[obs::kStallClassCount] = {};
  std::uint64_t wbuf_full_stalls = 0;
  std::uint64_t wbuf_occ_sum = 0;
  std::uint64_t wbuf_occ_count = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_lookups = 0;
  std::uint64_t ddr_commands = 0;

  void add(const core::SimResult& r) {
    const stats::RunProfile& p = r.profile;
    ran_cycles += r.ran_cycles;
    bus_cycles += p.bus.cycles;
    bus_busy += p.bus.busy_cycles;
    handovers += p.bus.handovers;
    for (const stats::MasterProfile& m : p.masters) {
      for (unsigned c = 0; c < obs::kStallClassCount; ++c) {
        stall[c] += m.stalls.cycles[c];
      }
    }
    wbuf_full_stalls += p.write_buffer.full_stalls;
    wbuf_occ_sum += p.write_buffer.occupancy.sum();
    wbuf_occ_count += p.write_buffer.occupancy.count();
    const auto& h = p.ddr.hits;
    row_hits += h.row_hits;
    row_lookups += h.row_hits + h.row_misses + h.row_conflicts;
    const auto& c = p.ddr.commands;
    ddr_commands +=
        c.activates + c.reads + c.writes + c.precharges + c.refreshes;
  }
};

struct RunFacts {
  std::string id;  ///< "<mix or point>/<model>"
  core::SimResult result;
  std::string error;
  bool demoted = false;
  sim::Cycle start_cycle = 0;  ///< cycle the run resumed from (forks)
  std::vector<std::uint64_t> chunk_ns;  ///< host time of each run() chunk
};

struct PassFacts {
  std::uint64_t wall_ns = 0;
  std::uint64_t report_ns = 0;
  std::uint64_t sim_ns[2] = {0, 0};      ///< by ModelKind
  std::uint64_t cycles[2] = {0, 0};      ///< simulated in this pass
  std::uint64_t activity[2] = {0, 0};    ///< evaluations / deltas
  std::uint64_t txns = 0;
  std::uint64_t report_bytes = 0;
  std::uint64_t csv_hash = 0;
  std::vector<RunFacts> runs;
  Counters counters;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void record_run(PassFacts& pass, RunFacts run) {
  const core::SimResult& r = run.result;
  const unsigned k = r.model == "rtl" ? 1U : 0U;
  pass.sim_ns[k] += wall_ns(r.wall_seconds);
  pass.cycles[k] += r.ran_cycles - run.start_cycle;
  pass.activity[k] += r.kernel_activity;
  pass.counters.add(r);
  pass.runs.push_back(std::move(run));
}

/// Instrumentation of one pass: all null for a plain pass.
struct Instr {
  Tracer* tracer = nullptr;
  obs::SelfProfiler* prof = nullptr;
};

// ------------------------------------------------------- table passes --

struct Mix {
  std::string name;
  std::string text;  ///< canonical scenario text
};

std::vector<Mix> table_mixes(unsigned items, std::uint64_t seed,
                             bool checkers) {
  std::vector<Mix> out;
  for (core::Workload& w : core::table1_workloads(items, seed)) {
    w.config.max_cycles = kMaxCycles;
    w.config.enable_checkers = checkers;
    out.push_back(Mix{w.name, scenario::serialize(w.config)});
  }
  return out;
}

using Models = std::vector<core::ModelKind>;

/// One pass over the Table-1 mixes: text -> parse -> Platform per model ->
/// simulate in timed kRunChunk steps -> stats JSON.  Traced passes also time
/// the stimulus expansion on its own (the constructor repeats it).
PassFacts table_pass(const std::vector<Mix>& mixes, const Models& models,
                     const Instr& in) {
  PassFacts pass;
  const auto p0 = Clock::now();
  Scope root(in.tracer, "pass");
  for (const Mix& mix : mixes) {
    Scope per_mix(in.tracer, "mix");
    core::PlatformConfig cfg;
    {
      Scope s(in.tracer, "scenario.parse");
      cfg = scenario::parse(mix.text);
    }
    if (in.tracer != nullptr) {
      Scope s(in.tracer, "core.expand_stimulus");
      for (const traffic::Script& sc : core::expand_stimulus(cfg)) {
        pass.txns += sc.size();
      }
    }
    for (const core::ModelKind kind : models) {
      std::unique_ptr<core::Platform> p;
      {
        Scope s(in.tracer, "core.construct");
        p = std::make_unique<core::Platform>(cfg, kind);
      }
      if (in.prof != nullptr) {
        p->enable_self_profile(*in.prof);
      }
      RunFacts run;
      while (!p->finished() && p->now() < cfg.max_cycles) {
        Scope s(in.tracer, "platform.run");
        const auto c0 = Clock::now();
        if (p->run(kRunChunk) == 0) {
          break;
        }
        run.chunk_ns.push_back(ns_between(c0, Clock::now()));
      }
      run.id = mix.name + "/" + std::string(core::to_string(kind));
      run.result = p->result();
      const auto t0 = Clock::now();
      {
        Scope s(in.tracer, "core.write_stats_json");
        std::ostringstream os;
        core::write_stats_json(os, run.result);
        pass.report_bytes += os.str().size();
      }
      pass.report_ns += ns_between(t0, Clock::now());
      record_run(pass, std::move(run));
    }
  }
  pass.wall_ns = ns_between(p0, Clock::now());
  return pass;
}

/// Setup alone, as in table_pass: parse every mix and construct (then drop)
/// its platforms.  Returns the host time of the parses and constructors.
std::uint64_t table_setup_ns(const std::vector<Mix>& mixes,
                             const Models& models) {
  std::uint64_t ns = 0;
  for (const Mix& mix : mixes) {
    auto t0 = Clock::now();
    const core::PlatformConfig cfg = scenario::parse(mix.text);
    ns += ns_between(t0, Clock::now());
    for (const core::ModelKind kind : models) {
      t0 = Clock::now();
      const core::Platform p(cfg, kind);
      ns += ns_between(t0, Clock::now());
    }
  }
  return ns;
}

// ------------------------------------------------------- sweep passes --

/// The write-dominated wbuf-stress preset with every master seeded from
/// `seed`, swept over its fork-exact tunable axes.
std::string sweep_text(const SweepSize& size, std::uint64_t seed,
                       bool checkers) {
  return "base = wbuf-stress\n[platform]\nmax_cycles = " +
         std::to_string(kMaxCycles) +
         "\ncheckers = " + (checkers ? "on" : "off") +
         "\n[master *]\nitems = " + std::to_string(size.base_items) +
         "\nseed = " + std::to_string(seed) + "\n[sweep]\n" + size.axes;
}

void record_points(PassFacts& pass, sim::Cycle warmup,
                   const std::vector<sweep::PointOutcome>& outcomes) {
  for (const sweep::PointOutcome& o : outcomes) {
    RunFacts run;
    run.id = "point" + std::to_string(o.index) + "/tlm";
    run.result = o.tlm;
    run.error = o.error;
    run.demoted = o.demoted;
    run.start_cycle = o.demoted ? 0 : std::min(warmup, o.tlm.ran_cycles);
    record_run(pass, std::move(run));
  }
}

/// Sweep setup: spec text -> parse_spec + expand -> the warm-up snapshot
/// every point forks from.  Returns its host time.
std::uint64_t sweep_setup_ns(const std::string& text, sim::Cycle warmup) {
  const auto t0 = Clock::now();
  const sweep::SweepSpec spec = sweep::parse_spec(text);
  const std::vector<sweep::SweepPoint> points = sweep::expand(spec);
  std::vector<std::uint8_t> warm_tlm, warm_rtl;
  sweep::warm_snapshots(spec.base_config, sweep::Model::kTlm, warmup,
                        warm_tlm, warm_rtl);
  return ns_between(t0, Clock::now());
}

/// Plain sweep pass: spec text -> parse_spec + expand -> SweepRunner (warm
/// once, fork every point) -> per-point CSV.
PassFacts sweep_pass_plain(const std::string& text, sim::Cycle warmup) {
  PassFacts pass;
  const auto p0 = Clock::now();
  sweep::SweepSpec spec = sweep::parse_spec(text);
  const std::vector<sweep::SweepPoint> points = sweep::expand(spec);
  const sweep::SweepRunner runner(kSweepJobs);
  const auto outcomes =
      runner.run(points, sweep::Model::kTlm, spec.base_config, warmup);
  const auto p2 = Clock::now();
  std::ostringstream csv;
  sweep::write_point_csv(csv, outcomes, sweep::Model::kTlm);
  const auto p3 = Clock::now();
  pass.wall_ns = ns_between(p0, p3);
  pass.report_ns = ns_between(p2, p3);
  pass.csv_hash = fnv1a(csv.str());
  pass.report_bytes = csv.str().size();
  record_points(pass, warmup, outcomes);
  return pass;
}

/// Traced sweep pass: the runner's own steps driven from here so each
/// public call gets a span — warm_snapshots, then simulate_point on
/// kSweepJobs threads (one Tracer each), then the CSV.
PassFacts sweep_pass_traced(const std::string& text, sim::Cycle warmup,
                            std::vector<Tracer>& tracers) {
  PassFacts pass;
  Tracer& main = tracers[0];
  const auto p0 = Clock::now();
  Scope root(&main, "pass");
  std::optional<sweep::SweepSpec> spec;
  std::vector<sweep::SweepPoint> points;
  {
    Scope s(&main, "sweep.parse_spec");
    spec = sweep::parse_spec(text);
    points = sweep::expand(*spec);
  }
  std::vector<std::uint8_t> warm_tlm, warm_rtl;
  {
    Scope s(&main, "sweep.warm_snapshots");
    sweep::warm_snapshots(spec->base_config, sweep::Model::kTlm, warmup,
                          warm_tlm, warm_rtl);
  }
  {
    Scope s(&main, "core.expand_stimulus");
    for (const traffic::Script& sc :
         core::expand_stimulus(spec->base_config)) {
      pass.txns += sc.size();
    }
  }

  std::vector<sweep::PointOutcome> outcomes(points.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&](Tracer& t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) {
        return;
      }
      Scope s(&t, "sweep.simulate_point");
      outcomes[i] = sweep::simulate_point(points[i], sweep::Model::kTlm,
                                          warm_tlm, warm_rtl);
    }
  };
  {
    Scope s(&main, "sweep.points");
    std::vector<std::thread> pool;
    for (unsigned j = 1; j < kSweepJobs; ++j) {
      pool.emplace_back(worker, std::ref(tracers[j]));
    }
    worker(tracers[kSweepJobs]);
    for (std::thread& th : pool) {
      th.join();
    }
  }
  const auto r0 = Clock::now();
  std::ostringstream csv;
  {
    Scope s(&main, "sweep.write_point_csv");
    sweep::write_point_csv(csv, outcomes, sweep::Model::kTlm);
  }
  const auto p1 = Clock::now();
  pass.wall_ns = ns_between(p0, p1);
  pass.report_ns = ns_between(r0, p1);
  pass.csv_hash = fnv1a(csv.str());
  pass.report_bytes = csv.str().size();
  record_points(pass, warmup, outcomes);
  return pass;
}

/// Snapshot save/restore probe on the sweep's warm base: repeated saves,
/// then fresh platforms restored from the bytes.  Returns the snapshot size.
std::uint64_t state_probe(const std::string& text, sim::Cycle warmup,
                          Tracer& t) {
  const sweep::SweepSpec spec = sweep::parse_spec(text);
  core::Platform warm(spec.base_config, core::ModelKind::kTlm);
  warm.run(warmup);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 8; ++i) {
    Scope s(&t, "state.save");
    state::StateWriter w;
    warm.save_state(w);
    bytes = w.finish();
  }
  for (int i = 0; i < 8; ++i) {
    core::Platform fork(spec.base_config, core::ModelKind::kTlm);
    Scope s(&t, "state.restore");
    state::StateReader r(bytes.data(), bytes.size());
    fork.restore_state(r);
  }
  return bytes.size();
}

// --------------------------------------------------------- layer probes --

/// Deterministic generator for probe inputs (splitmix64).
struct ProbeRng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  unsigned below(unsigned n) { return static_cast<unsigned>(next() % n); }
};

/// Fastest of five repetitions of `calls` probed calls.
struct Probe {
  std::uint64_t calls = 0;
  std::uint64_t best_ns = 0;
};

template <typename F>
Probe fastest_of_five(std::uint64_t calls, F&& body) {
  Probe p{calls, UINT64_MAX};
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    body();
    p.best_ns = std::min(p.best_ns, ns_between(t0, Clock::now()));
  }
  return p;
}

/// ns per tlm::Arbiter::arbitrate round (request bookkeeping included) over
/// fixed seeded 4-master + write-buffer candidate sets.
Probe probe_arbitrate(std::uint64_t& sink) {
  constexpr unsigned kMasters = 4;
  constexpr std::uint64_t kRounds = 400'000;
  ahb::BusConfig cfg;
  ProbeRng rng{7};
  std::vector<tlm::ArbContext> ctxs(1024);
  for (tlm::ArbContext& c : ctxs) {
    c.cfg = &cfg;
    c.masters = kMasters;
    c.candidates.resize(kMasters + 1);
    for (tlm::ArbCandidate& a : c.candidates) {
      a.requesting = rng.below(3) != 0;
      a.is_write = rng.below(2) != 0;
      a.beats = 1U << rng.below(4);
      a.affinity = static_cast<ddr::BankAffinity>(rng.below(3));
      a.blocked_by_hazard = rng.below(16) == 0;
    }
    c.wbuf_urgent = rng.below(8) == 0;
  }
  return fastest_of_five(kRounds, [&] {
    ahb::QosRegisterFile qos(kMasters);
    qos.program(0, ahb::QosConfig{ahb::MasterClass::kRealTime, 40});
    for (ahb::MasterId m = 1; m < kMasters; ++m) {
      qos.program(m, ahb::QosConfig{ahb::MasterClass::kNonRealTime, 64});
    }
    tlm::Arbiter arb(cfg, qos);
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      tlm::ArbContext& c = ctxs[i % ctxs.size()];
      c.now = i;
      c.qos = &qos;
      for (ahb::MasterId m = 0; m < kMasters; ++m) {
        if (c.candidates[m].requesting && !qos.state(m).requesting) {
          arb.on_request(m, i);
        }
        c.candidates[m].requested_at = qos.state(m).request_since;
      }
      arb.tick(i);
      if (const auto g = arb.arbitrate(c)) {
        sink += g->master;
      }
    }
  });
}

/// ns per ddr::DdrcEngine::step while servicing a fixed seeded stream of
/// reads and posted writes.
Probe probe_ddrc_step(std::uint64_t& sink) {
  constexpr std::uint64_t kSteps = 400'000;
  const ddr::Geometry geom = core::default_platform(4).geom;
  const ddr::DdrTiming timing = ddr::ddr266();
  std::vector<ddr::MemRequest> reqs(1024);
  ProbeRng rng{11};
  for (ddr::MemRequest& q : reqs) {
    q.is_write = rng.below(3) == 0;
    q.beats = 1U << rng.below(4);
    q.beat_bytes = 4;
    q.burst = q.beats == 1 ? ahb::Burst::kSingle : ahb::Burst::kIncr;
    q.addr = (rng.next() % geom.capacity()) & ~std::uint64_t{63};
  }
  return fastest_of_five(kSteps, [&] {
    ddr::DdrcEngine eng(timing, geom);
    std::size_t next = 0;
    for (sim::Cycle now = 0; now < kSteps; ++now) {
      if (!eng.busy()) {
        eng.begin(reqs[next++ % reqs.size()], now);
      }
      sink += static_cast<std::uint64_t>(eng.step(now).kind);
      if (eng.read_beat_available(now)) {
        sink += eng.take_read_beat(now);
      } else if (eng.write_beat_ready(now)) {
        eng.put_write_beat(now, static_cast<ahb::Word>(now));
      }
      if (eng.done()) {
        eng.finish();
      }
    }
  });
}

/// ns per ddr::BankEngine::can_issue over fixed seeded commands against a
/// bank state warmed by a seeded legal command stream.
Probe probe_can_issue(std::uint64_t& sink) {
  constexpr std::uint64_t kCalls = 2'000'000;
  const ddr::Geometry geom = core::default_platform(4).geom;
  const ddr::DdrTiming timing = ddr::ddr266();
  ddr::BankEngine eng(timing, geom);
  ProbeRng rng{13};
  const auto random_cmd = [&] {
    ddr::Command c;
    c.kind = static_cast<ddr::CmdKind>(1 + rng.below(4));
    c.bank = rng.below(geom.banks);
    c.row = rng.below(geom.rows);
    c.col = rng.below(geom.cols) & ~3U;
    c.beats = 4;
    return c;
  };
  sim::Cycle now = 0;
  for (int i = 0; i < 4096; ++i, ++now) {
    const ddr::Command c = random_cmd();
    if (eng.can_issue(c, now)) {
      eng.issue(c, now);
    }
  }
  std::vector<ddr::Command> cmds(1024);
  for (ddr::Command& c : cmds) {
    c = random_cmd();
  }
  return fastest_of_five(kCalls, [&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      sink += eng.can_issue(cmds[i % cmds.size()], now + (i & 63)) ? 1 : 0;
    }
  });
}

/// A fixed CPU loop that does not depend on the library: host speed drift
/// between runs shows up here.  Fastest of five, in nanoseconds.
std::vector<std::uint64_t> calibrate(std::uint64_t& sink) {
  std::vector<std::uint64_t> out;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    ProbeRng rng{static_cast<std::uint64_t>(rep) + 1};
    std::uint64_t acc = 0;
    for (int i = 0; i < 8'000'000; ++i) {
      acc += rng.next() >> (acc & 7);
    }
    sink += acc;
    out.push_back(ns_between(t0, Clock::now()));
  }
  return out;
}

// ----------------------------------------------------------------- JSON --

void write_pass(obs::JsonWriter& j, const PassFacts& p) {
  j.begin_object();
  j.member("wall_ns", p.wall_ns);
  j.member("report_ns", p.report_ns);
  j.member("tlm_sim_ns", p.sim_ns[0]);
  j.member("rtl_sim_ns", p.sim_ns[1]);
  j.member("tlm_cycles", p.cycles[0]);
  j.member("rtl_cycles", p.cycles[1]);
  j.member("tlm_evals", p.activity[0]);
  j.member("rtl_deltas", p.activity[1]);
  j.member("report_bytes", p.report_bytes);
  j.member("csv_hash", p.csv_hash);
  j.key("runs").begin_array();
  for (const RunFacts& r : p.runs) {
    j.begin_object();
    j.member("id", r.id);
    j.member("cycles", r.result.cycles);
    j.member("ran_cycles", r.result.ran_cycles);
    j.member("completed", r.result.completed);
    j.member("finished", r.result.finished);
    j.member("protocol_errors",
             static_cast<std::uint64_t>(r.result.protocol_errors));
    j.member("sim_ns", wall_ns(r.result.wall_seconds));
    j.key("chunk_ns").begin_array();
    for (const std::uint64_t c : r.chunk_ns) {
      j.value(c);
    }
    j.end_array();
    j.member("error", r.error);
    j.member("demoted", r.demoted);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

void write_counters(obs::JsonWriter& j, const Counters& c) {
  j.begin_object();
  j.member("ran_cycles", c.ran_cycles);
  j.member("bus_cycles", c.bus_cycles);
  j.member("bus_busy", c.bus_busy);
  j.member("handovers", c.handovers);
  for (unsigned k = 0; k < obs::kStallClassCount; ++k) {
    j.member("stall_" +
                 std::string(obs::to_string(static_cast<obs::StallClass>(k))),
             c.stall[k]);
  }
  j.member("wbuf_full_stalls", c.wbuf_full_stalls);
  j.member("wbuf_occ_sum", c.wbuf_occ_sum);
  j.member("wbuf_occ_count", c.wbuf_occ_count);
  j.member("row_hits", c.row_hits);
  j.member("row_lookups", c.row_lookups);
  j.member("ddr_commands", c.ddr_commands);
  j.end_object();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 11;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::string(v) == "1";
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && (a.workload == "tlm-table1" ||
                             a.workload == "rtl-accuracy" ||
                             a.workload == "sweep-warmfork");
}

void write_spans(obs::JsonWriter& j,
                 const std::map<std::string, SpanTotals>& spans) {
  j.begin_array();
  for (const auto& [name, tot] : spans) {
    j.begin_object();
    j.member("name", name);
    j.member("count", tot.count);
    j.member("incl_ns", tot.incl_ns);
    j.member("self_ns", tot.self_ns);
    j.key("each_ns").begin_array();
    for (const std::uint64_t d : tot.each_ns) {
      j.value(d);
    }
    j.end_array();
    j.end_object();
  }
  j.end_array();
}

/// A pass with spans around each public call, one Tracer per thread.
struct TracedPass {
  PassFacts facts;
  std::vector<Tracer> tracers = std::vector<Tracer>(kSweepJobs + 1);
};

/// Everything the traced run records beyond the plain passes.
struct TraceFacts {
  std::vector<TracedPass> traced;  ///< alternating with the plain passes
  std::vector<PassFacts> off;      ///< checkers off, likewise
  Tracer prof_tracer;              ///< spans of the profiled pass
  std::vector<PassFacts> companions;
  std::vector<Tracer> companion_tracers = std::vector<Tracer>(kSweepJobs + 1);
  obs::SelfProfiler prof;            ///< the workload's own profiled pass
  obs::SelfProfiler companion_prof;  ///< the companion table pass
  std::uint64_t snapshot_bytes = 0;
  Probe arbitrate, ddrc_step, can_issue;
};

int run(const Args& a) {
  const bool sweep_wl = a.workload == "sweep-warmfork";
  const bool with_rtl = a.workload == "rtl-accuracy";
  const Models models = with_rtl
                            ? Models{core::ModelKind::kTlm, core::ModelKind::kRtl}
                            : Models{core::ModelKind::kTlm};
  const unsigned items =
      sweep_wl ? kSweep.base_items : (with_rtl ? kAccuracyItems : kTableItems);

  // Inputs: generated from the seed before any clock starts.
  std::vector<Mix> mixes, mixes_off;
  std::string spec, spec_off;
  if (sweep_wl) {
    spec = sweep_text(kSweep, a.seed, true);
    spec_off = sweep_text(kSweep, a.seed, false);
  } else {
    mixes = table_mixes(items, a.seed, true);
    mixes_off = table_mixes(items, a.seed, false);
  }
  const auto plain_pass = [&](bool checkers) {
    return sweep_wl ? sweep_pass_plain(checkers ? spec : spec_off,
                                       kSweep.warmup)
                    : table_pass(checkers ? mixes : mixes_off, models,
                                 Instr{});
  };
  const auto setup_ns = [&] {
    return sweep_wl ? sweep_setup_ns(spec, kSweep.warmup)
                    : table_setup_ns(mixes, models);
  };

  // Plain passes, each followed by setup alone, for the whole budget.  A
  // traced run alternates them with traced and checkers-off passes, so all
  // three meet the same host conditions and their differences price the
  // tracing and the checkers.  setup_s is the median of the setups.
  std::vector<PassFacts> passes;
  std::vector<std::uint64_t> setups;
  std::unique_ptr<TraceFacts> tr;
  if (a.trace) {
    tr = std::make_unique<TraceFacts>();
  }
  const auto start = Clock::now();
  do {
    passes.push_back(plain_pass(true));
    for (unsigned i = 0; i < kSetupRepsPerPass; ++i) {
      setups.push_back(setup_ns());
    }
    if (tr) {
      TracedPass& tp = tr->traced.emplace_back();
      tp.facts = sweep_wl ? sweep_pass_traced(spec, kSweep.warmup, tp.tracers)
                          : table_pass(mixes, models,
                                       Instr{&tp.tracers[0], nullptr});
      tr->off.push_back(plain_pass(false));
    }
  } while (passes.size() < (tr ? kMinTracedRounds : kMinPasses) ||
           static_cast<double>(ns_between(start, Clock::now())) / 1e9 <
               a.seconds);

  // The workload's own peak, before the oracle below runs the RTL.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // The accuracy oracle: the paper's Table-1 number through core's own
  // comparison at the rtl-accuracy size, same seed.
  const core::AccuracySuite suite =
      core::compare_suite(core::table1_workloads(kAccuracyItems, a.seed));

  std::uint64_t sink = 0;
  const std::vector<std::uint64_t> calib = calibrate(sink);

  if (tr) {
    if (!sweep_wl) {
      tr->companions.push_back(
          table_pass(mixes, models, Instr{&tr->prof_tracer, &tr->prof}));
    }
    Tracer& ct = tr->companion_tracers[0];
    if (!with_rtl) {
      tr->companions.push_back(table_pass(
          table_mixes(kCompanionItems, a.seed, true),
          sweep_wl ? Models{core::ModelKind::kTlm, core::ModelKind::kRtl}
                   : Models{core::ModelKind::kRtl},
          Instr{&ct, &tr->companion_prof}));
    }
    if (sweep_wl) {
      tr->snapshot_bytes = state_probe(spec, kSweep.warmup, ct);
    } else {
      const std::string cs = sweep_text(kCompanionSweep, a.seed, true);
      tr->companions.push_back(sweep_pass_traced(
          cs, kCompanionSweep.warmup, tr->companion_tracers));
      tr->snapshot_bytes = state_probe(cs, kCompanionSweep.warmup, ct);
    }
    tr->arbitrate = probe_arbitrate(sink);
    tr->ddrc_step = probe_ddrc_step(sink);
    tr->can_issue = probe_can_issue(sink);
  }

  std::ostringstream os;
  obs::JsonWriter j(os);
  j.begin_object();
  j.member("workload", a.workload);
  j.member("seed", a.seed);
  j.member("items", items);
  j.member("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
  j.key("calib_ns").begin_array();
  for (const std::uint64_t c : calib) {
    j.value(c);
  }
  j.end_array();
  j.key("setup_ns").begin_array();
  for (const std::uint64_t s : setups) {
    j.value(s);
  }
  j.end_array();
  j.key("passes").begin_array();
  for (const PassFacts& p : passes) {
    write_pass(j, p);
  }
  j.end_array();
  j.key("counters");
  write_counters(j, passes.front().counters);
  j.key("accuracy").begin_object();
  j.member("items", kAccuracyItems);
  // As text: the writer rounds doubles to six digits.
  char avg[32];
  std::snprintf(avg, sizeof(avg), "%.17g", suite.average_error);
  j.member("average_error", std::string_view(avg));
  j.key("rows").begin_array();
  for (const core::AccuracyRow& r : suite.rows) {
    j.begin_object();
    j.member("name", r.name);
    j.member("tlm_cycles", r.tlm_cycles);
    j.member("rtl_cycles", r.rtl_cycles);
    j.member("both_finished", r.both_finished);
    j.member("protocol_errors", static_cast<std::uint64_t>(r.protocol_errors));
    j.end_object();
  }
  j.end_array();
  j.end_object();
  if (tr) {
    j.key("trace").begin_object();
    j.key("traced_passes").begin_array();
    for (const TracedPass& tp : tr->traced) {
      write_pass(j, tp.facts);
    }
    j.end_array();
    j.key("checkers_off_passes").begin_array();
    for (const PassFacts& p : tr->off) {
      write_pass(j, p);
    }
    j.end_array();
    // The profiled pass and the companions: checked, not compared.
    j.key("companion_passes").begin_array();
    for (const PassFacts& p : tr->companions) {
      write_pass(j, p);
    }
    j.end_array();
    // Spans of the fastest traced pass; companion spans count only under
    // names the workload itself lacks.
    const TracedPass& best = *std::min_element(
        tr->traced.begin(), tr->traced.end(),
        [](const TracedPass& x, const TracedPass& y) {
          return x.facts.wall_ns < y.facts.wall_ns;
        });
    std::map<std::string, SpanTotals> spans, companion;
    for (const Tracer& t : best.tracers) {
      fold_spans(t, spans);
    }
    for (const Tracer& t : tr->companion_tracers) {
      fold_spans(t, companion);
    }
    spans.merge(companion);
    j.key("spans");
    write_spans(j, spans);
    // Likewise the companion's profile phases.
    std::map<std::string, const obs::SelfProfiler::Phase*> phases;
    for (const obs::SelfProfiler::Phase& ph : tr->prof.phases()) {
      phases.emplace(ph.name, &ph);
    }
    for (const obs::SelfProfiler::Phase& ph : tr->companion_prof.phases()) {
      phases.emplace(ph.name, &ph);
    }
    j.key("profile").begin_array();
    for (const auto& [name, ph] : phases) {
      j.begin_object();
      j.member("name", name);
      j.member("calls", ph->calls);
      j.member("ns", ph->ns);
      j.end_object();
    }
    j.end_array();
    // Constructor time of the platforms whose stimulus expansion the
    // profile reports: the profiled pass, or for the sweep the companion.
    std::map<std::string, SpanTotals> built;
    fold_spans(sweep_wl ? tr->companion_tracers[0] : tr->prof_tracer, built);
    j.member("profiled_construct_ns", built["core.construct"].incl_ns);
    j.member("snapshot_bytes", tr->snapshot_bytes);
    j.member("txns", best.facts.txns);
    j.key("probes").begin_object();
    for (const auto& [name, pr] : {std::pair{"arbitrate", tr->arbitrate},
                                   std::pair{"ddrc_step", tr->ddrc_step},
                                   std::pair{"can_issue", tr->can_issue}}) {
      j.key(name).begin_object();
      j.member("calls", pr.calls);
      j.member("best_ns", pr.best_ns);
      j.end_object();
    }
    j.end_object();
    j.end_object();
  }
  j.member("sink", sink);
  j.end_object();
  std::cout << os.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::cerr << "usage: ahbp_perf --workload tlm-table1|rtl-accuracy|"
                 "sweep-warmfork [--seed N] [--seconds S] [--trace 0|1]\n";
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "ahbp_perf: " << e.what() << "\n";
    return 1;
  }
}
