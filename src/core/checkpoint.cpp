#include "core/checkpoint.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "assertions/assert.hpp"
#include "assertions/violation.hpp"
#include "obs/selfprof.hpp"
#include "obs/timeline.hpp"
#include "rtl/fabric.hpp"
#include "tlm/bus.hpp"
#include "tlm/master.hpp"

namespace ahbp::core {

std::string_view to_string(ModelKind m) noexcept {
  return m == ModelKind::kTlm ? "tlm" : "rtl";
}

bool model_kind_from_string(std::string_view name, ModelKind& out) {
  if (name == "tlm") {
    out = ModelKind::kTlm;
  } else if (name == "rtl") {
    out = ModelKind::kRtl;
  } else {
    return false;
  }
  return true;
}

// ------------------------------------------------------------------ Impl --

struct Platform::Impl {
  PlatformConfig cfg;
  ModelKind model;
  double wall = 0.0;  ///< this instance's accumulated simulation time

  // --- transaction-level assembly: the parts call each other directly ---
  sim::Cycle now = 0;             ///< TLM cycles completed so far
  std::uint64_t evaluations = 0;  ///< component evaluate() calls (masters + bus)
  std::unique_ptr<ahb::QosRegisterFile> qos;
  chk::ViolationLog log;
  std::unique_ptr<ddr::ChannelSet> dram;
  std::unique_ptr<tlm::AhbPlusBus> bus;
  std::vector<std::unique_ptr<tlm::TlmMaster>> masters;
  sim::Cycle last_completion = 0;
  CompletionHook on_complete;  ///< set_on_complete (the fabric owns the RTL's)
  obs::SelfProfiler* profiler = nullptr;  ///< enable_self_profile (TLM)
  /// Profiler phase per master, then the bus; resolved on the first
  /// profiled cycle.
  std::vector<unsigned> prof_ids;

  // --- signal-level assembly ---
  std::unique_ptr<rtl::RtlFabric> fabric;

  // --- capture taps (enable_capture; shared by both models) ---
  std::vector<std::unique_ptr<traffic::TraceRecorder>> recorders;

  // --- observability (enable_timeline / enable_self_profile / progress) ---
  std::uint64_t expand_ns = 0;  ///< stimulus-expansion time at construction
  std::ostream* progress = nullptr;
  double progress_interval = 1.0;

  bool tlm_done() const {
    for (const auto& m : masters) {
      if (!m->finished()) {
        return false;
      }
    }
    return bus->quiescent();
  }

  /// One TLM cycle: every master in id order acts on last cycle's bus
  /// state, then the bus advances one cycle.
  void step_tlm() {
    if (profiler != nullptr) {
      step_tlm_profiled();
      return;
    }
    for (const auto& m : masters) {
      m->evaluate(now);
    }
    bus->evaluate(now);
    evaluations += masters.size() + 1;
    ++now;
  }

  /// step_tlm with each part timed under `tlm.tlm-master<N>` / `tlm.ahb+bus`.
  void step_tlm_profiled() {
    if (prof_ids.empty()) {
      for (std::size_t m = 0; m < masters.size(); ++m) {
        prof_ids.push_back(profiler->phase(
            std::string("tlm.tlm-master").append(std::to_string(m))));
      }
      prof_ids.push_back(profiler->phase("tlm.ahb+bus"));
    }
    for (std::size_t m = 0; m < masters.size(); ++m) {
      obs::ScopedTimer t(profiler, prof_ids[m]);
      masters[m]->evaluate(now);
    }
    {
      obs::ScopedTimer t(profiler, prof_ids.back());
      bus->evaluate(now);
    }
    evaluations += masters.size() + 1;
    ++now;
  }

  /// TLM execution: step busy cycles, leap provably idle stretches.  Once
  /// the bus and every master publish a next-interesting-cycle bound in the
  /// future, every cycle up to it is a proven no-op, so the clock jumps
  /// there and the bus bulk-replays the per-cycle bookkeeping the gap owes
  /// (stats, checker views, QoS epochs).  The simulated state is exactly
  /// what cycle-by-cycle stepping would produce; the quota bounds each
  /// leap, so callers still stop on exact cycles.
  sim::Cycle run_tlm(sim::Cycle quota) {
    sim::Cycle ran = 0;
    while (ran < quota && !tlm_done()) {
      sim::Cycle bound = bus->idle_until(now);
      for (const auto& m : masters) {
        if (bound <= now) {
          break;
        }
        bound = std::min(bound, m->next_issue_at());
      }
      if (bound > now) {
        // Every component is a proven no-op over [now, bound): leap, but
        // never past the caller's quota.
        const sim::Cycle skip = std::min<sim::Cycle>(bound - now, quota - ran);
        bus->skip_idle(now, now + skip);
        now += skip;
        ran += skip;
      } else {
        step_tlm();
        ++ran;
      }
    }
    return ran;
  }
};

Platform::Platform(const PlatformConfig& cfg, ModelKind model)
    : impl_(std::make_unique<Impl>()) {
  AHBP_ASSERT_MSG(!cfg.masters.empty(), "platform needs at least one master");
  Impl& im = *impl_;
  im.cfg = cfg;
  im.model = model;
  // Pull trace-backed stimulus off disk exactly once, into this instance's
  // own config copy: expansion below and checkpoint embedding both read
  // the resolved text, so the platform is self-describing from here on.
  resolve_stimulus(im.cfg);

  const auto e0 = std::chrono::steady_clock::now();
  auto scripts = expand_stimulus(im.cfg);
  im.expand_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - e0)
          .count());

  if (model == ModelKind::kTlm) {
    const unsigned n = static_cast<unsigned>(cfg.masters.size());
    im.qos = std::make_unique<ahb::QosRegisterFile>(n);
    for (unsigned m = 0; m < n; ++m) {
      im.qos->program(static_cast<ahb::MasterId>(m), cfg.masters[m].qos);
    }
    im.dram = std::make_unique<ddr::ChannelSet>(ddr_channel_configs(cfg),
                                               cfg.interleave);
    im.bus = std::make_unique<tlm::AhbPlusBus>(
        cfg.bus, *im.qos, *im.dram, cfg.ddr_base, n,
        cfg.enable_checkers ? &im.log : nullptr);
    for (unsigned m = 0; m < n; ++m) {
      const auto id = static_cast<ahb::MasterId>(m);
      im.masters.push_back(
          std::make_unique<tlm::TlmMaster>(id, *im.bus, std::move(scripts[m])));
      im.masters[m]->on_complete = [&im, id](const ahb::Transaction& t) {
        im.last_completion = im.now;
        if (im.on_complete) {
          im.on_complete(id, t);
        }
      };
    }
  } else {
    im.fabric = std::make_unique<rtl::RtlFabric>(im.cfg, std::move(scripts));
  }
}

Platform::~Platform() = default;

ModelKind Platform::model() const noexcept { return impl_->model; }

const PlatformConfig& Platform::config() const noexcept { return impl_->cfg; }

sim::Cycle Platform::now() const {
  return impl_->model == ModelKind::kTlm ? impl_->now
                                         : impl_->fabric->cycle();
}

bool Platform::finished() const {
  return impl_->model == ModelKind::kTlm ? impl_->tlm_done()
                                         : impl_->fabric->finished();
}

sim::Cycle Platform::run(sim::Cycle n) {
  Impl& im = *impl_;
  const sim::Cycle done = now();
  const sim::Cycle budget =
      im.cfg.max_cycles > done ? im.cfg.max_cycles - done : 0;
  const sim::Cycle quota = n < budget ? n : budget;
  if (quota == 0) {
    return 0;
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Execute in chunks so a progress heartbeat can sample wall clock
  // between them.  Chunks end on absolute multiples of kChunk, itself a
  // multiple of 256: RtlFabric::run samples finished() at absolute
  // 256-cycle boundaries, so chunked execution stops at exactly the cycles
  // an uninterrupted run would, even when resumed mid-interval (the TLM
  // loop checks its predicate every cycle and bounds each leap by the
  // quota, so any chunk size is exact there).
  constexpr sim::Cycle kChunk = 25'600;
  sim::Cycle ran = 0;
  auto last_beat = t0;
  while (ran < quota) {
    const sim::Cycle want = std::min<sim::Cycle>(
        kChunk - (done + ran) % kChunk, quota - ran);
    const sim::Cycle got = im.model == ModelKind::kTlm
                               ? im.run_tlm(want)
                               : im.fabric->run(want);
    ran += got;
    if (got < want) {
      break;  // finished before the chunk ran out
    }
    if (im.progress == nullptr) {
      continue;
    }
    const auto tn = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(tn - last_beat).count() >=
        im.progress_interval) {
      const double secs = std::chrono::duration<double>(tn - t0).count();
      char line[160];
      std::snprintf(line, sizeof line,
                    "# %s: cycle %llu | %.1fs | %.0f kcycles/s\n",
                    std::string(to_string(im.model)).c_str(),
                    static_cast<unsigned long long>(done + ran), secs,
                    secs > 0.0 ? static_cast<double>(ran) / secs / 1000.0
                               : 0.0);
      (*im.progress) << line << std::flush;
      last_beat = tn;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  im.wall += std::chrono::duration<double>(t1 - t0).count();
  return ran;
}

void Platform::run_to_completion() {
  // run() already caps at max_cycles total and stops when finished.
  run(impl_->cfg.max_cycles);
}

SimResult Platform::result() const {
  const Impl& im = *impl_;
  SimResult r;
  if (im.model == ModelKind::kTlm) {
    r.model = "tlm";
    r.finished = im.tlm_done();
    r.cycles = im.last_completion;
    r.ran_cycles = im.now;
    for (const auto& m : im.masters) {
      r.completed += m->completed();
    }
    r.profile.masters = im.bus->master_profiles();
    r.profile.bus = im.bus->bus_profile();
    r.profile.bus.grants = im.bus->arbiter().grants();
    r.profile.write_buffer = im.bus->write_buffer().profile();
    r.profile.ddr.commands = im.dram->command_counters();
    r.profile.ddr.hits = im.dram->hit_stats();
    r.profile.total_cycles = im.last_completion;
    r.profile.completed_txns = r.completed;
    r.protocol_errors = im.log.errors();
    r.qos_warnings = im.log.warnings();
    r.first_violations = im.log.to_string();
    r.profile.violation_rules = im.log.rule_counts();
    r.kernel_activity = im.evaluations;
  } else {
    const rtl::RtlFabric& f = *im.fabric;
    r.model = "rtl";
    r.finished = f.finished();
    r.cycles = f.last_completion();
    r.ran_cycles = f.cycle();
    r.completed = f.completed_txns();
    r.profile = f.profile();
    r.protocol_errors = f.violations().errors();
    r.qos_warnings = f.violations().warnings();
    r.first_violations = f.violations().to_string();
    r.profile.violation_rules = f.violations().rule_counts();
    r.kernel_activity = f.kernel().stats().deltas;
  }
  r.wall_seconds = im.wall;
  return r;
}

void Platform::enable_vcd(std::ostream& os) {
  if (impl_->model != ModelKind::kRtl) {
    // Precondition violation, not a snapshot failure — keep StateError for
    // genuinely bad checkpoint streams.
    throw std::logic_error("VCD dumping needs the signal-level model");
  }
  impl_->fabric->enable_vcd(os);
}

const sim::KernelStats& Platform::rtl_kernel_stats() const {
  if (impl_->model != ModelKind::kRtl) {
    throw std::logic_error("kernel stats need the signal-level model");
  }
  return impl_->fabric->kernel().stats();
}

void Platform::set_on_complete(CompletionHook fn) {
  if (impl_->model == ModelKind::kTlm) {
    impl_->on_complete = std::move(fn);
  } else {
    impl_->fabric->set_on_complete(std::move(fn));
  }
}

void Platform::enable_timeline(obs::Timeline& tl) {
  Impl& im = *impl_;
  if (im.model == ModelKind::kTlm) {
    const unsigned pid = tl.add_process("tlm");
    im.bus->set_timeline(tl, pid);
    im.dram->set_timeline(&tl, pid);
  } else {
    const unsigned pid = tl.add_process("rtl");
    im.fabric->enable_timeline(tl, pid);
  }
}

void Platform::enable_self_profile(obs::SelfProfiler& sp) {
  Impl& im = *impl_;
  // Stimulus expansion already happened (in the constructor); report it
  // retroactively so the per-phase table covers the whole setup cost.
  sp.add(sp.phase("platform.expand-stimulus"), im.expand_ns);
  if (im.model == ModelKind::kTlm) {
    im.profiler = &sp;
    im.prof_ids.clear();
  } else {
    im.fabric->set_profiler(&sp);
  }
}

void Platform::set_progress(std::ostream* os, double interval_sec) {
  impl_->progress = os;
  impl_->progress_interval = interval_sec > 0.0 ? interval_sec : 1.0;
}

void Platform::enable_capture() {
  Impl& im = *impl_;
  if (!im.recorders.empty()) {
    return;  // already tapped
  }
  const unsigned n = static_cast<unsigned>(im.cfg.masters.size());
  im.recorders.reserve(n);
  for (unsigned m = 0; m < n; ++m) {
    im.recorders.push_back(std::make_unique<traffic::TraceRecorder>(
        static_cast<ahb::MasterId>(m)));
    if (im.model == ModelKind::kTlm) {
      im.masters[m]->set_trace_recorder(im.recorders[m].get());
    } else {
      im.fabric->set_trace_recorder(m, im.recorders[m].get());
    }
  }
}

const traffic::TraceRecorder& Platform::capture(ahb::MasterId m) const {
  const Impl& im = *impl_;
  if (im.recorders.empty()) {
    throw std::logic_error("Platform::capture without enable_capture()");
  }
  if (m >= im.recorders.size()) {
    throw std::logic_error("Platform::capture: no master " +
                           std::to_string(m));
  }
  return *im.recorders[m];
}

void Platform::save_state(state::StateWriter& w) const {
  const Impl& im = *impl_;
  w.begin("platform");
  w.put_u8(static_cast<std::uint8_t>(im.model));
  if (im.model == ModelKind::kTlm) {
    w.put_u64(im.last_completion);
    // The TLM clock, under the tag tools/snapshot_manifest.txt records for
    // it at this state::kFormatVersion.
    w.begin("cycle-kernel");
    w.put_u64(im.now);
    w.put_u64(im.evaluations);
    w.end();
    im.qos->save_state(w);
    im.log.save_state(w);
    im.dram->save_state(w);
    im.bus->save_state(w);
    w.put_u64(im.masters.size());
    for (const auto& m : im.masters) {
      m->save_state(w);
    }
  } else {
    im.fabric->save_state(w);
  }
  w.end();
}

void Platform::restore_state(state::StateReader& r) {
  Impl& im = *impl_;
  r.enter("platform");
  const auto snap_model = static_cast<ModelKind>(r.get_u8());
  if (snap_model != im.model) {
    throw state::StateError(
        "checkpoint was taken on the " + std::string(to_string(snap_model)) +
        " model but this platform is " + std::string(to_string(im.model)));
  }
  if (im.model == ModelKind::kTlm) {
    im.last_completion = r.get_u64();
    r.enter("cycle-kernel");
    im.now = r.get_u64();
    im.evaluations = r.get_u64();
    r.leave();
    im.qos->restore_state(r);
    im.log.restore_state(r);
    im.dram->restore_state(r);
    im.bus->restore_state(r);
    const std::uint64_t n = r.get_u64();
    if (n != im.masters.size()) {
      throw state::StateError(
          "checkpoint has " + std::to_string(n) + " masters, platform has " +
          std::to_string(im.masters.size()));
    }
    for (auto& m : im.masters) {
      m->restore_state(r);
    }
  } else {
    im.fabric->restore_state(r);
  }
  r.leave();
}

// ------------------------------------------------------ checkpoint files --

void write_checkpoint(state::StateWriter& w, const Platform& p,
                      std::string_view scenario_text) {
  w.begin("checkpoint");
  w.put_str(to_string(p.model()));
  w.put_u64(p.now());
  w.put_str(scenario_text);
  // Trace-backed masters: embed the resolved trace content.  The scenario
  // text only names the trace *path*; a restore must not depend on that
  // file still existing (the Platform resolved its config at construction,
  // so the text is guaranteed present here).
  const std::vector<MasterSpec>& masters = p.config().masters;
  std::uint64_t trace_masters = 0;
  for (const MasterSpec& m : masters) {
    trace_masters += m.traffic.is_trace() ? 1u : 0u;
  }
  w.put_u64(trace_masters);
  for (std::size_t i = 0; i < masters.size(); ++i) {
    if (masters[i].traffic.is_trace()) {
      w.put_u64(i);
      w.put_str(masters[i].traffic.trace_text);
    }
  }
  w.end();
  p.save_state(w);
}

void write_checkpoint_file(const std::string& path, const Platform& p,
                           std::string_view scenario_text) {
  state::StateWriter w;
  write_checkpoint(w, p, scenario_text);
  w.write_file(path);
}

CheckpointInfo read_checkpoint_header(state::StateReader& r) {
  CheckpointInfo info;
  r.enter("checkpoint");
  info.model = r.get_str();
  info.taken_at = r.get_u64();
  info.scenario_text = r.get_str();
  const std::uint64_t traces = r.get_u64();
  info.traces.reserve(traces);
  for (std::uint64_t i = 0; i < traces; ++i) {
    const std::uint64_t master = r.get_u64();
    info.traces.emplace_back(master, r.get_str());
  }
  r.leave();
  return info;
}

void apply_embedded_traces(PlatformConfig& cfg, const CheckpointInfo& info) {
  for (const auto& [master, text] : info.traces) {
    if (master >= cfg.masters.size()) {
      throw state::StateError("checkpoint embeds a trace for master " +
                              std::to_string(master) + " but the scenario"
                              " has only " +
                              std::to_string(cfg.masters.size()) +
                              " masters");
    }
    traffic::StimulusSpec& spec = cfg.masters[master].traffic;
    if (!spec.is_trace()) {
      throw state::StateError("checkpoint embeds a trace for master " +
                              std::to_string(master) + " but the scenario"
                              " declares it synthetic");
    }
    spec.trace_text = text;
    spec.trace_loaded = true;  // embedded content wins even when empty
  }
}

}  // namespace ahbp::core
