#include "scenario/registry.hpp"

#include <fstream>

#include "core/workloads.hpp"
#include "scenario/scenario.hpp"

namespace ahbp::scenario {

namespace {

unsigned or_default(unsigned items, unsigned def) {
  return items ? items : def;
}
std::uint64_t or_default(std::uint64_t seed, std::uint64_t def) {
  return seed ? seed : def;
}

core::PlatformConfig bursty_dma(unsigned items, std::uint64_t seed) {
  // Three competing 16-beat DMA trains and one CPU master: sustained
  // back-to-back bursts keep the data bus saturated and make the grant
  // handover / request-pipelining path the bottleneck.
  core::PlatformConfig cfg = core::default_platform(4, seed, items);
  for (unsigned m = 0; m < 3; ++m) {
    auto& s = cfg.masters[m];
    s.qos.cls = ahb::MasterClass::kNonRealTime;
    s.qos.objective = 128;
    s.traffic.kind = traffic::PatternKind::kDma;
    s.traffic.dma_burst_beats = 16;
  }
  cfg.masters[3].traffic.mean_gap = 2;
  return cfg;
}

core::PlatformConfig bank_conflict(unsigned items, std::uint64_t seed) {
  // Pathological bank conflicts: the bank-serial mapping gives each bank a
  // contiguous quarter of the address space, and every master's window is
  // squeezed into bank 0 — so all traffic fights over one row buffer and
  // the bank-interleaving filter has nothing to exploit.
  core::PlatformConfig cfg = core::default_platform(4, seed, items);
  cfg.geom.mapping = ddr::Mapping::kBankRowCol;
  const ahb::Addr bank_bytes = cfg.geom.capacity() / cfg.geom.banks;
  const ahb::Addr window = bank_bytes / 4;
  for (unsigned m = 0; m < 4; ++m) {
    auto& t = cfg.masters[m].traffic;
    t.base = window * m;  // all four windows inside bank 0
    t.span = window / 2;
    t.mean_gap = 2;
  }
  return cfg;
}

core::PlatformConfig wbuf_stress(unsigned items, std::uint64_t seed) {
  // Write-buffer saturation: write-dominated traffic from every master
  // against a shallow 2-entry buffer, so absorption, drain and
  // full-stall escalation are all exercised continuously.
  core::PlatformConfig cfg = core::default_platform(4, seed, items);
  cfg.bus.write_buffer_depth = 2;
  for (unsigned m = 0; m < 4; ++m) {
    auto& s = cfg.masters[m];
    s.traffic.kind = m % 2 == 0 ? traffic::PatternKind::kCpu
                                : traffic::PatternKind::kRandom;
    s.traffic.read_ratio = 0.05;
    s.traffic.mean_gap = 1;
  }
  return cfg;
}

core::PlatformConfig qos_starvation(unsigned items, std::uint64_t seed) {
  // QoS starvation pressure: a tight real-time stream against two
  // heavyweight DMA masters and a zero-weight best-effort master.  The RT
  // objective is barely feasible, so the urgency filter decides whether the
  // stream survives, and the best-effort master probes fairness floor.
  core::PlatformConfig cfg = core::default_platform(4, seed, items);
  auto& rt = cfg.masters[0];
  rt.qos.cls = ahb::MasterClass::kRealTime;
  rt.qos.objective = 24;
  rt.traffic.kind = traffic::PatternKind::kRtStream;
  rt.traffic.period = 32;
  for (unsigned m = 1; m < 3; ++m) {
    auto& s = cfg.masters[m];
    s.qos.objective = 255;
    s.traffic.kind = traffic::PatternKind::kDma;
    s.traffic.dma_burst_beats = 16;
  }
  auto& be = cfg.masters[3];
  be.qos.objective = 0;  // best effort
  be.traffic.kind = traffic::PatternKind::kRandom;
  be.traffic.mean_gap = 2;
  return cfg;
}

ScenarioRegistry make_builtin() {
  ScenarioRegistry r;

  // Table-1 rows: resolved lazily so changing `items`/`seed` regenerates
  // the whole suite consistently.
  const auto rows = core::table1_workloads(1, 1);  // names only
  for (std::size_t i = 0; i < rows.size(); ++i) {
    r.add({"table1/" + rows[i].name,
           "Table-1 row " + std::to_string(i + 1) + " (" + rows[i].name +
               "): 4-master mix from the paper's accuracy suite",
           [i](unsigned items, std::uint64_t seed) {
             return core::table1_workloads(or_default(items, 400u),
                                           or_default(seed, 1ull))[i]
                 .config;
           }});
  }

  r.add({"single-master",
         "one CPU master, the paper's 456 Kcycles/s speed data point",
         [](unsigned items, std::uint64_t seed) {
           return core::single_master_workload(or_default(items, 2000u),
                                               or_default(seed, 1ull))
               .config;
         }});

  r.add({"bursty-dma",
         "three 16-beat DMA trains + one CPU master: saturated data bus,"
         " grant-handover bound",
         [](unsigned items, std::uint64_t seed) {
           return bursty_dma(or_default(items, 400u), or_default(seed, 1ull));
         }});

  r.add({"bank-conflict",
         "bank-serial mapping with every master windowed into bank 0:"
         " worst-case row-buffer thrash",
         [](unsigned items, std::uint64_t seed) {
           return bank_conflict(or_default(items, 400u),
                                or_default(seed, 1ull));
         }});

  r.add({"wbuf-stress",
         "write-dominated traffic against a 2-entry write buffer: absorb /"
         " drain / full-stall paths saturated",
         [](unsigned items, std::uint64_t seed) {
           return wbuf_stress(or_default(items, 400u), or_default(seed, 1ull));
         }});

  r.add({"qos-starvation",
         "tight RT stream vs heavyweight DMA and a zero-weight best-effort"
         " master: urgency & budget filters under pressure",
         [](unsigned items, std::uint64_t seed) {
           return qos_starvation(or_default(items, 400u),
                                 or_default(seed, 1ull));
         }});

  return r;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry r = make_builtin();
  return r;
}

void ScenarioRegistry::add(ScenarioInfo info) {
  entries_.push_back(std::move(info));
}

const ScenarioInfo* ScenarioRegistry::find(std::string_view name) const {
  for (const ScenarioInfo& e : entries_) {
    if (e.name == name) {
      return &e;
    }
  }
  // Letter alias for numbered rows: "table1/cpu-a" -> "table1/cpu-1".
  if (name.size() >= 2 && name[name.size() - 2] == '-') {
    const char c = name.back();
    if (c >= 'a' && c <= 'd') {
      std::string numbered(name);
      numbered.back() = static_cast<char>('1' + (c - 'a'));
      for (const ScenarioInfo& e : entries_) {
        if (e.name == numbered) {
          return &e;
        }
      }
    }
  }
  return nullptr;
}

core::PlatformConfig ScenarioRegistry::build(std::string_view name,
                                             unsigned items,
                                             std::uint64_t seed) const {
  const ScenarioInfo* info = find(name);
  if (info == nullptr) {
    throw ScenarioError("unknown scenario '" + std::string(name) +
                        "' (see `ahbp_sim list`)");
  }
  return info->build(items, seed);
}

core::PlatformConfig load_scenario(const std::string& ref, unsigned items,
                                   std::uint64_t seed) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  if (reg.find(ref) != nullptr) {
    return reg.build(ref, items, seed);
  }
  std::ifstream probe(ref);
  if (!probe) {
    throw ScenarioError("'" + ref +
                        "' is neither a built-in scenario (see `ahbp_sim"
                        " list`) nor a readable scenario file");
  }
  core::PlatformConfig cfg = parse_file(ref);
  if (items != 0) {
    apply_key(cfg, "master*.items", std::to_string(items));
  }
  if (seed != 0) {
    apply_key(cfg, "master*.seed", std::to_string(seed));
  }
  return cfg;
}

}  // namespace ahbp::scenario
