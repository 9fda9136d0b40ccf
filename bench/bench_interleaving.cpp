// Ablation C — bank interleaving via the BI next-transaction hint (§2,
// §3.4): "the arbiter gives the next transaction information to DDRC in
// advance, then DDRC can pre-charge the next accessed memory bank ... the
// next data can be served immediately right after the previous data is
// processed."  This bench toggles the BI hints on a DMA+CPU mix and also
// contrasts the interleaving-friendly address mapping against the
// bank-serial one.

#include <iostream>

#include "bench_args.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "stats/report.hpp"

int main(int argc, char** argv) {
  using namespace ahbp;
  const unsigned items = bench::count_arg(
      argc, argv, 1, 300, "bench_interleaving [items-per-master]");

  std::cout << "=== Ablation C: bank interleaving / BI hints (TLM, dma-1 mix, "
            << items << " txns/master) ===\n\n";

  struct Variant {
    const char* name;
    bool bi;
    ddr::Mapping mapping;
  };
  const Variant variants[] = {
      {"BI hints (AHB+)", true, ddr::Mapping::kRowBankCol},
      {"no BI hints", false, ddr::Mapping::kRowBankCol},
      {"bank-serial mapping", true, ddr::Mapping::kBankRowCol},
  };

  stats::TextTable t({"configuration", "cycles", "throughput B/cyc", "util",
                      "row hit", "hint ACT", "ACT"});
  sim::Cycle cycles_bi = 0, cycles_no_bi = 0;
  for (const Variant& v : variants) {
    auto cfg = core::table1_workloads(items, 13)[4].config;  // dma-1
    cfg.bus.bi_hints_enabled = v.bi;
    cfg.geom.mapping = v.mapping;
    const auto r = core::run_tlm(cfg);
    if (v.mapping == ddr::Mapping::kRowBankCol) {
      (v.bi ? cycles_bi : cycles_no_bi) = r.cycles;
    }
    t.add_row({v.name, std::to_string(r.cycles),
               stats::fmt_double(r.profile.bus.throughput(), 3),
               stats::fmt_percent(r.profile.bus.utilization()),
               stats::fmt_percent(r.profile.ddr.row_hit_rate()),
               std::to_string(r.profile.ddr.hits.hint_activates),
               std::to_string(r.profile.ddr.commands.activates)});
  }
  t.print(std::cout);

  std::cout << "\nexpected shape: BI hints finish the workload faster than"
               " the same bus\nwithout them (paper §2's rationale).\n";
  const bool ok = cycles_bi <= cycles_no_bi;
  std::cout << "\nRESULT: " << (ok ? "OK" : "FAIL") << " (BI hints "
            << cycles_bi << " cycles <= no BI hints " << cycles_no_bi
            << ")\n";
  return ok ? 0 : 1;
}
