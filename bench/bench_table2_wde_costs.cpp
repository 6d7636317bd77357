// Table II: delay / power / area of the three 64-bit Write Data Encoders,
// from the structural gate-level cost model (substitute for the paper's
// proprietary Cadence Genus + TSMC 65 nm flow; see src/hw/cell_library.hpp).
// Absolute numbers differ from the paper's library, the ordering and
// magnitude ratios are the reproduced result.
#include <iostream>

#include "bench_util.hpp"
#include "hw/synthesis.hpp"
#include "hw/wde_modules.hpp"
#include "util/table.hpp"

int main() {
  using namespace dnnlife;
  using hw::SynthesisReport;
  benchutil::print_heading("Table II: 64-bit Write Data Encoder costs");

  const SynthesisReport barrel =
      synthesize(hw::build_barrel_shifter_wde(64).netlist, "Barrel-shifter WDE");
  const SynthesisReport inversion =
      synthesize(hw::build_inversion_wde(64).netlist, "Inversion WDE");
  const SynthesisReport proposed = synthesize(
      hw::build_dnnlife_wde(64, 4).netlist, "Proposed WDE + aging controller");

  util::Table table({"design", "delay [ps]", "power [nW]", "area [cells]",
                     "instances"});
  for (const auto* report : {&barrel, &inversion, &proposed}) {
    table.add_row({report->module_name, util::Table::num(report->delay_ps, 1),
                   util::Table::num(report->power_nw, 1),
                   util::Table::num(report->area_cells, 1),
                   util::Table::num(static_cast<std::uint64_t>(report->cell_count))});
  }
  std::cout << table.to_string();

  std::cout << "\nRatios vs inversion WDE (paper: area 46.3x / 1.5x, power "
               "32.2x / 1.28x):\n";
  util::Table ratios({"design", "area ratio", "power ratio"});
  ratios.add_row({"barrel-shifter",
                  util::Table::num(barrel.area_cells / inversion.area_cells, 1),
                  util::Table::num(barrel.power_nw / inversion.power_nw, 1)});
  ratios.add_row({"proposed",
                  util::Table::num(proposed.area_cells / inversion.area_cells, 2),
                  util::Table::num(proposed.power_nw / inversion.power_nw, 2)});
  std::cout << ratios.to_string();

  std::cout << "\nPer-design cell inventory:\n";
  for (const auto* report : {&barrel, &inversion, &proposed}) {
    std::cout << "  " << report->to_string() << "\n";
  }

  benchutil::print_heading("Width scaling of the proposed WDE (linear, Sec. IV)");
  util::Table scaling({"width [bits]", "area [cells]", "power [nW]"});
  for (unsigned width : {16u, 32u, 64u, 128u, 256u}) {
    const auto report =
        synthesize(hw::build_dnnlife_wde(width, 4).netlist, "dnnlife");
    scaling.add_row({util::Table::num(static_cast<std::uint64_t>(width)),
                     util::Table::num(report.area_cells, 1),
                     util::Table::num(report.power_nw, 1)});
  }
  std::cout << scaling.to_string();
  return 0;
}
