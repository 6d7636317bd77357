// Hardware cost explorer: synthesize the three WDE designs across widths
// and controller configurations, and inspect gate-level details.
//
// Usage: hw_cost_explorer [width] (default 64; must be a power of two)
#include <iostream>
#include <stdexcept>
#include <string>

#include "hw/synthesis.hpp"
#include "hw/wde_modules.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run_explorer(int argc, char** argv) {
  using namespace dnnlife;
  util::FlagTable flags("example_hw_cost_explorer", "[width]", 1);
  if (!flags.parse(argc, argv)) return 1;
  unsigned width = 64;
  if (!flags.positionals().empty() &&
      !util::parse_unsigned_flag(flags.positionals().front(), width))
    throw std::invalid_argument("width expects a number, got '" +
                                flags.positionals().front() + "'");

  std::cout << "WDE design-space at " << width << "-bit width\n\n";
  util::Table table({"design", "delay [ps]", "power [nW]", "area [cells]",
                     "gates"});
  auto add = [&](const std::string& name, const hw::Netlist& netlist) {
    const auto report = hw::synthesize(netlist, name);
    table.add_row({name, util::Table::num(report.delay_ps, 1),
                   util::Table::num(report.power_nw, 1),
                   util::Table::num(report.area_cells, 1),
                   util::Table::num(std::uint64_t{report.cell_count})});
  };
  add("inversion", hw::build_inversion_wde(width).netlist);
  add("barrel (crossbar)",
      hw::build_barrel_shifter_wde(width, hw::BarrelStyle::kCrossbar).netlist);
  add("barrel (log-stages)",
      hw::build_barrel_shifter_wde(width, hw::BarrelStyle::kLogStages).netlist);
  for (unsigned m : {2u, 4u, 8u}) {
    add("dnn-life (M=" + std::to_string(m) + ")",
        hw::build_dnnlife_wde(width, m).netlist);
  }
  std::cout << table.to_string();

  std::cout << "\nGate inventory of the proposed WDE (M = 4):\n  "
            << hw::synthesize(hw::build_dnnlife_wde(width, 4).netlist,
                              "dnnlife_wde")
                   .to_string()
            << "\n";

  std::cout << "\nEncode energy per write [fJ]: inversion "
            << util::Table::num(
                   hw::encode_energy_fj(hw::build_inversion_wde(width).netlist), 1)
            << ", dnn-life "
            << util::Table::num(
                   hw::encode_energy_fj(hw::build_dnnlife_wde(width, 4).netlist), 1)
            << ", barrel "
            << util::Table::num(hw::encode_energy_fj(
                                    hw::build_barrel_shifter_wde(width).netlist),
                                1)
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_explorer(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
