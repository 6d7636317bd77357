// Energy-overhead analysis backing the paper's "minimal energy overhead"
// claim: per-inference energy of the weight-memory traffic vs the extra
// energy spent in each mitigation scheme's transducers (encoder on every
// write, decoder on every read) plus the DNN-Life metadata storage.
#include <iostream>

#include "bench_util.hpp"
#include "core/metadata_store.hpp"
#include "hw/synthesis.hpp"
#include "hw/wde_modules.hpp"
#include "sim/energy_model.hpp"
#include "util/table.hpp"

int main() {
  using namespace dnnlife;
  benchutil::print_heading(
      "Energy overhead per inference (baseline accelerator, AlexNet, int8)");

  core::ScenarioSpec spec;
  spec.format = quant::WeightFormat::kInt8Symmetric;
  spec.hardware = core::HardwareKind::kBaseline;
  spec.phases = {{"alexnet", 100, {}}};
  const auto owned_stream = benchutil::make_stream(spec);
  const sim::WriteStream& stream = *owned_stream;
  const std::uint32_t row_bits = stream.geometry().row_bits;

  const sim::EnergyModel energy;
  const double memory_pj = energy.inference_weight_write_pj(stream);

  // Per-row transducer energies: the WDE spans the memory write port; the
  // XOR designs scale linearly, so scale the 64-bit module's energy.
  const double scale = static_cast<double>(row_bits) / 64.0;
  const double inv_fj = hw::encode_energy_fj(hw::build_inversion_wde(64).netlist) * scale;
  const double barrel_fj =
      hw::encode_energy_fj(hw::build_barrel_shifter_wde(64).netlist) * scale;
  const double dnn_fj = hw::encode_energy_fj(hw::build_dnnlife_wde(64, 4).netlist) * scale;

  util::Table table({"policy", "transducer pJ/inference", "overhead vs memory"});
  auto add = [&](const std::string& name, double encode_fj) {
    const double overhead_pj =
        energy.transducer_overhead_pj(stream, encode_fj, encode_fj, 1.0);
    table.add_row({name, util::Table::num(overhead_pj, 1),
                   util::Table::num(100.0 * overhead_pj / memory_pj, 2) + "%"});
  };
  std::cout << "weight-memory write energy: " << util::Table::num(memory_pj, 0)
            << " pJ/inference (" << stream.writes_per_inference()
            << " row writes of " << row_bits << " bits)\n\n";
  add("inversion-based", inv_fj);
  add("barrel-shifter-based", barrel_fj);
  add("DNN-Life (proposed)", dnn_fj);
  std::cout << table.to_string();

  benchutil::print_heading("DNN-Life metadata storage overhead");
  const core::MetadataStore metadata(stream.geometry().rows);
  std::cout << "  1 enable bit per " << row_bits << "-bit row: "
            << metadata.overhead_bits() / 8 << " bytes total ("
            << util::Table::num(100.0 * metadata.overhead_fraction(row_bits), 3)
            << "% of the array)\n";

  std::cout << "\nPaper shape: the barrel shifter costs an order of magnitude\n"
               "more transducer energy; the proposed scheme stays within a\n"
               "few percent of the inversion baseline and a tiny fraction of\n"
               "the memory traffic itself — 'minimal energy overhead'.\n";
  return 0;
}
