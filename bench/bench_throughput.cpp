// Microbenchmarks (google-benchmark): throughput of the building blocks
// the large simulations lean on. Custom main: the selected duty-kernel
// variant (avx2/neon/scalar) is stamped into the benchmark context so CI
// bench JSON records which code path produced the numbers.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>

#include "aging/device_model.hpp"
#include "aging/lifetime.hpp"
#include "aging/snm_histogram.hpp"
#include "core/fast_simulator.hpp"
#include "core/reference_simulator.hpp"
#include "core/region_policy.hpp"
#include "core/sim_store.hpp"
#include "core/transducer.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/bit_distribution.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/encoded_rows.hpp"
#include "sim/tpu_npu.hpp"
#include "util/rng.hpp"

namespace {

using namespace dnnlife;

void BM_XoshiroNext(benchmark::State& state) {
  util::Xoshiro256ss rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_XoshiroNext);

void BM_WeightStream(benchmark::State& state) {
  const dnn::Network net = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(net);
  std::uint64_t g = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamer.weight(g));
    g = (g + 1) % net.total_weights();
  }
}
BENCHMARK(BM_WeightStream);

void BM_Int8Encode(benchmark::State& state) {
  const dnn::Network net = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(net);
  const quant::WeightWordCodec codec(streamer, quant::WeightFormat::kInt8Symmetric);
  (void)codec.layer_params(0);  // pre-warm the quantization parameters
  std::uint64_t g = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(g));
    g = (g + 1) % net.total_weights();
  }
}
BENCHMARK(BM_Int8Encode);

// One cold payload build: every GoogLeNet weight synthesised, quantised
// and packed for the TPU-like NPU (array 128), per format (0 float32,
// 1 int8-symmetric, 2 int8-asymmetric) under a thread budget.
void BM_EncodeRowsGoogLeNet(benchmark::State& state) {
  const dnn::Network net = dnn::make_googlenet();
  const dnn::WeightStreamer streamer(net);
  const auto format = static_cast<quant::WeightFormat>(state.range(0));
  const quant::WeightWordCodec codec(streamer, format);
  sim::TpuNpuConfig config;
  config.array_dim = 128;
  const auto threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    const auto rows =
        sim::EncodedRows::build(codec, sim::npu_dataflow(config), threads);
    benchmark::DoNotOptimize(rows->row(0).data());
  }
  state.SetLabel(quant::to_string(format));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.total_weights()));
}
BENCHMARK(BM_EncodeRowsGoogLeNet)
    ->ArgNames({"format", "threads"})
    ->ArgsProduct(
        {{static_cast<std::int64_t>(quant::WeightFormat::kInt8Symmetric),
          static_cast<std::int64_t>(quant::WeightFormat::kInt8Asymmetric),
          static_cast<std::int64_t>(quant::WeightFormat::kFloat32)},
         {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_XorTransducerRow(benchmark::State& state) {
  const core::XorTransducer transducer(512);
  std::vector<std::uint64_t> row(8, 0x1234567890abcdefULL);
  for (auto _ : state) {
    transducer.apply(row, true);
    benchmark::DoNotOptimize(row.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_XorTransducerRow);

void BM_SampleBinomialHalf(benchmark::State& state) {
  util::Xoshiro256ss rng(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::sample_binomial(rng, 100, 0.5));
}
BENCHMARK(BM_SampleBinomialHalf);

void BM_SampleBinomialBiased(benchmark::State& state) {
  util::Xoshiro256ss rng(3);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::sample_binomial(rng, 100, 0.7));
}
BENCHMARK(BM_SampleBinomialBiased);

void BM_FastSimCustomNet(benchmark::State& state) {
  const dnn::Network net = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(net);
  const quant::WeightWordCodec codec(streamer, quant::WeightFormat::kInt8Symmetric);
  sim::BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  const sim::BaselineWeightStream stream(codec, config);
  const auto policy = core::PolicyConfig::dnn_life(0.5);
  for (auto _ : state) {
    const auto tracker = core::simulate_fast(stream, policy, {100});
    benchmark::DoNotOptimize(tracker.ones_time().data());
  }
}
BENCHMARK(BM_FastSimCustomNet)->Unit(benchmark::kMillisecond);

void BM_FastSimRegionPolicy(benchmark::State& state) {
  // The refactored hot path with a hybrid region table: DNN-Life on the
  // hot first quarter of the rows, nothing on the rest.
  const dnn::Network net = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(net);
  const quant::WeightWordCodec codec(streamer, quant::WeightFormat::kInt8Symmetric);
  sim::BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  const sim::BaselineWeightStream stream(codec, config);
  const core::RegionPolicyTable table(
      sim::MemoryRegionMap::from_fractions(stream.geometry(),
                                           {{"hot", 0.25}, {"cold", 0.75}}),
      {core::PolicyConfig::dnn_life(0.5), core::PolicyConfig::none()});
  for (auto _ : state) {
    const auto tracker = core::simulate_fast(stream, table, {100});
    benchmark::DoNotOptimize(tracker.ones_time().data());
  }
}
BENCHMARK(BM_FastSimRegionPolicy)->Unit(benchmark::kMillisecond);

void BM_ReferenceSim(benchmark::State& state) {
  const dnn::Network net = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(net);
  const quant::WeightWordCodec codec(streamer, quant::WeightFormat::kInt8Symmetric);
  sim::BaselineAcceleratorConfig config;
  config.weight_memory_bytes = 16 * 1024;
  const sim::BaselineWeightStream stream(codec, config);
  const auto policy = core::PolicyConfig::dnn_life(0.5);
  core::ReferenceSimOptions options;
  options.inferences = static_cast<unsigned>(state.range(0));
  options.verify_decode = false;
  for (auto _ : state) {
    const auto tracker = core::simulate_reference(stream, policy, options);
    benchmark::DoNotOptimize(tracker.ones_time().data());
  }
}
BENCHMARK(BM_ReferenceSim)->Arg(20)->Unit(benchmark::kMillisecond);

// Payload shapes for the accumulate benchmarks: 0 = random (general
// branch-free blend), 1 = all-zero (padding rows — whole-word skip), 2 =
// all-one.
std::vector<std::uint64_t> accumulate_payload(std::int64_t kind,
                                              std::uint32_t row_bits) {
  std::vector<std::uint64_t> payload(row_bits / 64);
  util::Xoshiro256ss rng(7);
  for (auto& w : payload)
    w = kind == 0 ? rng.next() : kind == 1 ? 0 : ~0ULL;
  return payload;
}

void BM_DutyAccumulateRowWordLevel(benchmark::State& state) {
  const std::uint32_t row_bits = 512;
  aging::DutyCycleTracker tracker(row_bits);
  const auto payload = accumulate_payload(state.range(0), row_bits);
  for (auto _ : state) {
    tracker.accumulate_row(payload, row_bits, 0, 9, 0, 13);
    benchmark::DoNotOptimize(tracker.ones_time().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          row_bits);
}
BENCHMARK(BM_DutyAccumulateRowWordLevel)->Arg(0)->Arg(1)->Arg(2);

void BM_DutyAccumulatePerBit(benchmark::State& state) {
  // The pre-engine scalar path: per-cell add_* calls, one per bit, with
  // the branchy ones-time select the old simulators used.
  const std::uint32_t row_bits = 512;
  aging::DutyCycleTracker tracker(row_bits);
  const auto payload = accumulate_payload(state.range(0), row_bits);
  for (auto _ : state) {
    for (std::uint32_t bit = 0; bit < row_bits; ++bit) {
      if ((payload[bit / 64] >> (bit % 64)) & 1u) tracker.add_ones_time(bit, 9);
      tracker.add_total_time(bit, 13);
    }
    benchmark::DoNotOptimize(tracker.ones_time().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          row_bits);
}
BENCHMARK(BM_DutyAccumulatePerBit)->Arg(0)->Arg(1)->Arg(2);

void BM_BitDistributionAnalysis(benchmark::State& state) {
  const dnn::Network net = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(net);
  const quant::WeightWordCodec codec(streamer, quant::WeightFormat::kFloat32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::analyze_network_bits(codec, 50000));
  }
}
BENCHMARK(BM_BitDistributionAnalysis)->Unit(benchmark::kMillisecond);

// A realistic report workload: 64Ki cells with ~1000 distinct duty ratios
// (the repetition profile the report history table exploits). Arg selects
// the model: 0 = calibrated-nbti (closed-form inversion), 1 = pbti-hci
// (Newton inversion, one per distinct history).
aging::DutyCycleTracker make_report_tracker() {
  constexpr std::size_t kCells = 64 * 1024;
  aging::DutyCycleTracker tracker(kCells);
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    tracker.ones_time()[cell] = static_cast<std::uint32_t>(cell % 997);
    tracker.total_time()[cell] = 1000;
  }
  return tracker;
}

std::shared_ptr<const aging::DeviceAgingModel> report_model(std::int64_t kind) {
  if (kind == 0)
    return std::make_shared<aging::CalibratedNbtiDeviceModel>();
  return std::make_shared<aging::PbtiHciDeviceModel>();
}

void BM_LifetimeReportFold(benchmark::State& state) {
  const auto tracker = make_report_tracker();
  const aging::LifetimeModel model(report_model(state.range(0)));
  const aging::EnvironmentSegmentView segment{&tracker, {}};
  for (auto _ : state) {
    const auto report = aging::make_lifetime_report({&segment, 1}, model, 1);
    benchmark::DoNotOptimize(report.device_lifetime_years);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tracker.cell_count()));
}
BENCHMARK(BM_LifetimeReportFold)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_AgingReportFold(benchmark::State& state) {
  const auto tracker = make_report_tracker();
  const auto model = report_model(state.range(0));
  const aging::AgingReportOptions options;
  const aging::EnvironmentSegmentView segment{&tracker, {}};
  for (auto _ : state) {
    const auto report = aging::make_aging_report({&segment, 1}, *model, options);
    benchmark::DoNotOptimize(report.fraction_optimal);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tracker.cell_count()));
}
BENCHMARK(BM_AgingReportFold)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One store entry through the codec: serialize, then deserialize (which
// checksums and validates every byte), for a 2048 x 128-row single-segment
// state — 262,144 cells, the GoogLeNet TPU-like-NPU weight memory.
void BM_SimStateCodec(benchmark::State& state) {
  core::SimulationState sim_state;
  sim_state.geometry.rows = 2048;
  sim_state.geometry.row_bits = 128;
  const std::uint64_t cells = sim_state.geometry.cells();
  sim_state.regions = {{"memory", 0, cells}};
  aging::DutyCycleTracker tracker(static_cast<std::size_t>(cells));
  for (std::size_t cell = 0; cell < cells; ++cell) {
    tracker.ones_time()[cell] = static_cast<std::uint32_t>(cell % 997);
    tracker.total_time()[cell] = 1000;
  }
  tracker.set_regions(sim_state.regions);
  sim_state.segment_trackers.push_back(std::move(tracker));
  std::size_t entry_bytes = 0;
  for (auto _ : state) {
    const std::string bytes = core::serialize_simulation_state(sim_state);
    const auto loaded = core::deserialize_simulation_state(bytes, "bench");
    benchmark::DoNotOptimize(loaded->segment_trackers.data());
    entry_bytes = bytes.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entry_bytes));
}
BENCHMARK(BM_SimStateCodec)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("dnnlife_duty_kernel",
                              dnnlife::util::duty_kernel_variant());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
