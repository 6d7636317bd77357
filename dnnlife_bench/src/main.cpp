// dnnlife-bench: run one workload, check its outputs, print its metrics.
//
//   dnnlife_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --scratch DIR --trace-dir DIR
//
// Set-up (document generation, parsing, store warming) runs several times
// and reports its median. Untraced rounds of the workload then repeat until
// --seconds have passed (whole rounds only); they give the end-to-end
// metrics. With --trace 1 a traced run follows and the per-layer metrics
// are printed instead. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed. Stores and journals
// live in a unique directory under --scratch that is removed on exit; the
// trace's spans are written to --trace-dir as Chrome trace-event JSON.
#include <malloc.h>
#include <sched.h>
#include <stdlib.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner.hpp"
#include "stats.hpp"
#include "util/bitops.hpp"
#include "util/executor.hpp"
#include "util/json_writer.hpp"

namespace {

namespace fs = std::filesystem;
using dnnlife_bench::Metric;
using dnnlife_bench::Prepared;
using dnnlife_bench::Round;
using dnnlife_bench::StoreMode;
using dnnlife::util::json_escape;
using dnnlife::util::json_number_repr;

// Set-up repeats at least kMinSetUps times and for at least
// kMinSetUpSeconds (bounded by kMaxSetUps), so a sub-millisecond set-up
// still reports a steady median.
constexpr int kMinSetUps = 3;
constexpr int kMaxSetUps = 100000;
constexpr double kMinSetUpSeconds = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path scratch;
  fs::path trace_dir;
};

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    const std::size_t equals = arg.find('=');
    if (equals != std::string::npos) {
      values[arg.substr(0, equals)] = arg.substr(equals + 1);
    } else if (i + 1 < argc) {
      values[arg] = argv[++i];
    } else {
      throw std::invalid_argument("--" + arg + " needs a value");
    }
  }
  const auto take = [&](const std::string& name) {
    const auto found = values.find(name);
    if (found == values.end())
      throw std::invalid_argument("missing --" + name);
    std::string value = found->second;
    values.erase(found);
    return value;
  };
  Options options;
  options.workload = take("workload");
  options.seed = std::stoull(take("seed"));
  options.seconds = std::stod(take("seconds"));
  const std::string trace = take("trace");
  if (trace != "0" && trace != "1")
    throw std::invalid_argument("--trace expects 0 or 1");
  options.trace = trace == "1";
  options.scratch = take("scratch");
  options.trace_dir = take("trace-dir");
  if (!values.empty())
    throw std::invalid_argument("unknown option --" + values.begin()->first);
  if (!(options.seconds > 0.0))
    throw std::invalid_argument("--seconds must be positive");
  return options;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<unsigned>(count) : 1;
}

/// A unique directory for one run's stores and journals, removed on exit
/// so concurrent runs never share state.
class ScratchDir {
 public:
  explicit ScratchDir(const fs::path& parent) {
    fs::create_directories(parent);
    std::string pattern = (parent / "run-XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr)
      throw std::runtime_error("cannot create a scratch directory under " +
                               parent.string());
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    out += json_escape(metrics[i].name);
    out += "\": {\"value\": ";
    out += json_number_repr(metrics[i].value);
    out += ", \"unit\": \"";
    out += json_escape(metrics[i].unit);
    out += "\"}";
  }
  return out + "}";
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::cout << heading << "\n";
  for (const Metric& metric : metrics)
    std::cout << "  " << metric.name << " = " << json_number_repr(metric.value)
              << " " << metric.unit << "\n";
}

int run(const Options& options) {
  // Pin glibc's mmap threshold at its default instead of letting it rise
  // after the first large free: big buffers then return to the kernel when
  // freed, and peak RSS measures live memory rather than allocator history.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const unsigned cpus = available_cpus();
  dnnlife::util::Executor::configure_session(cpus);
  const unsigned workers = dnnlife::util::Executor::session().workers();
  const ScratchDir scratch(options.scratch);

  // Set-up, several times; the last one is measured against.
  std::vector<double> setup_seconds;
  Prepared prepared;
  fs::path setup_dir;
  const auto setups_start = std::chrono::steady_clock::now();
  for (int i = 0;
       i < kMinSetUps ||
       (i < kMaxSetUps && seconds_since(setups_start) < kMinSetUpSeconds);
       ++i) {
    const fs::path dir = scratch.path() / ("setup-" + std::to_string(i));
    const auto start = std::chrono::steady_clock::now();
    Prepared next = dnnlife_bench::set_up(options.workload, options.seed,
                                          workers, dir);
    setup_seconds.push_back(seconds_since(start));
    if (!setup_dir.empty()) fs::remove_all(setup_dir);
    prepared = std::move(next);
    setup_dir = dir;
  }
  const dnnlife_bench::Workload& workload = prepared.workload;

  // Untraced rounds: whole passes until the time budget is spent.
  std::vector<Round> rounds;
  const auto measure_start = std::chrono::steady_clock::now();
  do {
    const fs::path dir =
        scratch.path() / ("round-" + std::to_string(rounds.size()));
    rounds.push_back(dnnlife_bench::run_round(prepared, workload.jobs, dir));
    fs::remove_all(dir);
    if (rounds.back().digest != rounds.front().digest)
      rounds.back().failures.push_back("summary digest " + rounds.back().digest +
                                       " differs from the first round's " +
                                       rounds.front().digest);
  } while (seconds_since(measure_start) < options.seconds);

  std::vector<const Round*> checked = {};
  if (workload.store == StoreMode::kWarm) checked.push_back(&prepared.warmup);
  for (const Round& round : rounds) checked.push_back(&round);

  double wall = 0.0, cpu = 0.0;
  std::size_t ok = 0;
  std::vector<double> point_ms, peak_rss;
  for (const Round& round : rounds) {
    wall += round.wall_s;
    cpu += round.cpu_s;
    peak_rss.push_back(round.peak_rss_mb);
    ok += round.ok_points();
    for (const dnnlife_bench::PointRun& point : round.points)
      point_ms.push_back(point.record.wall_seconds * 1e3);
  }
  const dnnlife_bench::Percentile p90 = dnnlife_bench::percentile(point_ms, 0.9);
  const std::vector<Metric> end_to_end = {
      {"points_per_s", static_cast<double>(ok) / wall, "1/s"},
      {"point_p50_ms", dnnlife_bench::median(point_ms), "ms"},
      {"setup_s", dnnlife_bench::median(setup_seconds), "s"},
      {"cpu_s", cpu / static_cast<double>(rounds.size()), "s"},
      {"peak_rss_mb", dnnlife_bench::median(peak_rss), "MiB"},
  };

  // The traced run, against the latest untraced jobs-1 round (an extra
  // one for workloads that run several jobs) for the tracing overhead.
  std::vector<Metric> per_layer;
  std::string trace_file;
  std::optional<Round> serial;
  std::optional<dnnlife_bench::TracedRun> traced;
  if (options.trace) {
    if (workload.jobs != 1) {
      serial = dnnlife_bench::run_round(prepared, 1, scratch.path() / "serial");
      if (serial->digest != rounds.front().digest)
        serial->failures.push_back("jobs-1 summary digest differs");
      checked.push_back(&*serial);
    }
    traced = dnnlife_bench::run_traced(prepared, scratch.path() / "traced");
    dnnlife_bench::check_same_records(rounds.front(), traced->round,
                                      "traced round");
    if (workload.store == StoreMode::kWarm) {
      dnnlife_bench::check_same_records(prepared.warmup, traced->warmup,
                                        "traced warm-up");
      checked.push_back(&traced->warmup);
    }
    checked.push_back(&traced->round);
    per_layer = dnnlife_bench::per_layer_metrics(
        *traced, rounds, serial ? *serial : rounds.back(), workload.jobs);
    fs::create_directories(options.trace_dir);
    trace_file = (options.trace_dir / (options.workload + "-seed" +
                                       std::to_string(options.seed) + ".json"))
                     .string();
    std::ofstream(trace_file) << traced->spans.chrome_json();
  }

  std::size_t attempted = 0, failed = 0;
  for (const Round* round : checked) {
    attempted += round->points.size();
    failed += round->failed_points();
    for (const std::string& failure : round->failures)
      std::cerr << "CHECK FAILED: " << failure << "\n";
    for (const dnnlife_bench::PointRun& point : round->points)
      if (!point.record.ok)
        std::cerr << "POINT FAILED: " << point.record.name << ": "
                  << point.record.error << "\n";
  }
  const bool correct = failed == 0;

  std::cout << "{\"context\": {\"workload\": \"" << json_escape(options.workload)
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << json_number_repr(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"summary_digest\": \"" << rounds.front().digest
            << "\", \"rounds\": " << rounds.size()
            << ", \"points_per_round\": " << prepared.entries.size()
            << ", \"jobs\": " << workload.jobs
            << ", \"threads\": " << workload.threads
            << ", \"executor_workers\": " << workers
            << ", \"nproc\": " << cpus << ", \"duty_kernel\": \""
            << dnnlife::util::duty_kernel_variant()
            << "\", \"set_ups\": " << setup_seconds.size()
            << ", \"failed_frac\": "
            << json_number_repr(static_cast<double>(failed) /
                                static_cast<double>(attempted))
            << ", \"point_p90_ms\": " << json_number_repr(p90.value)
            << ", \"point_p90_samples\": " << p90.samples
            << ", \"point_p90_resolved\": " << (p90.resolved ? "true" : "false")
            << ", \"trace_file\": \"" << json_escape(trace_file) << "\"}}\n";
  print_metrics("end-to-end (untraced):", end_to_end);
  if (options.trace) print_metrics("per-layer (traced):", per_layer);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": "
            << metrics_json(options.trace ? per_layer : end_to_end) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "dnnlife_bench: " << error.what()
              << "\nusage: dnnlife_bench --workload NAME --seed N --seconds S"
                 " --trace 0|1 --scratch DIR --trace-dir DIR\n";
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::cerr << "dnnlife_bench: " << error.what() << "\n";
    return 1;
  }
}
