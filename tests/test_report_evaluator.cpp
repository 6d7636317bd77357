// Tests for the history-table report-evaluation pipeline and the Newton
// lifetime inversion.
//
//  * Hash-pinned golden reports for all four built-in aging models at 1, 2
//    and 8 threads, on one-segment and two-segment states: parallel
//    evaluation must be bit-identical to the serial loop, and the serial
//    loop bit-identical to the pre-refactor monolithic one (hashes marked
//    "pre-refactor" below were captured from the per-cell-loop build).
//    The pbti-hci lifetime solves are the one intentional exception: the
//    safeguarded Newton inversion replaced blind bisection there, so those
//    hashes pin the Newton results and a separate test bounds the
//    Newton-vs-bisection difference at ulp scale.
//  * History-table tests: whole-state first-seen numbering, index
//    widening (uint8_t to uint16_t to uint32_t), exactly one model
//    evaluation per distinct used history per report, and per-cell and
//    whole-report bit identity with a per-cell reference loop over
//    repeated, unused and all-distinct histories (beyond 65,536 of them
//    too), with budget invariance when the distinct histories cluster in
//    the first quarter of the cells.
//  * Solver tests: Newton agreement with the legacy bisection, a pinned
//    iteration-count budget (~10 evaluations vs bisection's ~50+), the
//    pbti-hci hoisted solver against the generic one bit for bit, and the
//    finite-difference default of degradation_slope against the analytic
//    overrides.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "aging/lifetime.hpp"
#include "aging/model_registry.hpp"
#include "aging/report_evaluator.hpp"
#include "aging/snm_histogram.hpp"
#include "core/fast_simulator.hpp"
#include "sim/write_stream.hpp"
#include "util/bitops.hpp"
#include "util/root_find.hpp"

namespace dnnlife::aging {
namespace {

constexpr EnvironmentSpec kNominal{};

EnvironmentSpec hot(double temperature_c) {
  EnvironmentSpec env;
  env.temperature_c = temperature_c;
  return env;
}

std::uint64_t fnv1a_doubles(const std::vector<double>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double value : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      hash ^= (bits >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

std::vector<double> report_fields(const AgingReport& report) {
  std::vector<double> fields = {
      report.snm_stats.mean(),  report.snm_stats.min(),
      report.snm_stats.max(),   report.snm_stats.variance(),
      report.duty_stats.mean(), report.duty_stats.min(),
      report.duty_stats.max(),  report.duty_stats.variance(),
      report.fraction_optimal,  static_cast<double>(report.total_cells),
      static_cast<double>(report.unused_cells)};
  for (std::size_t b = 0; b < report.snm_histogram.bin_count(); ++b)
    fields.push_back(report.snm_histogram.fraction_in_bin(b));
  return fields;
}

std::vector<double> lifetime_fields(const LifetimeReport& report) {
  return {report.device_lifetime_years,      report.cell_lifetime.mean(),
          report.cell_lifetime.min(),        report.cell_lifetime.max(),
          report.cell_lifetime.variance(),   report.improvement_over_worst_case,
          report.fraction_of_ideal};
}

/// The same stream tests/test_device_models.cpp pins hashes for (6 rows x
/// 96 bits = 576 cells, so an 8-way shard split is non-trivial).
sim::VectorWriteStream make_golden_stream() {
  sim::VectorWriteStream stream(sim::MemoryGeometry{6, 96}, 5);
  const std::vector<std::uint64_t> a{0x0123456789abcdefULL, 0x0000000055aa55aaULL};
  const std::vector<std::uint64_t> b{0xdeadbeefcafef00dULL, 0x00000000ffff0000ULL};
  const std::vector<std::uint64_t> c{0x5555555555555555ULL, 0x0000000033333333ULL};
  const std::vector<std::uint64_t> zeros{0, 0};
  const std::vector<std::uint64_t> ones{~0ULL, util::low_mask(32)};
  stream.add_write(0, 0, a);
  stream.add_write(1, 0, b);
  stream.add_write(2, 1, c);
  stream.add_write(3, 1, a);
  stream.add_write(3, 1, b);
  stream.add_write(0, 2, c);
  stream.add_write(4, 2, zeros);
  stream.add_write(1, 3, b);
  stream.add_write(0, 4, b);
  stream.add_write(5, 4, ones);
  return stream;
}

struct ModelPins {
  const char* model;
  std::uint64_t legacy_aging;
  std::uint64_t legacy_lifetime;
  std::uint64_t timeline_aging;
  std::uint64_t timeline_lifetime;
};

/// Captured from the pre-refactor monolithic per-cell loops, except the
/// three pbti-hci entries marked Newton: the pbti-hci lifetime solves (and
/// the inner equivalent-time inversions of its multi-segment composition)
/// now run safeguarded Newton, whose results differ from bisection's
/// midpoint in the last ~dozen ulps (bounded by NewtonMatchesBisection
/// below). Everything else — all power-law models everywhere, and the
/// pbti-hci degradation-only legacy report — is pinned to pre-refactor
/// bits.
const std::vector<ModelPins> kPins = {
    {"calibrated-nbti", 0x14fc8df43e43fdf1ULL, 0x94118fe2a80e877bULL,
     0x8993660969b25cbfULL, 0xe6769c8b811e27adULL},
    {"arrhenius-nbti", 0x14fc8df43e43fdf1ULL, 0x94118fe2a80e877bULL,
     0xa572bc5cc4de0775ULL, 0x013c01b3f53f7f88ULL},
    {"pbti-hci", 0x7245b2239f20e8a8ULL,
     0xb4bfec997bf6097fULL /* Newton */, 0x7f14f787ec7e6e67ULL /* Newton */,
     0x1f9ccee1f628ae6bULL /* Newton */},
    {"dual-bti", 0xc6171e288f2533d4ULL, 0x5b2a0fabde2002caULL,
     0x77c1f1548cd0ead4ULL, 0x1eee893a8f1a40caULL},
};

class ReportEvaluatorGolden : public ::testing::Test {
 protected:
  ReportEvaluatorGolden() {
    const auto stream = make_golden_stream();
    cool_ = std::make_unique<DutyCycleTracker>(
        core::simulate_fast(stream, core::PolicyConfig::dnn_life(0.5), {16, 1}));
    hot_ = std::make_unique<DutyCycleTracker>(
        core::simulate_fast(stream, core::PolicyConfig::none(), {16, 1}));
    segments_.push_back(EnvironmentSegmentView{cool_.get(), kNominal});
    segments_.push_back(EnvironmentSegmentView{hot_.get(), hot(85.0)});
  }

  /// The cool tracker alone: a one-segment state.
  std::span<const EnvironmentSegmentView> cool() const {
    return {segments_.data(), 1};
  }

  std::unique_ptr<DutyCycleTracker> cool_;
  std::unique_ptr<DutyCycleTracker> hot_;
  std::vector<EnvironmentSegmentView> segments_;
};

TEST_F(ReportEvaluatorGolden, AllModelsAllThreadCountsBitIdentical) {
  for (const ModelPins& pins : kPins) {
    const std::shared_ptr<const DeviceAgingModel> model =
        make_aging_model(pins.model);
    const LifetimeModel lifetime(model);
    for (const unsigned threads : {1u, 2u, 8u}) {
      AgingReportOptions options;
      options.threads = threads;
      EXPECT_EQ(fnv1a_doubles(report_fields(
                    make_aging_report(cool(), *model, options))),
                pins.legacy_aging)
          << pins.model << " legacy aging, " << threads << " threads";
      EXPECT_EQ(fnv1a_doubles(lifetime_fields(
                    make_lifetime_report(cool(), lifetime, threads))),
                pins.legacy_lifetime)
          << pins.model << " legacy lifetime, " << threads << " threads";
      EXPECT_EQ(fnv1a_doubles(report_fields(
                    make_aging_report(segments_, *model, options))),
                pins.timeline_aging)
          << pins.model << " timeline aging, " << threads << " threads";
      EXPECT_EQ(fnv1a_doubles(lifetime_fields(
                    make_lifetime_report(segments_, lifetime, threads))),
                pins.timeline_lifetime)
          << pins.model << " timeline lifetime, " << threads << " threads";
    }
  }
}

TEST_F(ReportEvaluatorGolden, HardwareThreadCountAlsoBitIdentical) {
  // threads = 0 resolves to the hardware concurrency — whatever that is
  // on the machine running the tests, the reports must not change.
  const std::shared_ptr<const DeviceAgingModel> model =
      make_aging_model(kDefaultAgingModel);
  AgingReportOptions options;
  options.threads = 0;
  EXPECT_EQ(fnv1a_doubles(report_fields(
                make_aging_report(cool(), *model, options))),
            kPins[0].legacy_aging);
  const LifetimeModel lifetime(model);
  EXPECT_EQ(fnv1a_doubles(lifetime_fields(
                make_lifetime_report(segments_, lifetime, 0))),
            kPins[0].timeline_lifetime);
}

TEST_F(ReportEvaluatorGolden, RegionBreakdownIdenticalAcrossThreadCounts) {
  // Region accumulators live inside the fold, so the per-region breakdown
  // must be bitwise thread-count-invariant too.
  const std::vector<CellRegion> regions = {CellRegion{"a", 0, 192},
                                           CellRegion{"b", 192, 384},
                                           CellRegion{"c", 384, 576}};
  cool_->set_regions(regions);
  hot_->set_regions(regions);
  const std::shared_ptr<const DeviceAgingModel> model =
      make_aging_model("arrhenius-nbti");
  const LifetimeModel lifetime(model);

  AgingReportOptions serial_options;
  const AgingReport serial =
      make_aging_report(segments_, *model, serial_options);
  const LifetimeReport serial_life =
      make_lifetime_report(segments_, lifetime, 1);
  for (const unsigned threads : {2u, 8u}) {
    AgingReportOptions options;
    options.threads = threads;
    const AgingReport parallel = make_aging_report(segments_, *model, options);
    ASSERT_EQ(parallel.regions.size(), serial.regions.size());
    for (std::size_t r = 0; r < serial.regions.size(); ++r) {
      EXPECT_EQ(parallel.regions[r].snm_stats.mean(),
                serial.regions[r].snm_stats.mean());
      EXPECT_EQ(parallel.regions[r].snm_stats.variance(),
                serial.regions[r].snm_stats.variance());
      EXPECT_EQ(parallel.regions[r].duty_stats.mean(),
                serial.regions[r].duty_stats.mean());
      EXPECT_EQ(parallel.regions[r].fraction_optimal,
                serial.regions[r].fraction_optimal);
    }
    const LifetimeReport parallel_life =
        make_lifetime_report(segments_, lifetime, threads);
    ASSERT_EQ(parallel_life.regions.size(), serial_life.regions.size());
    for (std::size_t r = 0; r < serial_life.regions.size(); ++r) {
      EXPECT_EQ(parallel_life.regions[r].device_lifetime_years,
                serial_life.regions[r].device_lifetime_years);
      EXPECT_EQ(parallel_life.regions[r].cell_lifetime.mean(),
                serial_life.regions[r].cell_lifetime.mean());
    }
  }
}

TEST(ReportEvaluator, EvaluatesEveryIdExactlyOnceForAnyBudget) {
  // evaluate() spans several kChunk chunks plus a ragged tail; every id
  // must be evaluated exactly once and land at its own position. Budget 1
  // makes one functor and one call over every id.
  const std::size_t count = 3 * ReportEvaluator::kChunk + 613;
  for (const unsigned threads : {1u, 2u, 3u, 8u, 64u}) {
    std::vector<std::atomic<int>> evaluations(count);
    std::atomic<int> functors{0};
    std::atomic<int> calls{0};
    const std::vector<std::size_t> values =
        ReportEvaluator(threads).evaluate<std::size_t>(count, [&] {
          ++functors;
          return [&](std::size_t begin, std::size_t end,
                     std::span<std::size_t> out) {
            ++calls;
            ASSERT_EQ(out.size(), end - begin);
            for (std::size_t id = begin; id < end; ++id) {
              ++evaluations[id];
              out[id - begin] = id * 3 + 1;
            }
          };
        });
    ASSERT_EQ(values.size(), count) << threads << " threads";
    for (std::size_t id = 0; id < count; ++id) {
      EXPECT_EQ(evaluations[id].load(), 1) << id;
      EXPECT_EQ(values[id], id * 3 + 1) << id;
    }
    if (threads == 1) {
      EXPECT_EQ(functors.load(), 1);
      EXPECT_EQ(calls.load(), 1);
    } else {
      EXPECT_EQ(calls.load(), static_cast<int>((count + ReportEvaluator::kChunk -
                                                1) /
                                               ReportEvaluator::kChunk))
          << threads << " threads";
    }
  }
  EXPECT_TRUE(ReportEvaluator(4).evaluate<int>(0, [] {
    return [](std::size_t, std::size_t, std::span<int>) { FAIL(); };
  }).empty());
}

TEST(ReportEvaluator, FoldsEveryCellInOrderForAnyShardCount) {
  // Cell counts within one chunk of histories and across several; cells
  // of equal cell * cell % 7 share one history, so the replay must
  // resolve repeated ids to the value of their history.
  for (const std::size_t cells :
       {std::size_t{37}, 5 * ReportEvaluator::kChunk + 37}) {
    DutyCycleTracker tracker(cells);
    for (std::size_t cell = 0; cell < cells; ++cell) {
      tracker.ones_time()[cell] = static_cast<std::uint32_t>(cell * cell % 7);
      tracker.total_time()[cell] = 7;
    }
    const EnvironmentSegmentView segment{&tracker, kNominal};
    const HistoryTable table({&segment, 1});
    ASSERT_EQ(table.size(), 4u);  // the squares mod 7: 0, 1, 2, 4
    for (const unsigned threads : {1u, 2u, 3u, 8u, 64u}) {
      const std::vector<std::size_t> values =
          ReportEvaluator(threads).evaluate<std::size_t>(table.size(), [&] {
            return [&](std::size_t begin, std::size_t end,
                       std::span<std::size_t> out) {
              for (std::size_t id = begin; id < end; ++id)
                out[id - begin] = tracker.ones_time()[table.firsts()[id]];
            };
          });
      std::vector<std::size_t> order;
      table.for_each(0, cells, [&](std::size_t cell, std::uint32_t id) {
        EXPECT_EQ(values[id], cell * cell % 7);
        order.push_back(cell);
      });
      ASSERT_EQ(order.size(), cells) << threads << " threads";
      for (std::size_t i = 0; i < cells; ++i) EXPECT_EQ(order[i], i);
    }
  }
}

// ---- exact-history memo -----------------------------------------------------

/// The span of history_trackers()' all-distinct prefix and of each of its
/// two repeating spans.
constexpr std::size_t kBlock = 4096;

/// Two segment trackers over 2 * kBlock + 1500 cells carrying every kind
/// of history the history table must get right:
///  * cells [0, kBlock): all-distinct histories (beyond a uint8_t index);
///  * the rest: 13 histories repeated all the way through, among them
///    cells unused in segment a only, in segment b only, and in both.
std::pair<DutyCycleTracker, DutyCycleTracker> history_trackers() {
  const std::size_t cells = 2 * kBlock + 1500;
  DutyCycleTracker a(cells);
  DutyCycleTracker b(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    std::uint32_t a_ones = 0, a_total = 0, b_ones = 0, b_total = 0;
    if (cell < kBlock) {
      a_total = 5000 + static_cast<std::uint32_t>(cell);
      a_ones = static_cast<std::uint32_t>(cell * 37 % a_total);
      b_total = 300;
      b_ones = static_cast<std::uint32_t>(cell % 301);
    } else {
      const auto j = static_cast<std::uint32_t>(cell % 13);
      if (j != 7 && j != 11) {
        a_total = 200;
        a_ones = 15 * j;
      }
      if (j != 7 && j % 4 != 0) {
        b_total = 100;
        b_ones = 7 * j;
      }
    }
    a.ones_time()[cell] = a_ones;
    a.total_time()[cell] = a_total;
    b.ones_time()[cell] = b_ones;
    b.total_time()[cell] = b_total;
  }
  return {std::move(a), std::move(b)};
}

/// One region per cell, so a report's region breakdown exposes every
/// cell's own value (the min of a one-value RunningStats is that value).
std::vector<CellRegion> one_region_per_cell(std::size_t cells) {
  std::vector<CellRegion> regions;
  regions.reserve(cells);
  for (std::size_t cell = 0; cell < cells; ++cell)
    regions.push_back(CellRegion{std::to_string(cell), cell, cell + 1});
  return regions;
}

/// A cell's values, computed the per-cell way.
struct ReferenceCell {
  bool used = false;
  double duty = 0.0;
  double snm = 0.0;
  double optimal = 0.0;
  double years = 0.0;
};

std::vector<ReferenceCell> reference_cells(
    std::span<const EnvironmentSegmentView> segments,
    const LifetimeModel& lifetime, double years) {
  const DeviceAgingModel& model = lifetime.model();
  std::vector<ReferenceCell> cells;
  std::vector<StressSegment> history;
  for (std::size_t cell = 0; cell < segments.front().tracker->cell_count();
       ++cell) {
    const CellResidency residency =
        gather_cell_segments(segments, cell, history);
    if (residency.total == 0) {
      cells.emplace_back();
      continue;
    }
    std::vector<StressSegment> balanced = history;
    for (StressSegment& segment : balanced) segment.duty = 0.5;
    cells.push_back(ReferenceCell{
        true,
        static_cast<double>(residency.ones) /
            static_cast<double>(residency.total),
        model.degradation_on_timeline(history, years),
        model.degradation_on_timeline(balanced, years),
        lifetime.years_to_failure(history)});
  }
  return cells;
}

/// report_fields() of the report the per-cell loop folds.
std::vector<double> reference_aging_fields(
    const std::vector<ReferenceCell>& cells,
    const AgingReportOptions& options) {
  util::Histogram histogram(options.hist_lo, options.hist_hi,
                            options.hist_bins);
  util::RunningStats snm;
  util::RunningStats duty;
  std::uint64_t used = 0;
  std::uint64_t optimal = 0;
  for (const ReferenceCell& cell : cells) {
    if (!cell.used) continue;
    ++used;
    histogram.add(cell.snm);
    snm.add(cell.snm);
    duty.add(cell.duty);
    if (cell.snm <= cell.optimal + options.optimal_tolerance) ++optimal;
  }
  std::vector<double> fields = {
      snm.mean(),  snm.min(),  snm.max(),  snm.variance(),
      duty.mean(), duty.min(), duty.max(), duty.variance(),
      used == 0 ? 0.0
                : static_cast<double>(optimal) / static_cast<double>(used),
      static_cast<double>(cells.size()),
      static_cast<double>(cells.size() - used)};
  for (std::size_t b = 0; b < histogram.bin_count(); ++b)
    fields.push_back(histogram.fraction_in_bin(b));
  return fields;
}

/// lifetime_fields() of the report the per-cell loop folds.
std::vector<double> reference_lifetime_fields(
    const std::vector<ReferenceCell>& cells, const LifetimeModel& lifetime) {
  util::RunningStats years;
  double device = 0.0;
  for (const ReferenceCell& cell : cells) {
    if (!cell.used) continue;
    if (years.count() == 0 || cell.years < device) device = cell.years;
    years.add(cell.years);
  }
  return {device,
          years.mean(),
          years.min(),
          years.max(),
          years.variance(),
          device / lifetime.worst_case_years(),
          device / lifetime.best_case_years()};
}

std::uint64_t bits_of(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_bit_identical(const std::vector<double>& actual,
                          const std::vector<double>& expected,
                          const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i)
    EXPECT_EQ(bits_of(actual[i]), bits_of(expected[i]))
        << what << ", field " << i << ": " << actual[i] << " vs "
        << expected[i];
}

TEST(HistoryTable, NumbersDistinctHistoriesInWholeStateFirstSeenOrder) {
  const auto [a, b] = history_trackers();
  const std::vector<EnvironmentSegmentView> segments = {{&a, kNominal},
                                                        {&b, hot(85.0)}};
  const HistoryTable table(segments);
  ASSERT_EQ(table.cell_count(), a.cell_count());
  // The all-distinct prefix: every cell is its own first, then the 13
  // repeating histories, numbered by first appearance across the state.
  ASSERT_EQ(table.size(), kBlock + 13);
  EXPECT_EQ(table.index_bytes(), 2u);
  const std::span<const std::size_t> firsts = table.firsts();
  for (std::size_t cell = 0; cell < a.cell_count(); ++cell) {
    const std::uint32_t id = table.id(cell);
    ASSERT_LT(id, table.size());
    if (cell < kBlock + 13) {
      EXPECT_EQ(id, cell);
      EXPECT_EQ(firsts[id], cell);
    } else {
      EXPECT_EQ(id, table.id(cell - 13)) << cell;
    }
  }
  // One segment: the prefix's segment-a histories are still distinct, and
  // the repeating part has one history per distinct segment-a counter
  // pair (j = 7 and j = 11 are both unused there).
  const HistoryTable single({segments.data(), 1});
  EXPECT_EQ(single.size(), kBlock + 12);
  std::vector<std::uint32_t> visited;
  single.for_each(kBlock, kBlock + 26, [&](std::size_t cell, std::uint32_t id) {
    EXPECT_EQ(cell, kBlock + visited.size());
    visited.push_back(id);
  });
  ASSERT_EQ(visited.size(), 26u);
  for (std::size_t i = 0; i < 13; ++i) EXPECT_EQ(visited[i + 13], visited[i]);
  // A table answers only for the state shape it was built from.
  const LifetimeModel lifetime;
  EXPECT_THROW(make_aging_report(segments, single, lifetime.model()),
               std::invalid_argument);
  EXPECT_THROW(make_lifetime_report({segments.data(), 1}, table, lifetime),
               std::invalid_argument);
}

TEST(HistoryTable, IndexWidensWithTheDistinctCount) {
  // 256 distinct histories fit a uint8_t index; the 257th widens it, and
  // every id keyed before the widening survives it.
  for (const std::size_t distinct : {std::size_t{1}, std::size_t{256},
                                     std::size_t{257}}) {
    const std::size_t cells = 3 * distinct + 5;
    DutyCycleTracker tracker(cells);
    for (std::size_t cell = 0; cell < cells; ++cell) {
      tracker.ones_time()[cell] = static_cast<std::uint32_t>(cell % distinct);
      tracker.total_time()[cell] = 1000;
    }
    const EnvironmentSegmentView segment{&tracker, kNominal};
    const HistoryTable table({&segment, 1});
    ASSERT_EQ(table.size(), distinct);
    EXPECT_EQ(table.index_bytes(), distinct <= 256 ? 1u : 2u);
    for (std::size_t cell = 0; cell < cells; ++cell)
      ASSERT_EQ(table.id(cell), cell % distinct) << cell;
  }
}

TEST(ReportEvaluatorMemo, MatchesPerCellReferenceForEveryHistoryKind) {
  auto [a, b] = history_trackers();
  const std::size_t cells = a.cell_count();
  a.set_regions(one_region_per_cell(cells));
  b.set_regions(one_region_per_cell(cells));
  const std::vector<EnvironmentSegmentView> timeline = {{&a, hot(45.0)},
                                                        {&b, hot(85.0)}};
  const std::span<const EnvironmentSegmentView> single(timeline.data(), 1);
  for (const ModelPins& pins : kPins) {
    const LifetimeModel lifetime(make_aging_model(pins.model));
    for (const std::span<const EnvironmentSegmentView> segments :
         {single, std::span<const EnvironmentSegmentView>(timeline)}) {
      const std::string view = std::string(pins.model) + ", " +
                               std::to_string(segments.size()) + " segment(s)";
      AgingReportOptions options;
      const std::vector<ReferenceCell> reference =
          reference_cells(segments, lifetime, options.years);
      const std::vector<double> aging_fields =
          reference_aging_fields(reference, options);
      const std::vector<double> life_fields =
          reference_lifetime_fields(reference, lifetime);
      for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        const std::string what = view + ", budget " + std::to_string(threads);
        options.threads = threads;
        const AgingReport report =
            make_aging_report(segments, lifetime.model(), options);
        const LifetimeReport life =
            make_lifetime_report(segments, lifetime, threads);
        expect_bit_identical(report_fields(report), aging_fields,
                             what + " aging");
        expect_bit_identical(lifetime_fields(life), life_fields,
                             what + " lifetime");
        ASSERT_EQ(report.regions.size(), cells);
        ASSERT_EQ(life.regions.size(), cells);
        std::size_t mismatches = 0;
        std::size_t first_mismatch = cells;
        for (std::size_t cell = 0; cell < cells; ++cell) {
          const ReferenceCell& expected = reference[cell];
          const RegionAging& aging = report.regions[cell];
          const RegionLifetime& lifetime_region = life.regions[cell];
          const bool same =
              expected.used
                  ? aging.unused_cells == 0 &&
                        bits_of(aging.snm_stats.min()) == bits_of(expected.snm) &&
                        bits_of(aging.duty_stats.min()) ==
                            bits_of(expected.duty) &&
                        aging.fraction_optimal ==
                            (expected.snm <=
                                     expected.optimal + options.optimal_tolerance
                                 ? 1.0
                                 : 0.0) &&
                        bits_of(lifetime_region.device_lifetime_years) ==
                            bits_of(expected.years)
                  : aging.unused_cells == 1 &&
                        lifetime_region.cell_lifetime.count() == 0;
          if (!same && mismatches++ == 0) first_mismatch = cell;
        }
        EXPECT_EQ(mismatches, 0u)
            << what << ": first mismatching cell " << first_mismatch;
      }
    }
  }
}

TEST(ReportEvaluatorMemo, SkewedDistinctHistoriesIdenticalAcrossBudgets) {
  // Every distinct history sits in the first quarter of the cells (the
  // shape of a dnn-life hot region next to unmitigated cold rows): the
  // block items must still fold to the budget-1 report bit for bit.
  const std::size_t cells = 4 * kBlock;
  DutyCycleTracker a(cells);
  DutyCycleTracker b(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const bool hot_cell = cell < cells / 4;
    a.total_time()[cell] = hot_cell ? 4000 + static_cast<std::uint32_t>(cell)
                                    : 1000;
    a.ones_time()[cell] = hot_cell ? static_cast<std::uint32_t>(cell) : 900;
    b.total_time()[cell] = 500;
    b.ones_time()[cell] = hot_cell ? 250 : static_cast<std::uint32_t>(cell % 3);
  }
  const std::vector<EnvironmentSegmentView> segments = {{&a, hot(45.0)},
                                                        {&b, hot(85.0)}};
  for (const ModelPins& pins : kPins) {
    const LifetimeModel lifetime(make_aging_model(pins.model));
    AgingReportOptions options;
    const std::vector<double> serial_aging = report_fields(
        make_aging_report(segments, lifetime.model(), options));
    const std::vector<double> serial_life =
        lifetime_fields(make_lifetime_report(segments, lifetime, 1));
    for (const unsigned threads : {2u, 3u, 8u}) {
      options.threads = threads;
      const std::string what =
          std::string(pins.model) + ", budget " + std::to_string(threads);
      expect_bit_identical(
          report_fields(make_aging_report(segments, lifetime.model(), options)),
          serial_aging, what + " aging");
      expect_bit_identical(
          lifetime_fields(make_lifetime_report(segments, lifetime, threads)),
          serial_life, what + " lifetime");
    }
  }
}

/// A built-in model that counts the evaluations the reports ask of it
/// (atomic: the reports call it from executor workers above budget 1).
class CountingModel : public DeviceAgingModel {
 public:
  explicit CountingModel(std::shared_ptr<const DeviceAgingModel> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  double reference_years() const noexcept override {
    return inner_->reference_years();
  }
  double degradation(double duty, double years,
                     const EnvironmentSpec& env) const override {
    ++degradations;
    return inner_->degradation(duty, years, env);
  }
  double years_to_reach(double duty, double target,
                        const EnvironmentSpec& env) const override {
    ++inversions;
    return inner_->years_to_reach(duty, target, env);
  }
  double degradation_on_timeline(std::span<const StressSegment> timeline,
                                 double years) const override {
    ++timelines;
    return inner_->degradation_on_timeline(timeline, years);
  }
  double years_to_failure(std::span<const StressSegment> timeline,
                          double threshold) const override {
    ++failures;
    return inner_->years_to_failure(timeline, threshold);
  }

  void clear() {
    degradations = inversions = timelines = failures = 0;
  }

  mutable std::atomic<std::uint64_t> degradations{0};
  mutable std::atomic<std::uint64_t> inversions{0};
  mutable std::atomic<std::uint64_t> timelines{0};
  mutable std::atomic<std::uint64_t> failures{0};

 private:
  std::shared_ptr<const DeviceAgingModel> inner_;
};

/// The number of distinct used histories of `segments`, counted the
/// plain way: a set of every used cell's residency counters.
std::size_t distinct_used_histories(
    std::span<const EnvironmentSegmentView> segments) {
  std::set<std::vector<std::uint32_t>> keys;
  for (std::size_t cell = 0; cell < segments.front().tracker->cell_count();
       ++cell) {
    std::vector<std::uint32_t> key;
    std::uint32_t total = 0;
    for (const EnvironmentSegmentView& segment : segments) {
      key.push_back(segment.tracker->ones_time()[cell]);
      key.push_back(segment.tracker->total_time()[cell]);
      total += segment.tracker->total_time()[cell];
    }
    if (total != 0) keys.insert(std::move(key));
  }
  return keys.size();
}

TEST(HistoryTable, EachReportEvaluatesEachDistinctUsedHistoryOnce) {
  // The repeating histories recur all through the state, so any scheme
  // that keys less than the whole state evaluates them more than once.
  const auto [a, b] = history_trackers();
  const std::vector<EnvironmentSegmentView> timeline = {{&a, hot(45.0)},
                                                        {&b, hot(85.0)}};
  const auto model = std::make_shared<CountingModel>(
      make_aging_model(kDefaultAgingModel));
  const LifetimeModel lifetime(model);
  for (const std::size_t segment_count : {std::size_t{1}, std::size_t{2}}) {
    const std::span<const EnvironmentSegmentView> segments(timeline.data(),
                                                           segment_count);
    const std::uint64_t distinct = distinct_used_histories(segments);
    ASSERT_GT(distinct, 13u);
    for (const unsigned threads : {1u, 4u}) {
      const std::string what = std::to_string(segment_count) +
                               " segment(s), budget " + std::to_string(threads);
      AgingReportOptions options;
      options.threads = threads;
      model->clear();
      make_aging_report(segments, *model, options);
      // The history and its balanced twin, for any segment count.
      EXPECT_EQ(model->timelines.load(), 2 * distinct) << what;
      model->clear();
      make_lifetime_report(segments, lifetime, threads);
      EXPECT_EQ(model->failures.load(), distinct) << what;
      // Only the best and worst cases are solved outside the table.
      EXPECT_EQ(model->inversions.load(), 2u) << what;
    }
  }
}

TEST(HistoryTable, WideIndexReportsMatchThePerCellReference) {
  // More distinct histories than a uint16_t index holds, then repeats in
  // scrambled order, plus cells unused in one segment or both.
  constexpr std::size_t kDistinct = 70000;
  const std::size_t cells = kDistinct + 30000;
  DutyCycleTracker a(cells);
  DutyCycleTracker b(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const std::size_t source =
        cell < kDistinct ? cell : cell * 7919 % kDistinct;
    const auto s = static_cast<std::uint32_t>(source);
    if (source % 1000 != 999) {
      a.ones_time()[cell] = s;
      a.total_time()[cell] = s + 1000;
    }
    if (source % 500 != 0) {
      b.ones_time()[cell] = s % 301;
      b.total_time()[cell] = 300;
    }
  }
  const std::vector<EnvironmentSegmentView> timeline = {{&a, hot(45.0)},
                                                        {&b, hot(85.0)}};
  const LifetimeModel lifetime(make_aging_model(kDefaultAgingModel));
  for (const std::size_t segment_count : {std::size_t{1}, std::size_t{2}}) {
    const std::span<const EnvironmentSegmentView> segments(timeline.data(),
                                                           segment_count);
    // Ids in whole-state first-seen order, counted the plain way.
    const HistoryTable table(segments);
    EXPECT_EQ(table.index_bytes(), 4u);
    std::map<std::vector<std::uint32_t>, std::uint32_t> first_seen;
    std::size_t mismatches = 0;
    for (std::size_t cell = 0; cell < cells; ++cell) {
      std::vector<std::uint32_t> key;
      for (const EnvironmentSegmentView& segment : segments) {
        key.push_back(segment.tracker->ones_time()[cell]);
        key.push_back(segment.tracker->total_time()[cell]);
      }
      const auto [it, inserted] = first_seen.emplace(
          std::move(key), static_cast<std::uint32_t>(first_seen.size()));
      if (inserted && table.firsts()[it->second] != cell) ++mismatches;
      if (table.id(cell) != it->second) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << segment_count << " segment(s)";
    ASSERT_EQ(table.size(), first_seen.size());
    ASSERT_GT(table.size(), 65536u);

    AgingReportOptions options;
    const std::vector<ReferenceCell> reference =
        reference_cells(segments, lifetime, options.years);
    const std::vector<double> aging_fields =
        reference_aging_fields(reference, options);
    const std::vector<double> life_fields =
        reference_lifetime_fields(reference, lifetime);
    for (const unsigned threads : {1u, 2u, 4u, 0u}) {
      const std::string what = std::to_string(segment_count) +
                               " segment(s), budget " + std::to_string(threads);
      options.threads = threads;
      expect_bit_identical(
          report_fields(make_aging_report(segments, lifetime.model(), options)),
          aging_fields, what + " aging");
      expect_bit_identical(
          lifetime_fields(make_lifetime_report(segments, lifetime, threads)),
          life_fields, what + " lifetime");
    }
  }
}

// ---- Newton inversion --------------------------------------------------------

TEST(NewtonInversion, MatchesBisectionAtUlpScale) {
  // The safeguarded Newton solve and the legacy bracketing bisection must
  // agree to ulp scale: both stop within ~5 ulps of the true crossing, so
  // their difference is bounded by a small multiple of that.
  const PbtiHciDeviceModel model;
  for (const double duty : {0.05, 0.3, 0.5, 0.77, 0.93, 1.0}) {
    for (const double target : {2.0, 5.0, 12.0, 20.0, 26.0, 40.0}) {
      const double newton = model.years_to_reach(duty, target, kNominal);
      const double bisection = util::invert_monotone_bisection(
          [&](double t) { return model.degradation(duty, t, kNominal); },
          target, model.reference_years());
      ASSERT_TRUE(std::isfinite(newton));
      EXPECT_NEAR(newton, bisection, bisection * 1e-13)
          << "duty " << duty << " target " << target;
    }
  }
}

TEST(NewtonInversion, StaysWithinThePinnedEvaluationBudget) {
  // The whole point of the derivative-aware path: ~10 degradation
  // evaluations per solve (bracketing included) where bisection needs 50+.
  // This budget is pinned — a solver regression that starts falling back
  // to bisection shows up here as a budget overrun.
  constexpr int kNewtonEvaluationBudget = 12;
  constexpr int kNewtonSlopeBudget = 6;
  const PbtiHciDeviceModel model;
  for (const double duty : {0.05, 0.3, 0.5, 0.77, 0.93, 1.0}) {
    for (const double target : {2.0, 5.0, 12.0, 20.0, 26.0, 40.0}) {
      util::InvertStats newton;
      util::invert_monotone(
          [&](double t) { return model.degradation(duty, t, kNominal); },
          [&](double t) { return model.degradation_slope(duty, t, kNominal); },
          target, model.reference_years(), &newton);
      EXPECT_LE(newton.evaluations, kNewtonEvaluationBudget)
          << "duty " << duty << " target " << target;
      EXPECT_LE(newton.slope_evaluations, kNewtonSlopeBudget)
          << "duty " << duty << " target " << target;
      util::InvertStats bisection;
      util::invert_monotone_bisection(
          [&](double t) { return model.degradation(duty, t, kNominal); },
          target, model.reference_years(), &bisection);
      EXPECT_GE(bisection.evaluations, 50)
          << "duty " << duty << " target " << target;
    }
  }
}

TEST(NewtonInversion, TimelineSolveAgreesWithBisectionAndReproducesThreshold) {
  const PbtiHciDeviceModel model;
  const std::vector<StressSegment> timeline = {{0.8, 2.0, kNominal},
                                               {0.6, 1.0, hot(95.0)},
                                               {0.9, 1.0, hot(85.0)}};
  for (const double threshold : {10.0, 20.0, 26.0}) {
    const double newton = model.years_to_failure(timeline, threshold);
    ASSERT_TRUE(std::isfinite(newton));
    EXPECT_NEAR(model.degradation_on_timeline(timeline, newton), threshold,
                threshold * 1e-9);
    const double bisection = util::invert_monotone_bisection(
        [&](double t) { return model.degradation_on_timeline(timeline, t); },
        threshold, model.reference_years());
    EXPECT_NEAR(newton, bisection, bisection * 1e-12);
  }
}

TEST(NewtonInversion, UnreachableTargetStillReportsInfinity) {
  EnvironmentSpec gated;
  gated.activity_scale = 0.0;
  const PbtiHciDeviceModel model;
  EXPECT_EQ(model.years_to_reach(0.9, 20.0, gated),
            std::numeric_limits<double>::infinity());
}

TEST(NewtonInversion, PbtiHciOverrideMatchesTheGenericSolverBitForBit) {
  // The pbti-hci override hoists amplitude_terms() out of the iteration;
  // it must return the generic solver's exact double, including the
  // target == 0 (0.0) and unreachable (+inf) edges.
  const PbtiHciDeviceModel model;
  EnvironmentSpec gated;
  gated.activity_scale = 0.0;
  for (const EnvironmentSpec& env : {kNominal, hot(85.0), gated}) {
    for (const double target : {0.0, 20.0, 35.0}) {
      for (int step = 0; step <= 64; ++step) {
        const double duty = step / 64.0;
        const double hoisted = model.years_to_reach(duty, target, env);
        const double generic =
            model.DeviceAgingModel::years_to_reach(duty, target, env);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(hoisted),
                  std::bit_cast<std::uint64_t>(generic))
            << "duty " << duty << " target " << target << " at "
            << env.temperature_c << " C, activity " << env.activity_scale;
      }
    }
  }
}

TEST(DegradationSlope, FiniteDifferenceDefaultMatchesAnalyticOverrides) {
  // A wrapper hiding the concrete type exercises the base-class central
  // finite difference; the analytic overrides must agree to the stencil's
  // truncation error.
  struct OpaqueWrapper final : DeviceAgingModel {
    PbtiHciDeviceModel inner;
    std::string_view name() const noexcept override { return "opaque"; }
    double reference_years() const noexcept override {
      return inner.reference_years();
    }
    double degradation(double duty, double years,
                       const EnvironmentSpec& env) const override {
      return inner.degradation(duty, years, env);
    }
  };
  const OpaqueWrapper wrapper;
  const CalibratedNbtiDeviceModel power_law;
  for (const double duty : {0.1, 0.5, 0.9}) {
    for (const double years : {0.5, 3.0, 7.0, 15.0}) {
      const double analytic =
          wrapper.inner.degradation_slope(duty, years, kNominal);
      const double numeric = wrapper.degradation_slope(duty, years, kNominal);
      EXPECT_NEAR(numeric, analytic, analytic * 1e-8)
          << "pbti-hci duty " << duty << " years " << years;
      // And the power-law analytic slope against its own curve.
      const double h = years * 1e-7;
      const double fd = (power_law.degradation(duty, years + h, kNominal) -
                         power_law.degradation(duty, years - h, kNominal)) /
                        (2.0 * h);
      EXPECT_NEAR(power_law.degradation_slope(duty, years, kNominal), fd,
                  std::abs(fd) * 1e-6)
          << "power-law duty " << duty << " years " << years;
    }
  }
}

TEST(DegradationSlope, NewtonViaFiniteDifferenceMatchesAnalyticSolve) {
  // A model without an analytic slope must still solve correctly (and
  // agree with the analytic-slope solve at ulp scale) through the
  // finite-difference default.
  struct OpaqueWrapper final : DeviceAgingModel {
    PbtiHciDeviceModel inner;
    std::string_view name() const noexcept override { return "opaque"; }
    double reference_years() const noexcept override {
      return inner.reference_years();
    }
    double degradation(double duty, double years,
                       const EnvironmentSpec& env) const override {
      return inner.degradation(duty, years, env);
    }
  };
  const OpaqueWrapper wrapper;
  for (const double duty : {0.2, 0.5, 0.9}) {
    for (const double target : {5.0, 15.0, 26.0}) {
      const double analytic = wrapper.inner.years_to_reach(duty, target, kNominal);
      const double numeric = wrapper.years_to_reach(duty, target, kNominal);
      EXPECT_NEAR(numeric, analytic, analytic * 1e-12)
          << "duty " << duty << " target " << target;
    }
  }
}

}  // namespace
}  // namespace dnnlife::aging
