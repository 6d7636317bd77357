// Tests for the history-table report-evaluation pipeline and the Newton
// lifetime inversion.
//
//  * Hash-pinned golden reports for all four built-in aging models at 1, 2
//    and 8 threads, on one-segment and two-segment states: parallel
//    evaluation must be bit-identical to the serial loop, and the serial
//    loop bit-identical to the pre-refactor monolithic one in every field
//    but the mean and variance, which are exact sums over the history
//    tallies (the pins were re-captured once for that change).
//    The pbti-hci lifetime solves are the one intentional exception: the
//    safeguarded Newton inversion replaced blind bisection there, so those
//    hashes pin the Newton results and a separate test bounds the
//    Newton-vs-bisection difference at ulp scale.
//  * History-table tests: whole-state first-seen numbering, per-region
//    tallies whose counts sum to each region's cell count (beyond 256 and
//    65,536 distinct histories too), exactly one model evaluation per
//    distinct used history per report, whole-report bit identity with a
//    per-cell reference loop over repeated, unused and all-distinct
//    histories, and bit identity under any shuffle of the cells inside
//    their regions and any budget.
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
#include <numeric>
#include <random>
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

/// Captured from the pre-refactor monolithic per-cell loops, with means and
/// variances re-captured from the exact tally fold, except the
/// three pbti-hci entries marked Newton: the pbti-hci lifetime solves (and
/// the inner equivalent-time inversions of its multi-segment composition)
/// now run safeguarded Newton, whose results differ from bisection's
/// midpoint in the last ~dozen ulps (bounded by NewtonMatchesBisection
/// below). Everything else — all power-law models everywhere, and the
/// pbti-hci degradation-only legacy report — is pinned to pre-refactor
/// bits.
const std::vector<ModelPins> kPins = {
    {"calibrated-nbti", 0xb769fe0e64c72ae4ULL, 0xa8363bff977dd051ULL,
     0x2ba74d04f6fea91fULL, 0x63cfd7ce46a13cccULL},
    {"arrhenius-nbti", 0xb769fe0e64c72ae4ULL, 0xa8363bff977dd051ULL,
     0xed0058a0e3ee8e32ULL, 0xd50e1a576dac6ca9ULL},
    {"pbti-hci", 0x2265ae92590b347bULL,
     0x6d461ee5ec6e3f2dULL /* Newton */, 0x8f89f060fe5fa462ULL /* Newton */,
     0xe2f82979c3f0759cULL /* Newton */},
    {"dual-bti", 0x8a3ceb73ef255b71ULL, 0x5ed1adbfceb5d089ULL,
     0xab213ae20fc29754ULL, 0x82089561388f5bcdULL},
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

TEST(ReportEvaluator, TalliesResolveEveryCellToItsHistoryForAnyBudget) {
  // Cell counts within one chunk of histories and across several; cells
  // of equal cell * cell % 7 share one history, so the tallies must count
  // every cell once, under the id whose value is its history's.
  for (const std::size_t cells :
       {std::size_t{37}, 5 * ReportEvaluator::kChunk + 37}) {
    DutyCycleTracker tracker(cells);
    std::map<std::size_t, std::uint64_t> expected;
    for (std::size_t cell = 0; cell < cells; ++cell) {
      tracker.ones_time()[cell] = static_cast<std::uint32_t>(cell * cell % 7);
      tracker.total_time()[cell] = 7;
      ++expected[cell * cell % 7];
    }
    const EnvironmentSegmentView segment{&tracker, kNominal};
    const HistoryTable table({&segment, 1});
    ASSERT_EQ(table.size(), 4u);  // the squares mod 7: 0, 1, 2, 4
    ASSERT_EQ(table.region_count(), 1u);
    for (const unsigned threads : {1u, 2u, 3u, 8u, 64u}) {
      const std::vector<std::size_t> values =
          ReportEvaluator(threads).evaluate<std::size_t>(table.size(), [&] {
            return [&](std::size_t begin, std::size_t end,
                       std::span<std::size_t> out) {
              for (std::size_t id = begin; id < end; ++id)
                out[id - begin] = tracker.ones_time()[table.firsts()[id]];
            };
          });
      std::map<std::size_t, std::uint64_t> counted;
      for (const HistoryTable::Tally& tally : table.tallies(0))
        counted[values[tally.id]] += tally.cells;
      EXPECT_EQ(counted, expected) << threads << " threads";
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

/// report_fields() of the report a per-cell loop folds, one exact add per
/// used cell in cell order.
std::vector<double> reference_aging_fields(
    const std::vector<ReferenceCell>& cells,
    const AgingReportOptions& options) {
  util::Histogram histogram(options.hist_lo, options.hist_hi,
                            options.hist_bins);
  util::ExactMoments snm;
  util::ExactMoments duty;
  std::uint64_t used = 0;
  std::uint64_t optimal = 0;
  for (const ReferenceCell& cell : cells) {
    if (!cell.used) continue;
    ++used;
    histogram.add(cell.snm);
    snm.add(cell.snm, 1);
    duty.add(cell.duty, 1);
    if (cell.snm <= cell.optimal + options.optimal_tolerance) ++optimal;
  }
  const util::RunningStats snm_stats = snm.stats();
  const util::RunningStats duty_stats = duty.stats();
  std::vector<double> fields = {
      snm_stats.mean(),  snm_stats.min(),  snm_stats.max(),
      snm_stats.variance(), duty_stats.mean(), duty_stats.min(),
      duty_stats.max(),  duty_stats.variance(),
      used == 0 ? 0.0
                : static_cast<double>(optimal) / static_cast<double>(used),
      static_cast<double>(cells.size()),
      static_cast<double>(cells.size() - used)};
  for (std::size_t b = 0; b < histogram.bin_count(); ++b)
    fields.push_back(histogram.fraction_in_bin(b));
  return fields;
}

/// lifetime_fields() of the report a per-cell loop folds.
std::vector<double> reference_lifetime_fields(
    const std::vector<ReferenceCell>& cells, const LifetimeModel& lifetime) {
  util::ExactMoments moments;
  double device = 0.0;
  for (const ReferenceCell& cell : cells) {
    if (!cell.used) continue;
    if (moments.count() == 0 || cell.years < device) device = cell.years;
    moments.add(cell.years, 1);
  }
  const util::RunningStats years = moments.stats();
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

/// A cell's history key: its (ones, total) counters in every segment.
std::vector<std::uint32_t> history_key(
    std::span<const EnvironmentSegmentView> segments, std::size_t cell) {
  std::vector<std::uint32_t> key;
  for (const EnvironmentSegmentView& segment : segments) {
    key.push_back(segment.tracker->ones_time()[cell]);
    key.push_back(segment.tracker->total_time()[cell]);
  }
  return key;
}

using HistoryCounts = std::map<std::vector<std::uint32_t>, std::uint64_t>;

/// Cells per history key in [begin, end), counted the plain way.
HistoryCounts counted_histories(std::span<const EnvironmentSegmentView> segments,
                                std::size_t begin, std::size_t end) {
  HistoryCounts counts;
  for (std::size_t cell = begin; cell < end; ++cell)
    ++counts[history_key(segments, cell)];
  return counts;
}

/// Region `region`'s tallies of `table` as cells per history key; every id
/// must appear at most once per region, with at least one cell.
HistoryCounts tallied_histories(const HistoryTable& table,
                                std::span<const EnvironmentSegmentView> segments,
                                std::size_t region) {
  HistoryCounts counts;
  std::set<std::uint32_t> ids;
  for (const HistoryTable::Tally& tally : table.tallies(region)) {
    EXPECT_LT(tally.id, table.size());
    EXPECT_TRUE(ids.insert(tally.id).second) << "id " << tally.id << " twice";
    EXPECT_GT(tally.cells, 0u);
    counts[history_key(segments, table.firsts()[tally.id])] += tally.cells;
  }
  return counts;
}

/// Every region's tallies of `table` against a plain count over the cells
/// of `segments`' region tags (one region of every cell when untagged).
void expect_tallies_match(const HistoryTable& table,
                          std::span<const EnvironmentSegmentView> segments) {
  const std::vector<CellRegion>& tags = segments.front().tracker->regions();
  const std::size_t cells = segments.front().tracker->cell_count();
  ASSERT_EQ(table.region_count(), tags.empty() ? 1u : tags.size());
  for (std::size_t r = 0; r < table.region_count(); ++r) {
    const std::size_t begin = tags.empty() ? 0 : tags[r].cell_begin;
    const std::size_t end = tags.empty() ? cells : tags[r].cell_end;
    std::uint64_t tallied = 0;
    for (const HistoryTable::Tally& tally : table.tallies(r))
      tallied += tally.cells;
    EXPECT_EQ(tallied, end - begin) << "region " << r;
    EXPECT_EQ(tallied_histories(table, segments, r),
              counted_histories(segments, begin, end))
        << "region " << r;
  }
}

TEST(HistoryTable, NumbersDistinctHistoriesInWholeStateFirstSeenOrder) {
  auto [a, b] = history_trackers();
  const std::vector<EnvironmentSegmentView> segments = {{&a, kNominal},
                                                        {&b, hot(85.0)}};
  const HistoryTable table(segments);
  ASSERT_EQ(table.cell_count(), a.cell_count());
  // The all-distinct prefix: every cell is its own first, then the 13
  // repeating histories, numbered by first appearance across the state.
  ASSERT_EQ(table.size(), kBlock + 13);
  const std::span<const std::size_t> firsts = table.firsts();
  for (std::size_t id = 0; id < table.size(); ++id) EXPECT_EQ(firsts[id], id);
  expect_tallies_match(table, segments);
  // One segment: the prefix's segment-a histories are still distinct, and
  // the repeating part has one history per distinct segment-a counter
  // pair (j = 7 and j = 11 are both unused there).
  const HistoryTable single({segments.data(), 1});
  EXPECT_EQ(single.size(), kBlock + 12);
  expect_tallies_match(single, {segments.data(), 1});
  // Tagged regions: one tally list per region, ids still whole-state.
  const std::vector<CellRegion> regions = {
      CellRegion{"prefix", 0, kBlock - 5}, CellRegion{"mixed", kBlock - 5, kBlock + 100},
      CellRegion{"rest", kBlock + 100, a.cell_count()}};
  a.set_regions(regions);
  b.set_regions(regions);
  const HistoryTable tagged(segments);
  EXPECT_EQ(tagged.size(), table.size());
  expect_tallies_match(tagged, segments);
  // A table answers only for the state shape it was built from.
  const LifetimeModel lifetime;
  EXPECT_THROW(make_aging_report(segments, single, lifetime.model()),
               std::invalid_argument);
  EXPECT_THROW(make_lifetime_report({segments.data(), 1}, table, lifetime),
               std::invalid_argument);
  EXPECT_THROW(make_aging_report(segments, table, lifetime.model()),
               std::invalid_argument);
}

TEST(HistoryTable, TallyCountsSumToEachRegionsCellCount) {
  // Up to and past 256 and 65,536 distinct histories, untagged and in
  // four uneven regions: every region's counts sum to its cell count and
  // match a plain count.
  for (const std::size_t distinct :
       {std::size_t{1}, std::size_t{256}, std::size_t{257},
        std::size_t{65537}}) {
    const std::size_t cells = 3 * distinct + 5;
    DutyCycleTracker tracker(cells);
    for (std::size_t cell = 0; cell < cells; ++cell) {
      tracker.ones_time()[cell] = static_cast<std::uint32_t>(cell % distinct);
      tracker.total_time()[cell] = 1000;
    }
    const EnvironmentSegmentView segment{&tracker, kNominal};
    const HistoryTable table({&segment, 1});
    ASSERT_EQ(table.size(), distinct);
    expect_tallies_match(table, {&segment, 1});
    tracker.set_regions({CellRegion{"a", 0, 1}, CellRegion{"b", 1, cells / 3},
                         CellRegion{"c", cells / 3, cells - 2},
                         CellRegion{"d", cells - 2, cells}});
    const HistoryTable tagged({&segment, 1});
    ASSERT_EQ(tagged.size(), distinct);
    expect_tallies_match(tagged, {&segment, 1});
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

/// Every field of `report` and of its regions.
std::vector<double> all_aging_fields(const AgingReport& report) {
  std::vector<double> fields = report_fields(report);
  for (const RegionAging& region : report.regions)
    fields.insert(fields.end(),
                  {static_cast<double>(region.total_cells),
                   static_cast<double>(region.unused_cells),
                   region.snm_stats.mean(), region.snm_stats.variance(),
                   region.snm_stats.min(), region.snm_stats.max(),
                   region.duty_stats.mean(), region.duty_stats.variance(),
                   region.duty_stats.min(), region.duty_stats.max(),
                   region.fraction_optimal});
  return fields;
}

std::vector<double> all_lifetime_fields(const LifetimeReport& report) {
  std::vector<double> fields = lifetime_fields(report);
  for (const RegionLifetime& region : report.regions)
    fields.insert(fields.end(),
                  {region.device_lifetime_years, region.cell_lifetime.mean(),
                   region.cell_lifetime.variance(), region.cell_lifetime.min(),
                   region.cell_lifetime.max(),
                   static_cast<double>(region.cell_lifetime.count())});
  return fields;
}

TEST(ReportEvaluatorMemo, ShufflingCellsWithinRegionsKeepsEveryBit) {
  // The same multiset of histories per region in another cell order
  // renumbers the ids and reorders the tallies; the exact moments must
  // not notice, at any budget.
  auto [a, b] = history_trackers();
  const std::size_t cells = a.cell_count();
  const std::vector<CellRegion> regions = {
      CellRegion{"low", 0, 3000}, CellRegion{"mid", 3000, 8000},
      CellRegion{"high", 8000, cells}};
  a.set_regions(regions);
  b.set_regions(regions);
  DutyCycleTracker shuffled_a = a;
  DutyCycleTracker shuffled_b = b;
  std::mt19937_64 rng(24);
  for (const CellRegion& region : regions) {
    std::vector<std::size_t> order(region.cell_end - region.cell_begin);
    std::iota(order.begin(), order.end(), region.cell_begin);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::size_t to = region.cell_begin + i;
      for (auto [from, into] : {std::pair{&a, &shuffled_a}, std::pair{&b, &shuffled_b}}) {
        into->ones_time()[to] = from->ones_time()[order[i]];
        into->total_time()[to] = from->total_time()[order[i]];
      }
    }
  }
  const std::vector<EnvironmentSegmentView> timeline = {{&a, hot(45.0)},
                                                        {&b, hot(85.0)}};
  const std::vector<EnvironmentSegmentView> shuffled = {
      {&shuffled_a, hot(45.0)}, {&shuffled_b, hot(85.0)}};
  for (const ModelPins& pins : kPins) {
    const LifetimeModel lifetime(make_aging_model(pins.model));
    for (const std::size_t segment_count : {std::size_t{1}, std::size_t{2}}) {
      const std::span<const EnvironmentSegmentView> original(timeline.data(),
                                                             segment_count);
      const std::span<const EnvironmentSegmentView> moved(shuffled.data(),
                                                          segment_count);
      AgingReportOptions options;
      const std::vector<double> aging =
          all_aging_fields(make_aging_report(original, lifetime.model(), options));
      const std::vector<double> life =
          all_lifetime_fields(make_lifetime_report(original, lifetime, 1));
      for (const unsigned threads : {1u, 4u}) {
        options.threads = threads;
        const std::string what = std::string(pins.model) + ", " +
                                 std::to_string(segment_count) +
                                 " segment(s), budget " + std::to_string(threads);
        expect_bit_identical(
            all_aging_fields(make_aging_report(moved, lifetime.model(), options)),
            aging, what + " aging");
        expect_bit_identical(
            all_lifetime_fields(make_lifetime_report(moved, lifetime, threads)),
            life, what + " lifetime");
      }
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
  // More than 65,536 distinct histories, then repeats in scrambled order,
  // plus cells unused in one segment or both.
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
    std::map<std::vector<std::uint32_t>, std::uint32_t> first_seen;
    std::size_t mismatches = 0;
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const auto [it, inserted] = first_seen.emplace(
          history_key(segments, cell),
          static_cast<std::uint32_t>(first_seen.size()));
      if (inserted && table.firsts()[it->second] != cell) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << segment_count << " segment(s)";
    ASSERT_EQ(table.size(), first_seen.size());
    ASSERT_GT(table.size(), 65536u);
    expect_tallies_match(table, segments);

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
