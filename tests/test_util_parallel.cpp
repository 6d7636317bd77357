// The deterministic shard partition, parallel_for_shards, and the parallel
// experiment runner (Workbench::evaluate_all vs sequential evaluate).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "util/executor.hpp"

namespace dnnlife::util {
namespace {

TEST(ShardRange, PartitionsExactlyAndDeterministically) {
  for (const std::uint64_t n : {0ULL, 1ULL, 7ULL, 64ULL, 1000ULL}) {
    for (const unsigned shards : {1u, 2u, 3u, 7u, 16u}) {
      std::uint64_t covered = 0;
      std::uint64_t expected_begin = 0;
      for (unsigned s = 0; s < shards; ++s) {
        const auto [begin, end] = shard_range(n, shards, s);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        covered += end - begin;
        expected_begin = end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(ParallelForShards, CoversEveryIndexOnce) {
  for (const unsigned threads : {1u, 2u, 5u}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for_shards(hits.size(), threads,
                        [&](unsigned, std::uint64_t begin, std::uint64_t end) {
                          for (std::uint64_t i = begin; i < end; ++i)
                            hits[i].fetch_add(1);
                        });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForShards, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for_shards(100, 4,
                          [](unsigned, std::uint64_t begin, std::uint64_t) {
                            if (begin == 0)
                              throw std::invalid_argument("shard failed");
                          }),
      std::invalid_argument);
}

TEST(WorkbenchEvaluateAll, MatchesSequentialEvaluateBitExactly) {
  core::ExperimentConfig config;
  config.network = "custom_mnist";
  config.baseline.weight_memory_bytes = 8 * 1024;
  config.inferences = 10;
  const core::Workbench bench(config);
  const std::vector<core::PolicyConfig> policies{
      core::PolicyConfig::none(), core::PolicyConfig::inversion(),
      core::PolicyConfig::barrel_shifter(8), core::PolicyConfig::dnn_life(0.5)};
  const auto parallel_reports = bench.evaluate_all(policies, 4);
  ASSERT_EQ(parallel_reports.size(), policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto sequential = bench.evaluate(policies[i]);
    EXPECT_EQ(parallel_reports[i].total_cells, sequential.total_cells);
    EXPECT_EQ(parallel_reports[i].unused_cells, sequential.unused_cells);
    EXPECT_EQ(parallel_reports[i].duty_stats.mean(),
              sequential.duty_stats.mean());
    EXPECT_EQ(parallel_reports[i].snm_stats.mean(),
              sequential.snm_stats.mean());
    EXPECT_EQ(parallel_reports[i].fraction_optimal,
              sequential.fraction_optimal);
  }
}

}  // namespace
}  // namespace dnnlife::util
