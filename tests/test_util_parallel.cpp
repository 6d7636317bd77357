// The deterministic shard partition and parallel_for_shards.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

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

}  // namespace
}  // namespace dnnlife::util
