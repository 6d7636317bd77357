// The WriteStream contract: write_at(i) is the i-th write of one inference,
// for_each_write visits exactly write_at(0 ... writes_per_inference() - 1),
// and the simulators need nothing of a stream beyond that interface — a
// stream type they have never seen gives the same trackers bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/fast_simulator.hpp"
#include "core/reference_simulator.hpp"
#include "dnn/model_zoo.hpp"
#include "quant/word_codec.hpp"
#include "sim/accelerator.hpp"
#include "sim/tpu_npu.hpp"
#include "sim/write_stream.hpp"
#include "util/bitops.hpp"

namespace dnnlife::sim {
namespace {

/// A 6x96 memory over 5 blocks: repeated rows, a same-block rewrite and a
/// row never written.
VectorWriteStream make_vector_stream() {
  VectorWriteStream stream(MemoryGeometry{6, 96}, 5);
  const std::vector<std::uint64_t> a{0x0123456789abcdefULL, 0x55aa55aaULL};
  const std::vector<std::uint64_t> b{0xdeadbeefcafef00dULL, 0xffff0000ULL};
  const std::vector<std::uint64_t> ones{~0ULL, util::low_mask(32)};
  stream.add_write(0, 0, a);
  stream.add_write(1, 0, b);
  stream.add_write(2, 1, ones);
  stream.add_write(2, 1, a);
  stream.add_write(0, 2, b);
  stream.add_write(4, 3, ones);
  stream.add_write(1, 4, a);
  stream.set_block_durations({3, 1, 4, 2, 5});
  return stream;
}

/// A stream type outside the library: every call forwards to `inner`.
class ForwardingStream final : public WriteStream {
 public:
  explicit ForwardingStream(const WriteStream& inner) : inner_(inner) {}
  MemoryGeometry geometry() const override { return inner_.geometry(); }
  std::uint32_t blocks_per_inference() const override {
    return inner_.blocks_per_inference();
  }
  std::uint64_t writes_per_inference() const override {
    return inner_.writes_per_inference();
  }
  RowWriteEvent write_at(std::uint64_t ordinal) const override {
    return inner_.write_at(ordinal);
  }
  std::vector<std::uint32_t> block_durations() const override {
    return inner_.block_durations();
  }

 private:
  const WriteStream& inner_;
};

void expect_for_each_write_matches_write_at(const WriteStream& stream,
                                            const std::string& label) {
  std::uint64_t ordinal = 0;
  stream.for_each_write([&](const RowWriteEvent& event) {
    ASSERT_LT(ordinal, stream.writes_per_inference()) << label;
    const RowWriteEvent expected = stream.write_at(ordinal);
    EXPECT_EQ(event.row, expected.row) << label << " write " << ordinal;
    EXPECT_EQ(event.block, expected.block) << label << " write " << ordinal;
    EXPECT_TRUE(std::equal(event.words.begin(), event.words.end(),
                           expected.words.begin(), expected.words.end()))
        << label << " write " << ordinal;
    EXPECT_EQ(event.words.size(), stream.geometry().words_per_row()) << label;
    ++ordinal;
  });
  EXPECT_EQ(ordinal, stream.writes_per_inference()) << label;
}

TEST(WriteStreamContract, ForEachWriteVisitsWriteAtInOrder) {
  expect_for_each_write_matches_write_at(make_vector_stream(), "vector");
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  for (const quant::WeightFormat format :
       {quant::WeightFormat::kInt8Symmetric, quant::WeightFormat::kFloat32}) {
    const quant::WeightWordCodec codec(streamer, format);
    const std::string name = format == quant::WeightFormat::kFloat32
                                 ? "float32"
                                 : "int8";
    expect_for_each_write_matches_write_at(BaselineWeightStream(codec),
                                           "baseline " + name);
    expect_for_each_write_matches_write_at(NpuWeightStream(codec),
                                           "npu " + name);
  }
}

std::vector<core::PolicyConfig> all_policies() {
  return {core::PolicyConfig::none(), core::PolicyConfig::inversion(),
          core::PolicyConfig::barrel_shifter(8),
          core::PolicyConfig::dnn_life(0.5)};
}

void expect_same_tracker(const aging::DutyCycleTracker& foreign,
                         const aging::DutyCycleTracker& in_tree,
                         const std::string& label) {
  EXPECT_EQ(foreign.ones_time(), in_tree.ones_time()) << label;
  EXPECT_EQ(foreign.total_time(), in_tree.total_time()) << label;
}

TEST(WriteStreamContract, ForeignStreamTypeMatchesInTreeStream) {
  const VectorWriteStream vector_stream = make_vector_stream();
  const dnn::Network network = dnn::make_custom_mnist();
  const dnn::WeightStreamer streamer(network);
  const quant::WeightWordCodec codec(streamer,
                                     quant::WeightFormat::kInt8Symmetric);
  BaselineAcceleratorConfig small;
  small.weight_memory_bytes = 16 * 1024;
  const BaselineWeightStream baseline(codec, small);

  for (const WriteStream* in_tree :
       {static_cast<const WriteStream*>(&vector_stream),
        static_cast<const WriteStream*>(&baseline)}) {
    const ForwardingStream foreign(*in_tree);
    const std::string stream_label =
        in_tree == &vector_stream ? "vector" : "baseline";
    for (const core::PolicyConfig& policy : all_policies()) {
      const std::string label = stream_label + " " + policy.name();
      for (const unsigned threads : {1u, 4u}) {
        const core::FastSimOptions options{6, threads};
        expect_same_tracker(core::simulate_fast(foreign, policy, options),
                            core::simulate_fast(*in_tree, policy, options),
                            label + " fast threads=" + std::to_string(threads));
      }
      const core::ReferenceSimOptions options{3, true};
      expect_same_tracker(core::simulate_reference(foreign, policy, options),
                          core::simulate_reference(*in_tree, policy, options),
                          label + " reference");
    }
  }
}

}  // namespace
}  // namespace dnnlife::sim
