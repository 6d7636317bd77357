#include "sim/write_stream.hpp"

namespace dnnlife::sim {

void WriteStream::for_each_write(
    const std::function<void(const RowWriteEvent&)>& visit) const {
  const std::uint64_t writes = writes_per_inference();
  for (std::uint64_t ordinal = 0; ordinal < writes; ++ordinal)
    visit(write_at(ordinal));
}

VectorWriteStream::VectorWriteStream(MemoryGeometry geometry, std::uint32_t blocks)
    : geometry_(geometry), blocks_(blocks) {
  geometry_.validate();
  DNNLIFE_EXPECTS(blocks >= 1, "need at least one block");
}

void VectorWriteStream::add_write(std::uint32_t row, std::uint32_t block,
                                  std::vector<std::uint64_t> words) {
  DNNLIFE_EXPECTS(row < geometry_.rows, "row out of range");
  DNNLIFE_EXPECTS(block < blocks_, "block out of range");
  DNNLIFE_EXPECTS(words.size() == geometry_.words_per_row(), "row word count");
  DNNLIFE_EXPECTS(writes_.empty() || writes_.back().block <= block,
                  "writes must be block-ordered");
  const std::uint32_t tail_bits = geometry_.row_bits % 64;
  if (tail_bits != 0) {
    DNNLIFE_EXPECTS((words.back() & ~util::low_mask(tail_bits)) == 0,
                    "payload bits above row width");
  }
  writes_.push_back(StoredWrite{row, block, std::move(words)});
}

void VectorWriteStream::set_block_durations(std::vector<std::uint32_t> durations) {
  DNNLIFE_EXPECTS(durations.size() == blocks_, "one duration per block");
  for (std::uint32_t d : durations)
    DNNLIFE_EXPECTS(d > 0, "durations must be positive");
  durations_ = std::move(durations);
}

}  // namespace dnnlife::sim
