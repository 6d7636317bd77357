// The weight-memory write stream abstraction.
//
// One inference of a fixed network on a fixed accelerator produces a
// deterministic sequence of row writes (paper Sec. III-B: with the same
// dataflow, a cell sees only K different bits per inference). The stream
// is random-access: write_at(i) is the i-th write of that sequence, so
// both aging simulators read each write by its ordinal, as often and in
// whatever order they need, without copying one inference's payloads.
// The accelerator models implement it over their shared EncodedRows.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/memory_geometry.hpp"

namespace dnnlife::sim {

/// One write of a full memory row during an inference.
struct RowWriteEvent {
  std::uint32_t row = 0;    ///< destination memory row
  std::uint32_t block = 0;  ///< mapping-slot index k within the inference
  /// Row payload, words_per_row() little-endian 64-bit words; bits above
  /// row_bits are zero.
  std::span<const std::uint64_t> words;
};

class WriteStream {
 public:
  virtual ~WriteStream() = default;

  virtual MemoryGeometry geometry() const = 0;

  /// K: the number of mapping slots (equal-residency periods) per inference.
  virtual std::uint32_t blocks_per_inference() const = 0;

  /// Total row writes per inference.
  virtual std::uint64_t writes_per_inference() const = 0;

  /// The ordinal-th write of one inference in temporal order (block-major),
  /// for ordinal < writes_per_inference(). A pure function of the ordinal,
  /// safe to call concurrently; the returned words stay valid for the
  /// stream's lifetime.
  virtual RowWriteEvent write_at(std::uint64_t ordinal) const = 0;

  /// Visit write_at(0), write_at(1), ... write_at(writes_per_inference() - 1).
  void for_each_write(
      const std::function<void(const RowWriteEvent&)>& visit) const;

  /// Relative residency duration of each mapping slot. Empty (the
  /// default) means uniform durations — the paper's assumption (b). When
  /// non-empty the vector has blocks_per_inference() entries of positive
  /// weights; the simulators weight duty-cycle time by them (the
  /// compute-proportional residency extension, Sec. III-C relaxation).
  virtual std::vector<std::uint32_t> block_durations() const { return {}; }
};

/// In-memory write stream (tests and small experiments).
class VectorWriteStream final : public WriteStream {
 public:
  VectorWriteStream(MemoryGeometry geometry, std::uint32_t blocks);

  /// Append a write; blocks must be appended in non-decreasing order.
  void add_write(std::uint32_t row, std::uint32_t block,
                 std::vector<std::uint64_t> words);

  /// Override the per-block residency durations (must have blocks_per_
  /// inference() positive entries).
  void set_block_durations(std::vector<std::uint32_t> durations);
  std::vector<std::uint32_t> block_durations() const override {
    return durations_;
  }

  MemoryGeometry geometry() const override { return geometry_; }
  std::uint32_t blocks_per_inference() const override { return blocks_; }
  std::uint64_t writes_per_inference() const override { return writes_.size(); }
  RowWriteEvent write_at(std::uint64_t ordinal) const override {
    const StoredWrite& write = writes_[ordinal];
    return RowWriteEvent{write.row, write.block, write.words};
  }

 private:
  struct StoredWrite {
    std::uint32_t row;
    std::uint32_t block;
    std::vector<std::uint64_t> words;
  };
  MemoryGeometry geometry_;
  std::uint32_t blocks_;
  std::vector<StoredWrite> writes_;
  std::vector<std::uint32_t> durations_;
};

}  // namespace dnnlife::sim
