// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent span, point id). Spans are kept in
// memory while the traced run executes and written out once at the end as
// Chrome trace-event JSON (a plain array; opens in chrome://tracing or
// Perfetto), so recording costs two clock reads and one vector slot.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dnnlife_bench {

struct Span {
  std::string name;
  std::size_t point = 0;     ///< traced point the span belongs to
  std::ptrdiff_t parent = -1;  ///< index of the enclosing span; -1 for a point span
  std::int64_t start_ns = 0;   ///< relative to the recorder's origin
  std::int64_t end_ns = 0;

  double milliseconds() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Open a span now; returns its index for close() and as a parent.
  std::size_t open(std::string name, std::size_t point, std::ptrdiff_t parent);
  void close(std::size_t span);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// The spans as Chrome trace-event JSON: one complete ("X") event per
  /// span, one trace row per point, parent and point in the event args.
  std::string chrome_json() const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction, so a stage
/// that throws still ends its span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::size_t point,
             std::ptrdiff_t parent)
      : recorder_(recorder),
        index_(recorder.open(std::move(name), point, parent)) {}
  ~ScopedSpan() { recorder_.close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t index() const noexcept { return index_; }

 private:
  SpanRecorder& recorder_;
  std::size_t index_;
};

}  // namespace dnnlife_bench
