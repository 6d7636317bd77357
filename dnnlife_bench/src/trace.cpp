#include "trace.hpp"

#include "util/json_writer.hpp"

namespace dnnlife_bench {

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t SpanRecorder::open(std::string name, std::size_t point,
                               std::ptrdiff_t parent) {
  Span span;
  span.name = std::move(name);
  span.point = point;
  span.parent = parent;
  span.start_ns = span.end_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t span) { spans_[span].end_ns = now_ns(); }

std::string SpanRecorder::chrome_json() const {
  using dnnlife::util::json_escape;
  using dnnlife::util::json_number_repr;
  std::string out = "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out += "{\"name\":\"" + json_escape(span.name) +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(span.point) +
           ",\"ts\":" + json_number_repr(static_cast<double>(span.start_ns) * 1e-3) +
           ",\"dur\":" +
           json_number_repr(static_cast<double>(span.end_ns - span.start_ns) * 1e-3) +
           ",\"args\":{\"point\":" + std::to_string(span.point) +
           ",\"parent\":" + std::to_string(span.parent) + "}}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

}  // namespace dnnlife_bench
