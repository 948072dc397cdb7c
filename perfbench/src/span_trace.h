// The benchmark's own span recorder. Spans are recorded around calls into
// the program's layers (never inside it): name, start, end and the span
// that was open when it began. They stay in memory; write_chrome_json()
// dumps them when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;   ///< id from SpanTrace::intern()
  std::int32_t parent = -1; ///< index of the enclosing span, -1 at the root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanTrace {
 public:
  /// Returns the id of `name`, adding it on first use.
  std::uint32_t intern(const std::string& name);

  /// Opens a span under the innermost open span; returns its index.
  std::int32_t begin(std::uint32_t name);
  void end(std::int32_t index);

  /// Records an already-measured span under the innermost open span.
  void add(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns);

  void reserve(std::size_t spans) { spans_.reserve(spans); }
  void clear();

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of every span called `name`, in ms.
  double total_ms(const std::string& name) const;
  /// Durations of every span called `name`, in ns, in record order.
  std::vector<std::int64_t> durations_ns(const std::string& name) const;
  /// A span's duration minus the time its direct children cover, in ms.
  double self_ms(std::int32_t index) const;

  /// Writes the first `max_spans` spans as Chrome trace-event JSON;
  /// returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path, std::size_t max_spans) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null trace records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, std::uint32_t name)
      : trace_(trace), index_(trace ? trace->begin(name) : -1) {}
  ~ScopedSpan() {
    if (trace_) trace_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  std::int32_t index_;
};

}  // namespace perfbench
