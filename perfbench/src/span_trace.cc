#include "span_trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint32_t SpanTrace::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanTrace::begin(std::uint32_t name) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, now_ns(), 0});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanTrace::end(std::int32_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span trace: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

void SpanTrace::add(std::uint32_t name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, start_ns, end_ns});
}

void SpanTrace::clear() {
  spans_.clear();
  open_.clear();
}

double SpanTrace::total_ms(const std::string& name) const {
  std::int64_t total = 0;
  for (std::int64_t d : durations_ns(name)) total += d;
  return static_cast<double>(total) / 1e6;
}

std::vector<std::int64_t> SpanTrace::durations_ns(
    const std::string& name) const {
  std::vector<std::int64_t> out;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  const auto id = static_cast<std::uint32_t>(it - names_.begin());
  for (const Span& s : spans_) {
    if (s.name == id) out.push_back(s.duration_ns());
  }
  return out;
}

double SpanTrace::self_ms(std::int32_t index) const {
  const Span& span = spans_.at(static_cast<std::size_t>(index));
  std::int64_t children = 0;
  // Children are recorded after their parent, and the benchmark's spans
  // are sequential, so they never overlap one another.
  for (std::size_t i = static_cast<std::size_t>(index) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == index) children += spans_[i].duration_ns();
  }
  return static_cast<double>(span.duration_ns() - children) / 1e6;
}

bool SpanTrace::write_chrome_json(const std::string& path,
                                  std::size_t max_spans) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::size_t n = std::min(max_spans, spans_.size());
  const std::int64_t origin = n > 0 ? spans_.front().start_ns : 0;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_recorded\":"
      << spans_.size() << ",\"spans_written\":" << n << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << names_[s.name]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.duration_ns()) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
