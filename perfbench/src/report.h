// Metric catalogue and result formatting. The catalogue is the benchmark's
// side of BENCHMARK.json: every name listed there is emitted here with the
// same unit (a test checks that the two agree).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Reported by every workload with tracing off.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by every workload with tracing on.
const std::vector<MetricSpec>& per_layer_metrics();

/// Values of one result, keyed by catalogue name.
class MetricSet {
 public:
  /// Throws std::invalid_argument for a name outside both catalogues.
  void set(const std::string& name, double value);
  /// Marks a per-layer metric whose source is missing from the program
  /// (reported as 0 and listed by absent()).
  void set_absent(const std::string& name);

  bool has(const std::string& name) const { return values_.count(name) > 0; }
  double get(const std::string& name) const { return values_.at(name); }
  const std::vector<std::string>& absent() const { return absent_; }

  /// Names of `specs` this set has no value for.
  std::vector<std::string> missing(const std::vector<MetricSpec>& specs) const;

  /// {"name": {"value": v, "unit": u}, ...} over `specs`, in their order.
  std::string to_json(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> absent_;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::string& metrics_json);

}  // namespace perfbench
