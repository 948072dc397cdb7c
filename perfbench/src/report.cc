#include "report.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"host_ops_per_s", "1/s"},    {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},       {"sim_p50_ms", "ms"},
      {"sim_p99_ms", "ms"},         {"sim_goodput_ratio", "ratio"},
      {"plan_cpus", "CPUs"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"host.nproc", "count"},
      {"host.load1_start", "load"},
      {"host.load1_end", "load"},
      {"core.profiler.ms", "ms"},
      {"core.pgp.ms", "ms"},
      {"core.pgp.outer_iterations", "count"},
      {"core.pgp.kl_evaluations", "count"},
      {"core.pgp.predictor_calls", "count"},
      {"core.prediction_cache.hit_ratio", "ratio"},
      {"core.generator.ms", "ms"},
      {"core.deploy.allocs", "count"},
      {"core.deploy.other_ms", "ms"},
      {"core.phase_replay.match_ratio", "ratio"},
      {"core.predictor.err_pct", "%"},
      {"platform.backend.calls", "count"},
      {"platform.backend.ms", "ms"},
      {"platform.backend.share", "ratio"},
      {"platform.backend.us_per_call_p50", "us"},
      {"platform.backend.us_per_call_p99", "us"},
      {"platform.backend.allocs_per_call", "count"},
      {"platform.backend.useful_ratio", "ratio"},
      {"platform.cluster.loop_ms", "ms"},
      {"platform.cluster.loop_ns_per_attempt", "ns"},
      {"platform.cluster.allocs_per_req", "count"},
      {"platform.cluster.sim_windows", "count"},
      {"platform.cluster.sim_transfers", "count"},
      {"platform.cluster.sim_barrier_routed", "count"},
      {"platform.cluster.peak_queue", "count"},
      {"platform.cluster.peak_instances", "count"},
      {"platform.cluster.mean_busy_instances", "count"},
      {"platform.cluster.cold_starts_per_kreq", "count/kreq"},
      {"platform.router.routed_imbalance", "ratio"},
      {"fault.failed", "count"},
      {"fault.retried", "count"},
      {"fault.timed_out", "count"},
      {"fault.dropped", "count"},
      {"fault.node_crashes", "count"},
      {"obs.bench_trace_overhead_pct", "%"},
  };
  return specs;
}

namespace {

/// Text that reads back as exactly `value` (JSON has no NaN or infinity;
/// those print as 0).
std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

const MetricSpec* find_spec(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& s : *list) {
      if (s.name == name) return &s;
    }
  }
  return nullptr;
}

}  // namespace

void MetricSet::set(const std::string& name, double value) {
  if (!find_spec(name)) {
    throw std::invalid_argument("metric '" + name + "' is not catalogued");
  }
  values_[name] = value;
}

void MetricSet::set_absent(const std::string& name) {
  set(name, 0.0);
  absent_.push_back(name);
}

std::vector<std::string> MetricSet::missing(
    const std::vector<MetricSpec>& specs) const {
  std::vector<std::string> out;
  for (const MetricSpec& s : specs) {
    if (!has(s.name)) out.push_back(s.name);
  }
  return out;
}

std::string MetricSet::to_json(const std::vector<MetricSpec>& specs) const {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& s : specs) {
    const auto it = values_.find(s.name);
    if (it == values_.end()) continue;
    out += std::string(first ? "" : ", ") + "\"" + s.name +
           "\": {\"value\": " + json_number(it->second) + ", \"unit\": \"" +
           s.unit + "\"}";
    first = false;
  }
  return out + "}";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::string& metrics_json) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics_json + "}";
}

}  // namespace perfbench
