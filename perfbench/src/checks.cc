#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

using chiron::ClusterConfig;
using chiron::ClusterResult;
using chiron::NodeResult;

std::vector<std::string> check_cluster_result(const ClusterResult& r,
                                              const ClusterConfig& config) {
  std::vector<std::string> errors;
  auto fail = [&errors](const std::string& what) { errors.push_back(what); };

  if (r.offered != r.completed + r.timed_out + r.dropped) {
    fail("conservation: offered " + std::to_string(r.offered) +
         " != completed + timed_out + dropped " +
         std::to_string(r.completed + r.timed_out + r.dropped));
  }
  if (r.node_results.size() != config.nodes) {
    fail("node results: " + std::to_string(r.node_results.size()) +
         " entries for " + std::to_string(config.nodes) + " nodes");
  }
  std::size_t routed = 0, completed = 0, cold = 0, crashes = 0;
  for (const NodeResult& n : r.node_results) {
    routed += n.routed;
    completed += n.completed;
    cold += n.cold_starts;
    crashes += n.node_crashes;
    if (n.peak_queue > r.peak_queue) {
      fail("node peak_queue " + std::to_string(n.peak_queue) +
           " exceeds the cluster-wide peak " + std::to_string(r.peak_queue));
    }
  }
  if (completed != r.completed) {
    fail("node sums: completed " + std::to_string(completed) + " != " +
         std::to_string(r.completed));
  }
  if (cold != r.cold_starts) {
    fail("node sums: cold_starts " + std::to_string(cold) + " != " +
         std::to_string(r.cold_starts));
  }
  if (crashes != r.node_crashes) {
    fail("node sums: node_crashes " + std::to_string(crashes) + " != " +
         std::to_string(r.node_crashes));
  }
  if (routed < r.completed) {
    fail("node sums: routed " + std::to_string(routed) +
         " < completed " + std::to_string(r.completed));
  }
  if (r.latency_stats.count() != r.completed) {
    fail("latency samples " + std::to_string(r.latency_stats.count()) +
         " != completed " + std::to_string(r.completed));
  }
  if (r.dropped > r.failed) {
    fail("dropped " + std::to_string(r.dropped) + " > failed attempts " +
         std::to_string(r.failed));
  }
  for (double stat : {r.mean_ms, r.p50_ms, r.p95_ms, r.p99_ms, r.achieved_rps,
                      r.mean_busy_instances}) {
    if (!std::isfinite(stat) || stat < 0.0) {
      fail("non-finite or negative statistic");
    }
  }
  if (!(r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms)) {
    fail("percentiles out of order: p50 " + exact(r.p50_ms) + ", p95 " +
         exact(r.p95_ms) + ", p99 " + exact(r.p99_ms));
  }
  if (r.completed > 0 && r.p50_ms <= 0.0) fail("p50 is 0 with completions");
  if (!config.faults.enabled() &&
      (r.failed != 0 || r.retried != 0 || r.dropped != 0 ||
       r.node_crashes != 0)) {
    fail("fault activity in a healthy run");
  }
  return errors;
}

std::vector<std::string> check_plan_placement(const chiron::Workflow& wf,
                                              const chiron::WrapPlan& plan) {
  std::vector<std::string> errors;
  if (plan.stages.size() != wf.stage_count()) {
    errors.push_back("plan has " + std::to_string(plan.stages.size()) +
                     " stages, workflow has " +
                     std::to_string(wf.stage_count()));
    return errors;
  }
  std::map<chiron::FunctionId, std::size_t> placed;
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    const auto& members = wf.stage(s).functions;
    for (const chiron::Wrap& w : plan.stages[s].wraps) {
      for (const chiron::ProcessGroup& g : w.processes) {
        for (chiron::FunctionId f : g.functions) {
          ++placed[f];
          if (std::find(members.begin(), members.end(), f) == members.end()) {
            errors.push_back("function " + std::to_string(f) +
                             " placed outside its stage " + std::to_string(s));
          }
        }
      }
    }
  }
  for (chiron::FunctionId f = 0; f < wf.function_count(); ++f) {
    const auto it = placed.find(f);
    const std::size_t n = it == placed.end() ? 0 : it->second;
    if (n != 1) {
      errors.push_back("function " + std::to_string(f) + " placed " +
                       std::to_string(n) + " times");
    }
  }
  if (placed.size() > wf.function_count()) {
    errors.push_back("plan places unknown function ids");
  }
  return errors;
}

std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

std::string fingerprint(const ClusterResult& r) {
  std::string out;
  auto add = [&out](const std::string& field) { out += field + ";"; };
  for (std::size_t v : {r.offered, r.completed, r.cold_starts, r.failed,
                        r.retried, r.timed_out, r.dropped, r.peak_instances,
                        r.peak_queue, r.node_crashes}) {
    add(std::to_string(v));
  }
  for (double v : {r.achieved_rps, r.mean_ms, r.p50_ms, r.p95_ms, r.p99_ms,
                   r.mean_busy_instances, r.latency_stats.mean(),
                   r.latency_stats.variance(), r.latency_stats.min(),
                   r.latency_stats.max()}) {
    add(exact(v));
  }
  add(std::to_string(r.latency_stats.count()));
  for (const NodeResult& n : r.node_results) {
    add(std::to_string(n.routed) + "," + std::to_string(n.completed) + "," +
        std::to_string(n.cold_starts) + "," + std::to_string(n.node_crashes) +
        "," + std::to_string(n.peak_queue));
  }
  return out;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
