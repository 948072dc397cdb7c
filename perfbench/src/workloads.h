// Named-workload registry of the end-to-end benchmark. Each workload sets
// up the real pipeline through public calls only (Chiron::deploy and its
// phase classes, make_system, ClusterSimulator::run), times it from
// outside, checks every output, and reports the metric catalogue of
// report.h: end-to-end metrics from untraced runs, per-layer metrics from
// traced ones.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.h"
#include "span_trace.h"

namespace perfbench {

/// What one invocation measures.
struct RunOptions {
  std::uint64_t seed = 1;
  /// Budget of the timed loop. Two reps run regardless (four when
  /// traced), so every run compares at least two reps of its seed.
  double seconds = 10.0;
  /// Per-layer run: traced and untraced reps alternate, and the per-layer
  /// catalogue is reported instead of the end-to-end one.
  bool trace = false;
  /// Test size: short horizons and only the small workflows.
  bool tiny = false;
  /// now_ns() at process start; the first set-up is timed from here
  /// (0 = from the set-up's own start).
  std::int64_t process_start_ns = 0;
};

struct WorkloadOutcome {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;  ///< timed operations (deploys or runs)
  std::uint64_t failed = 0;     ///< timed operations whose output failed a check
  MetricSet metrics;
  std::vector<std::string> report;  ///< human-readable result lines
  /// Every simulated output of the seed; identical on every rep and
  /// every invocation with the same seed.
  std::string fingerprint;
  SpanTrace trace;  ///< spans of the first traced rep
  double load1_start = -1.0;  ///< host 1-minute load average around the run
  double load1_end = -1.0;

  void fail(const std::string& error) {
    correct = false;
    errors.push_back(error);
  }
};

using WorkloadFunction = std::function<WorkloadOutcome(const RunOptions&)>;

struct Workload {
  std::string name;
  std::string why;
  WorkloadFunction run;
};

/// Adds a workload; returns false when the name is taken.
bool RegisterWorkload(std::string name, std::string why, WorkloadFunction run);

/// Registered names, in registration order.
std::vector<std::string> WorkloadNames();

/// Null for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// Runs `w` and completes its result: host context, and a check that every
/// metric of the run's catalogue was measured.
WorkloadOutcome RunWorkload(const Workload& w, const RunOptions& opts);

/// A seed never used while tuning the benchmark or a change: a later
/// performance claim must also hold with --seed kHeldOutSeed.
inline constexpr std::uint64_t kHeldOutSeed = 424242;

/// Re-measures the configurations of ROADMAP item 1's table (8 nodes,
/// 2000 rps, warm_affinity) with one traced rep each; returns one line
/// per configuration.
std::vector<std::string> run_crosscheck(std::uint64_t seed);

}  // namespace perfbench
