// Oracle and invariants for the one serving engine.
//
// ClusterSpecParityTest: ClusterSimulator::run_prepared must return
// exactly the ClusterResult of the sequential model spec
// (tests/support/cluster_spec.h) on the same inputs — every field
// compared bitwise, node_results included — at 1, 2, 8 and 32 nodes
// under every router policy, with cold-start/crash storms, node crashes
// re-routing queues mid-run, retries with zero, full and partial jitter,
// and tight timeouts. The spec follows the model's Rng order and
// accounting points but shares none of the engine's data structures (the
// lazy arrival merge, the timeout ring, the tombstoned rings, the slab
// event queue), so the sweeps check those structures against a plain
// rendering of the model. Each engine run also feeds a metrics registry
// and the flight recorder, which must not perturb it, and must satisfy
// check_cluster_invariants.
//
// Conservation is exact only when a deadline is armed: without one, a
// request stranded in a queue ends the run with no terminal state, in
// the engine and the spec alike (neither may "fix" it alone).
//
// ClusterParityTest: the same spec check over the single-node draw
// space that predates sharding, plus run() against run_prepared.
//
// ClusterInvariantTest: randomized multi-node runs satisfy the run
// invariants and are exactly reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "platform/cluster.h"
#include "platform/systems.h"
#include "support/cluster_invariants.h"
#include "support/cluster_spec.h"
#include "support/constant_backend.h"
#include "support/quiet_options.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

using testsupport::check_cluster_invariants;
using testsupport::quiet_options;
using testsupport::serve_spec;

/// The four backends every sweep cycles through: Faastlane serving SLApp,
/// tiny capacity (forces deep queues), memory-only capacity, and the
/// zero-resource degenerate that clamps to one instance per node.
class SweepBackends {
 public:
  explicit SweepBackends(const SystemOptions& opts)
      : system_(make_system("Faastlane", make_slapp(), opts)),
        tiny_capacity_(45.0, half_node(opts.params)),
        memory_bound_(25.0, third_of_memory(opts.params)),
        zero_capacity_(10.0, ResourceUsage{}) {}

  const Backend& operator[](int i) const {
    const Backend* backends[] = {system_.get(), &tiny_capacity_,
                                 &memory_bound_, &zero_capacity_};
    return *backends[i % 4];
  }

 private:
  static ResourceUsage half_node(const RuntimeParams& params) {
    ResourceUsage usage;
    usage.cpus = static_cast<double>(params.node_cpus) / 2.0;
    usage.memory_mb = params.node_memory_mb / 2.0;
    return usage;
  }
  static ResourceUsage third_of_memory(const RuntimeParams& params) {
    ResourceUsage usage;
    usage.cpus = 0.0;
    usage.memory_mb = params.node_memory_mb / 3.0;
    return usage;
  }

  std::unique_ptr<Backend> system_;
  testsupport::ConstantBackend tiny_capacity_;
  testsupport::ConstantBackend memory_bound_;
  testsupport::ConstantBackend zero_capacity_;
};

constexpr RouterPolicy kPolicies[] = {
    RouterPolicy::kRoundRobin, RouterPolicy::kRandom,
    RouterPolicy::kLeastOutstanding, RouterPolicy::kPowerOfTwo,
    RouterPolicy::kWarmAffinity};

/// Pre-generates the arrival process exactly as ClusterSimulator::run()
/// does, so engine and spec consume byte-identical inputs (and the same
/// request-id base, which ClusterResult::operator== compares).
std::vector<TimeMs> arrivals_for(const ClusterConfig& config) {
  Rng rng(config.seed);
  ArrivalGenerator arrivals(config.arrivals, config.offered_rps, rng.split());
  return arrivals.generate(config.horizon_ms);
}

/// One randomized cluster/fault/retry/timeout configuration, always
/// sharded, with node crashes armed in half of the faulted runs. The draw
/// space deliberately includes the nasty edges: keep_alive == 0 (instant
/// reaping), tight timeouts (deep-queue abandonment), crash and
/// cold-start storms, and retry exhaustion.
ClusterConfig random_multi_node_config(Rng& rng, std::uint64_t case_seed) {
  ClusterConfig config;
  const std::size_t node_choices[] = {2, 8, 32};
  config.nodes = node_choices[rng.below(3)];
  config.horizon_ms = 1500.0 + rng.uniform(0.0, 2000.0);
  config.offered_rps = 5.0 + rng.uniform(0.0, 120.0);
  const TimeMs keep_alive_choices[] = {0.0, 5.0, 200.0, 10000.0};
  config.keep_alive_ms = keep_alive_choices[rng.below(4)];
  const ArrivalKind kinds[] = {ArrivalKind::kPoisson, ArrivalKind::kUniform,
                               ArrivalKind::kBurst};
  config.arrivals = kinds[rng.below(3)];
  config.seed = case_seed;
  if (rng.below(4) != 0) {  // 3 in 4 runs are faulted
    config.faults.cold_start_failure = rng.uniform(0.0, 0.3);
    config.faults.crash = rng.uniform(0.0, 0.3);
    config.faults.crash_point = rng.uniform(0.1, 0.9);
    config.faults.straggler = rng.uniform(0.0, 0.3);
    config.faults.straggler_multiplier = rng.uniform(2.0, 8.0);
    if (rng.below(2) != 0) {
      config.faults.node_crash = rng.uniform(0.2, 0.9);
    }
    config.faults.seed = rng();
  }
  config.retry.max_attempts = 1 + static_cast<std::uint32_t>(rng.below(4));
  switch (rng.below(3)) {
    case 0: config.retry.jitter = 0.0; break;
    case 1: config.retry.jitter = 1.0; break;
    default: config.retry.jitter = rng.uniform(0.0, 0.8); break;
  }
  if (rng.below(3) == 0) config.retry.base_backoff_ms = 0.5;
  if (rng.below(2) != 0) {
    config.retry.timeout_ms = rng.uniform(100.0, 1500.0);
  }
  return config;
}

/// What a sweep's runs exercised.
struct Coverage {
  int nonempty = 0;
  int with_node_crashes = 0;
  int with_retries = 0;
  int with_timeouts = 0;

  void add(const ClusterResult& r) {
    if (r.offered > 0) ++nonempty;
    if (r.node_crashes > 0) ++with_node_crashes;
    if (r.retried > 0) ++with_retries;
    if (r.timed_out > 0) ++with_timeouts;
  }
};

/// A recorder large enough to hold every event of one sweep run.
std::unique_ptr<obs::FlightRecorder> sweep_recorder() {
  auto recorder = std::make_unique<obs::FlightRecorder>(1 << 19);
  recorder->set_enabled(true);
  return recorder;
}

/// Runs the engine, observed by a fresh metrics registry and `recorder`,
/// and the spec on the same inputs; requires exact equality and the run
/// invariants, and returns the engine's result.
ClusterResult expect_engine_matches_spec(const ClusterConfig& config,
                                         const RuntimeParams& params,
                                         const Backend& backend,
                                         std::size_t stages,
                                         std::uint64_t id_base,
                                         obs::FlightRecorder& recorder) {
  const std::vector<TimeMs> arrivals = arrivals_for(config);
  obs::MetricsRegistry metrics;
  recorder.clear();
  ClusterConfig observed = config;
  observed.metrics = &metrics;
  observed.recorder = &recorder;
  const ClusterResult engine = ClusterSimulator(observed, params)
                                   .run_prepared(backend, stages, arrivals,
                                                 id_base);
  EXPECT_EQ(engine,
            serve_spec(config, params, backend, stages, arrivals, id_base));
  check_cluster_invariants(engine, observed,
                           node_capacity(backend.resources(), params));
  return engine;
}

/// `cases` draws of random_multi_node_config pinned to `nodes` nodes, each
/// run under all five router policies.
Coverage run_node_sweep(std::size_t nodes, std::uint64_t meta_seed,
                        int cases) {
  const SystemOptions opts = quiet_options();
  const SweepBackends backends(opts);
  const auto recorder = sweep_recorder();
  Rng meta(meta_seed);
  Coverage coverage;
  for (int i = 0; i < cases; ++i) {
    SCOPED_TRACE("randomized case " + std::to_string(i));
    ClusterConfig config = random_multi_node_config(meta, meta_seed + i);
    config.nodes = nodes;
    const std::uint64_t id_base = 1000 * static_cast<std::uint64_t>(i + 1);
    for (const RouterPolicy policy : kPolicies) {
      SCOPED_TRACE(std::string("policy ") + to_string(policy));
      config.router = policy;
      coverage.add(expect_engine_matches_spec(config, opts.params,
                                              backends[i], 1 + (i % 3),
                                              id_base, *recorder));
    }
  }
  return coverage;
}

// 40 draws x 5 policies = 200 runs per node count; the floors show each
// sweep reached every recovery path.
void expect_full_coverage(const Coverage& c) {
  EXPECT_GT(c.nonempty, 180);
  EXPECT_GT(c.with_node_crashes, 25);
  EXPECT_GT(c.with_retries, 60);
  EXPECT_GT(c.with_timeouts, 25);
}

TEST(ClusterSpecParityTest, OneNode) {
  expect_full_coverage(run_node_sweep(1, 0x5BEC0001, 40));
}

TEST(ClusterSpecParityTest, TwoNodes) {
  expect_full_coverage(run_node_sweep(2, 0x5BEC0002, 40));
}

TEST(ClusterSpecParityTest, EightNodes) {
  expect_full_coverage(run_node_sweep(8, 0x5BEC0008, 40));
}

TEST(ClusterSpecParityTest, ThirtyTwoNodes) {
  expect_full_coverage(run_node_sweep(32, 0x5BEC0020, 40));
}

/// One randomized single-node configuration (the pre-sharding draw
/// space: no node crashes, default retry jitter).
ClusterConfig random_single_node_config(Rng& rng, std::uint64_t case_seed) {
  ClusterConfig config;
  config.horizon_ms = 1500.0 + rng.uniform(0.0, 2000.0);
  config.offered_rps = 5.0 + rng.uniform(0.0, 120.0);
  const TimeMs keep_alive_choices[] = {0.0, 5.0, 200.0, 10000.0};
  config.keep_alive_ms = keep_alive_choices[rng.below(4)];
  const ArrivalKind kinds[] = {ArrivalKind::kPoisson, ArrivalKind::kUniform,
                               ArrivalKind::kBurst};
  config.arrivals = kinds[rng.below(3)];
  config.seed = case_seed;
  if (rng.below(4) != 0) {  // 3 in 4 runs are faulted
    config.faults.cold_start_failure = rng.uniform(0.0, 0.3);
    config.faults.crash = rng.uniform(0.0, 0.3);
    config.faults.crash_point = rng.uniform(0.1, 0.9);
    config.faults.straggler = rng.uniform(0.0, 0.3);
    config.faults.straggler_multiplier = rng.uniform(2.0, 8.0);
    config.faults.seed = rng();
  }
  config.retry.max_attempts = 1 + static_cast<std::uint32_t>(rng.below(4));
  if (rng.below(2) != 0) {
    config.retry.timeout_ms = rng.uniform(100.0, 1500.0);
  }
  return config;
}

/// `cases` single-node draws, the router policy cycling per case, each
/// checked against the spec; returns how many admitted any request.
int run_single_node_sweep(std::uint64_t meta_seed, std::uint64_t case_seed,
                          int cases, std::uint64_t id_base) {
  const SystemOptions opts = quiet_options();
  const SweepBackends backends(opts);
  const auto recorder = sweep_recorder();
  Rng meta(meta_seed);
  int nonempty = 0;
  for (int i = 0; i < cases; ++i) {
    SCOPED_TRACE("randomized case " + std::to_string(case_seed + i));
    ClusterConfig config = random_single_node_config(meta, case_seed + i);
    config.router = kPolicies[i % 5];
    const ClusterResult r = expect_engine_matches_spec(
        config, opts.params, backends[i], 1 + (i % 3),
        id_base + static_cast<std::uint64_t>(i), *recorder);
    EXPECT_EQ(r.node_results.size(), 1u);
    if (r.offered > 0) ++nonempty;
  }
  return nonempty;
}

TEST(ClusterParityTest, FastLoopIsBitIdenticalAcrossRandomizedConfigs) {
  // The sweep actually exercised the loop.
  EXPECT_GT(run_single_node_sweep(0x5EED5EED, 0xC0FFEE00, 60, 1000), 50);
}

TEST(ClusterParityTest, ShardedSingleNodeIsBitIdenticalToPooled) {
  // The sharded loop with one node must be the single-pool model exactly;
  // at n == 1 every policy returns node 0 without touching its Rng
  // stream, so the policy must not matter.
  EXPECT_GT(run_single_node_sweep(0x0DDC0DE, 0xBEEF00, 40, 5000), 35);
}

TEST(ClusterParityTest, PublicRunMatchesPreparedFastLoop) {
  // run() is a thin wrapper over run_prepared: same config, same arrivals
  // recipe — everything but the process-global id base must agree.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config;
  config.nodes = 2;
  config.horizon_ms = 4000.0;
  config.offered_rps = 30.0;
  config.faults.crash = 0.1;
  config.retry.max_attempts = 2;
  config.retry.timeout_ms = 900.0;
  const ClusterSimulator sim(config, opts.params);
  ClusterResult via_run = sim.run(*backend, 1);
  ClusterResult prepared =
      sim.run_prepared(*backend, 1, arrivals_for(config), via_run.request_id_base);
  EXPECT_EQ(via_run, prepared);
}

TEST(ClusterInvariantTest, MultiNodeRunsConserveRequestsAndAreDeterministic) {
  const SystemOptions opts = quiet_options();
  const SweepBackends backends(opts);
  const RuntimeParams& params = opts.params;
  const auto recorder = sweep_recorder();

  Rng meta(0x9A7A11E1);
  Coverage coverage;
  for (int i = 0; i < 36; ++i) {
    SCOPED_TRACE("randomized case " + std::to_string(i));
    const ClusterConfig draw = random_multi_node_config(meta, 0xFA57EE00 + i);
    const Backend& backend = backends[i];
    const std::size_t stages = 1 + (i % 3);
    const std::vector<TimeMs> arrivals = arrivals_for(draw);
    const std::uint64_t id_base = 90000 + 1000 * static_cast<std::uint64_t>(i);
    for (const RouterPolicy policy : kPolicies) {
      SCOPED_TRACE(std::string("policy ") + to_string(policy) + ", " +
                   std::to_string(draw.nodes) + " nodes");
      ClusterConfig config = draw;
      config.router = policy;
      // The first run also feeds a metrics registry and the recorder;
      // observability sinks must not perturb the result.
      obs::MetricsRegistry metrics;
      recorder->clear();
      ClusterConfig observed = config;
      observed.metrics = &metrics;
      observed.recorder = recorder.get();
      const ClusterResult r = ClusterSimulator(observed, params)
                                  .run_prepared(backend, stages, arrivals,
                                                id_base);
      const ClusterResult again = ClusterSimulator(config, params)
                                      .run_prepared(backend, stages, arrivals,
                                                    id_base);
      EXPECT_EQ(r, again);  // exact: every field, incl. node_results
      check_cluster_invariants(r, observed,
                               node_capacity(backend.resources(), params));
      coverage.add(r);
    }
  }
  // The sweep actually exercised the loop and every recovery path.
  EXPECT_GT(coverage.nonempty, 150);
  EXPECT_GT(coverage.with_node_crashes, 20);
  EXPECT_GT(coverage.with_retries, 50);
  EXPECT_GT(coverage.with_timeouts, 20);
}

}  // namespace
}  // namespace chiron
