// Parity oracle for the serving loop: at nodes == 1 the typed-event loop
// (ClusterSimulator::run_prepared) must produce bit-identical
// ClusterResults to the retired closure-based loop
// (run_prepared_reference), whatever the router policy — same (time, seq)
// FIFO event order means the same RNG draw sequence and the same float
// arithmetic, so equality is exact, not approximate (the
// run_slow_reference pattern the interleave kernels established).
//
// The reference models a single node, so at nodes >= 2 there is no
// oracle; ClusterInvariantTest instead requires every randomized run to
// satisfy the model's conservation and accounting laws and to be exactly
// reproducible. Its sweep draws the nasty edges: cold-start/crash storms
// with retries re-routing across nodes, node crashes draining queues
// through the router mid-run, tight timeouts racing retries, zero and
// full retry jitter, and every router policy at 2, 8 and 32 nodes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "platform/cluster.h"
#include "platform/systems.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

SystemOptions quiet_options() {
  SystemOptions opts;
  opts.noise.jitter_sigma = 0.0;
  opts.noise.thread_contention = 0.0;
  opts.noise.run_sigma = 0.0;
  return opts;
}

/// Allocation-free constant-latency backend with configurable resources —
/// lets the parity sweep hit zero-capacity and memory-only edges.
class PodBackend : public Backend {
 public:
  PodBackend(TimeMs latency, ResourceUsage usage)
      : latency_(latency), usage_(usage) {}
  std::string name() const override { return "pod"; }
  RunResult run(Rng&) const override {
    RunResult r;
    r.e2e_latency_ms = latency_;
    return r;
  }
  ResourceUsage resources() const override { return usage_; }

 private:
  TimeMs latency_;
  ResourceUsage usage_;
};

/// Pre-generates the arrival process exactly as ClusterSimulator::run()
/// does, so both loops consume byte-identical inputs (and the same
/// request-id base, which ClusterResult::operator== compares).
std::vector<TimeMs> arrivals_for(const ClusterConfig& config) {
  Rng rng(config.seed);
  ArrivalGenerator arrivals(config.arrivals, config.offered_rps, rng.split());
  return arrivals.generate(config.horizon_ms);
}

/// Draws one randomized cluster/fault/retry/timeout configuration. The
/// draw space deliberately includes the nasty edges: keep_alive == 0
/// (instant reaping), tight timeouts (deep-queue abandonment), crash and
/// cold-start storms, and retry exhaustion.
ClusterConfig random_config(Rng& rng, std::uint64_t case_seed) {
  ClusterConfig config;  // one node: the reference's model
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

/// One randomized parity sweep: {meta seed, first case seed, cases,
/// first request-id base}.
struct Sweep {
  std::uint64_t meta_seed;
  std::uint64_t case_seed;
  int cases;
  std::uint64_t id_base;
};

/// Runs `sweep` through the typed-event loop and the closure-based
/// reference on the same inputs, requiring exact equality, and returns
/// how many cases admitted any request.
int run_parity_sweep(const Sweep& sweep) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto system_backend = make_system("Faastlane", wf, opts);
  // Edge backends: tiny capacity (forces deep queues), memory-only
  // capacity, and the zero-resource degenerate that clamps to one
  // instance.
  const RuntimeParams& params = opts.params;
  ResourceUsage fat;
  fat.cpus = static_cast<double>(params.node_cpus) / 2.0;
  fat.memory_mb = params.node_memory_mb / 2.0;
  ResourceUsage memory_only;
  memory_only.cpus = 0.0;
  memory_only.memory_mb = params.node_memory_mb / 3.0;
  const PodBackend tiny_capacity(45.0, fat);
  const PodBackend memory_bound(25.0, memory_only);
  const PodBackend zero_capacity(10.0, ResourceUsage{});
  const Backend* backends[] = {system_backend.get(), &tiny_capacity,
                               &memory_bound, &zero_capacity};
  // At n == 1 every policy returns node 0 without touching its
  // (separately split) Rng stream, so the policy must not matter.
  const RouterPolicy policies[] = {
      RouterPolicy::kRoundRobin, RouterPolicy::kRandom,
      RouterPolicy::kLeastOutstanding, RouterPolicy::kPowerOfTwo,
      RouterPolicy::kWarmAffinity};

  Rng meta(sweep.meta_seed);
  int nonempty = 0;
  for (int i = 0; i < sweep.cases; ++i) {
    SCOPED_TRACE("randomized case " + std::to_string(sweep.case_seed + i));
    ClusterConfig config = random_config(meta, sweep.case_seed + i);
    config.router = policies[i % 5];
    const Backend& backend = *backends[i % 4];
    const std::size_t stages = 1 + (i % 3);
    const std::vector<TimeMs> arrivals = arrivals_for(config);
    const std::uint64_t id_base =
        sweep.id_base + static_cast<std::uint64_t>(i);

    const ClusterSimulator sim(config, params);
    const ClusterResult fast =
        sim.run_prepared(backend, stages, arrivals, id_base);
    const ClusterResult reference =
        sim.run_prepared_reference(backend, stages, arrivals, id_base);
    EXPECT_EQ(fast, reference);  // exact: every field, bitwise
    EXPECT_EQ(fast.node_results.size(), 1u);
    // Terminal counts never exceed admissions. (Not exact conservation:
    // with no timeout configured, requests still queued when the last
    // instance drops its final retry strand without a terminal count —
    // a semantic both loops share, inherited from the closure-era loop.)
    EXPECT_LE(fast.completed + fast.timed_out + fast.dropped, fast.offered);
    if (fast.offered > 0) ++nonempty;
  }
  return nonempty;
}

TEST(ClusterParityTest, FastLoopIsBitIdenticalAcrossRandomizedConfigs) {
  // The sweep actually exercised the loop.
  EXPECT_GT(run_parity_sweep({0x5EED5EED, 0xC0FFEE00, 60, 1000}), 50);
}

TEST(ClusterParityTest, ShardedSingleNodeIsBitIdenticalToPooled) {
  // The per-node (sharded) loop with one node must be the single-pool
  // model, exactly. The pooled loop this was once checked against is now
  // run_prepared itself, so the oracle is the reference it was checked
  // against in turn; an independent sweep cycles every router policy.
  EXPECT_GT(run_parity_sweep({0x0DDC0DE, 0xBEEF00, 40, 5000}), 35);
}

TEST(ClusterParityTest, MetricsAgreeBetweenLoops) {
  // The typed loop resolves per-kind fault counters once before the
  // loop; the reference builds the registry key per event. Same totals
  // must land in the registry either way.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config;
  config.horizon_ms = 5000.0;
  config.offered_rps = 40.0;
  config.faults.cold_start_failure = 0.1;
  config.faults.crash = 0.15;
  config.faults.straggler = 0.12;
  config.faults.seed = 99;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 1200.0;
  const std::vector<TimeMs> arrivals = arrivals_for(config);

  obs::MetricsRegistry fast_metrics;
  obs::MetricsRegistry ref_metrics;
  ClusterConfig fast_config = config;
  fast_config.metrics = &fast_metrics;
  ClusterConfig ref_config = config;
  ref_config.metrics = &ref_metrics;

  const ClusterResult fast =
      ClusterSimulator(fast_config, opts.params)
          .run_prepared(*backend, 1, arrivals, 7);
  const ClusterResult reference =
      ClusterSimulator(ref_config, opts.params)
          .run_prepared_reference(*backend, 1, arrivals, 7);
  EXPECT_EQ(fast, reference);
  ASSERT_GT(fast.failed, 0u);

  for (const char* name :
       {"chiron.fault.injected", "chiron.fault.injected.cold_start",
        "chiron.fault.injected.crash", "chiron.fault.injected.straggler",
        "chiron.retry.attempts", "chiron.request.timeout",
        "cluster.cold_starts"}) {
    EXPECT_EQ(fast_metrics.counter(name).value(),
              ref_metrics.counter(name).value())
        << name;
  }
  EXPECT_DOUBLE_EQ(fast_metrics.gauge("cluster.queue_depth").high_water(),
                   ref_metrics.gauge("cluster.queue_depth").high_water());
  EXPECT_DOUBLE_EQ(fast_metrics.gauge("cluster.queue_depth").high_water(),
                   static_cast<double>(fast.peak_queue));
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
  // And run_reference() wraps the reference loop the same way.
  ClusterResult via_ref = sim.run_reference(*backend, 1);
  ClusterResult prepared_ref = sim.run_prepared_reference(
      *backend, 1, arrivals_for(config), via_ref.request_id_base);
  EXPECT_EQ(via_ref, prepared_ref);
}

/// One randomized multi-node configuration: always sharded, with node
/// crashes armed in half of the faulted runs.
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

TEST(ClusterInvariantTest, MultiNodeRunsConserveRequestsAndAreDeterministic) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto system_backend = make_system("Faastlane", wf, opts);
  const RuntimeParams& params = opts.params;
  ResourceUsage fat;
  fat.cpus = static_cast<double>(params.node_cpus) / 2.0;
  fat.memory_mb = params.node_memory_mb / 2.0;
  ResourceUsage memory_only;
  memory_only.cpus = 0.0;
  memory_only.memory_mb = params.node_memory_mb / 3.0;
  const PodBackend tiny_capacity(45.0, fat);
  const PodBackend memory_bound(25.0, memory_only);
  const PodBackend zero_capacity(10.0, ResourceUsage{});
  const Backend* backends[] = {system_backend.get(), &tiny_capacity,
                               &memory_bound, &zero_capacity};
  const RouterPolicy policies[] = {
      RouterPolicy::kRoundRobin, RouterPolicy::kRandom,
      RouterPolicy::kLeastOutstanding, RouterPolicy::kPowerOfTwo,
      RouterPolicy::kWarmAffinity};

  Rng meta(0x9A7A11E1);
  int nonempty = 0;
  int with_node_crashes = 0;
  int with_retries = 0;
  int with_timeouts = 0;
  for (int i = 0; i < 36; ++i) {
    SCOPED_TRACE("randomized case " + std::to_string(i));
    const ClusterConfig draw = random_multi_node_config(meta, 0xFA57EE00 + i);
    const Backend& backend = *backends[i % 4];
    const std::size_t stages = 1 + (i % 3);
    const std::vector<TimeMs> arrivals = arrivals_for(draw);
    const std::uint64_t id_base = 90000 + 1000 * static_cast<std::uint64_t>(i);
    for (const RouterPolicy policy : policies) {
      SCOPED_TRACE(std::string("policy ") + to_string(policy) + ", " +
                   std::to_string(draw.nodes) + " nodes");
      ClusterConfig config = draw;
      config.router = policy;
      // The first run also feeds a metrics registry; observability sinks
      // must not perturb the result.
      obs::MetricsRegistry metrics;
      ClusterConfig observed = config;
      observed.metrics = &metrics;
      const ClusterResult r = ClusterSimulator(observed, params)
                                  .run_prepared(backend, stages, arrivals,
                                                id_base);
      const ClusterResult again = ClusterSimulator(config, params)
                                      .run_prepared(backend, stages, arrivals,
                                                    id_base);
      EXPECT_EQ(r, again);  // exact: every field, incl. node_results

      // Conservation. Exact whenever a deadline is armed; without one a
      // request stranded in a queue may end the run without a terminal
      // count (see ClusterParityTest).
      EXPECT_LE(r.completed + r.timed_out + r.dropped, r.offered);
      if (config.retry.timeout_ms > 0.0) {
        EXPECT_EQ(r.completed + r.timed_out + r.dropped, r.offered);
      }

      // Per-node accounting: one entry per node, summing to the totals.
      ASSERT_EQ(r.node_results.size(), config.nodes);
      std::size_t completed = 0;
      std::size_t cold_starts = 0;
      std::size_t node_crashes = 0;
      for (const NodeResult& node : r.node_results) {
        completed += node.completed;
        cold_starts += node.cold_starts;
        node_crashes += node.node_crashes;
        EXPECT_LE(node.node_crashes, 1u);  // a node crashes at most once
        EXPECT_LE(node.peak_queue, r.peak_queue);
      }
      EXPECT_EQ(completed, r.completed);
      EXPECT_EQ(cold_starts, r.cold_starts);
      EXPECT_EQ(node_crashes, r.node_crashes);
      if (config.faults.node_crash == 0.0) {
        EXPECT_EQ(r.node_crashes, 0u);
      }

      // The registry agrees with the result it was fed alongside.
      auto count = [](std::size_t n) { return static_cast<std::int64_t>(n); };
      EXPECT_EQ(metrics.counter("cluster.cold_starts").value(),
                count(r.cold_starts));
      EXPECT_EQ(metrics.counter("chiron.retry.attempts").value(),
                count(r.retried));
      EXPECT_EQ(metrics.counter("chiron.request.timeout").value(),
                count(r.timed_out));
      EXPECT_DOUBLE_EQ(metrics.gauge("cluster.queue_depth").high_water(),
                       static_cast<double>(r.peak_queue));

      if (r.offered > 0) ++nonempty;
      if (r.node_crashes > 0) ++with_node_crashes;
      if (r.retried > 0) ++with_retries;
      if (r.timed_out > 0) ++with_timeouts;
    }
  }
  // The sweep actually exercised the loop and every recovery path.
  EXPECT_GT(nonempty, 150);
  EXPECT_GT(with_node_crashes, 20);
  EXPECT_GT(with_retries, 50);
  EXPECT_GT(with_timeouts, 20);
}

}  // namespace
}  // namespace chiron
