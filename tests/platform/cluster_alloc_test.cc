// Allocation-freedom of the typed-event serving loop: in steady state the
// hot path performs ZERO heap allocations per request. Everything it
// needs — the event slab, the heap, request states, the waiting-queue and
// warm-pool rings, the latency buffer — is reserved up front, so the
// per-run allocation count is a small constant that does NOT grow with
// the number of requests served (a scoped operator-new counter proves
// it). With a real backend the same holds for the loop's side; the
// backend's own allocations are bounded per call
// (PlanBackendAllocationTest), not zero, because each RunResult owns its
// per-function span vectors.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "platform/cluster.h"
#include "platform/systems.h"
#include "support/alloc_counter.h"
#include "support/constant_backend.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

/// Constant 35 ms requests on a small fleet (8 CPUs each): queueing,
/// handoffs and timeouts all happen.
testsupport::ConstantBackend pod_backend() {
  ResourceUsage usage;
  usage.cpus = 8.0;
  return testsupport::ConstantBackend(35.0, usage);
}

/// High-churn configuration: faults, retries, and timeouts all armed, so
/// the counted window exercises every event kind (arrival, completion,
/// crash, retry, timeout) plus queue tombstoning and warm-pool churn.
ClusterConfig churn_config(double offered_rps) {
  ClusterConfig config;
  config.nodes = 1;
  config.horizon_ms = 10000.0;
  config.offered_rps = offered_rps;
  config.keep_alive_ms = 50.0;
  config.faults.cold_start_failure = 0.05;
  config.faults.crash = 0.1;
  config.faults.straggler = 0.1;
  config.faults.seed = 1234;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 600.0;
  return config;
}

/// Runs the typed loop over ~`offered_rps * 10` requests with the
/// operator-new counter armed around run_prepared() only (arrival
/// generation happens outside the window) and returns {allocations,
/// offered requests}.
std::pair<std::uint64_t, std::size_t> count_run(double offered_rps) {
  const ClusterConfig config = churn_config(offered_rps);
  const testsupport::ConstantBackend backend = pod_backend();
  const RuntimeParams params = RuntimeParams::defaults();
  Rng rng(config.seed);
  ArrivalGenerator gen(config.arrivals, config.offered_rps, rng.split());
  const std::vector<TimeMs> arrivals = gen.generate(config.horizon_ms);
  const ClusterSimulator sim(config, params);

  testsupport::ScopedAllocCounter counter;
  const ClusterResult result = sim.run_prepared(backend, 1, arrivals, 1);
  const std::uint64_t allocs = counter.count();

  // The run really did churn: every terminal state was reached.
  EXPECT_EQ(result.offered, result.completed + result.timed_out +
                                result.dropped);
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.failed, 0u);
  EXPECT_GT(result.timed_out, 0u);
  return {allocs, result.offered};
}

/// Same counting harness over the sharded loop with real routing: four
/// nodes under the warm-affinity policy (the policy that reads every
/// router view field). The per-node rings and the router views are part
/// of the up-front reservation, so the steady-state claim is unchanged.
std::pair<std::uint64_t, std::size_t> count_sharded_run(double offered_rps) {
  ClusterConfig config = churn_config(offered_rps);
  config.nodes = 4;
  config.router = RouterPolicy::kWarmAffinity;
  const testsupport::ConstantBackend backend = pod_backend();
  const RuntimeParams params = RuntimeParams::defaults();
  Rng rng(config.seed);
  ArrivalGenerator gen(config.arrivals, config.offered_rps, rng.split());
  const std::vector<TimeMs> arrivals = gen.generate(config.horizon_ms);
  const ClusterSimulator sim(config, params);

  testsupport::ScopedAllocCounter counter;
  const ClusterResult result = sim.run_prepared(backend, 1, arrivals, 1);
  const std::uint64_t allocs = counter.count();

  EXPECT_EQ(result.offered, result.completed + result.timed_out +
                                result.dropped);
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.failed, 0u);
  EXPECT_EQ(result.node_results.size(), 4u);
  return {allocs, result.offered};
}

/// Forwards to a real backend and tallies the allocations made inside its
/// run() calls, so the loop's own share of an armed window can be told
/// apart. The loop is sequential, so reading the process-wide counter
/// around each call attributes exactly.
class CountingBackend : public Backend {
 public:
  explicit CountingBackend(const Backend& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  RunResult run(Rng& rng) const override {
    const std::uint64_t before = testsupport::alloc_count();
    RunResult result = inner_.run(rng);
    allocs_ += testsupport::alloc_count() - before;
    ++calls_;
    return result;
  }
  ResourceUsage resources() const override { return inner_.resources(); }

  std::uint64_t allocs() const { return allocs_; }
  std::uint64_t calls() const { return calls_; }

 private:
  const Backend& inner_;
  mutable std::uint64_t allocs_ = 0;
  mutable std::uint64_t calls_ = 0;
};

struct RealBackendCount {
  std::uint64_t loop_allocs = 0;  ///< armed window minus backend.run
  std::uint64_t backend_calls = 0;
  std::size_t offered = 0;
};

/// The churn harness over FINRA-10 deployed by Chiron (a WrapPlanBackend
/// with GIL groups) on four warm-affinity nodes.
RealBackendCount count_real_backend_run(const Backend& chiron,
                                        double offered_rps) {
  ClusterConfig config = churn_config(offered_rps);
  config.nodes = 4;
  config.router = RouterPolicy::kWarmAffinity;
  const CountingBackend backend(chiron);
  const RuntimeParams params = RuntimeParams::defaults();
  Rng rng(config.seed);
  ArrivalGenerator gen(config.arrivals, config.offered_rps, rng.split());
  const std::vector<TimeMs> arrivals = gen.generate(config.horizon_ms);
  const ClusterSimulator sim(config, params);

  testsupport::ScopedAllocCounter counter;
  const ClusterResult result = sim.run_prepared(backend, 1, arrivals, 1);
  const std::uint64_t allocs = counter.count();

  EXPECT_EQ(result.offered, result.completed + result.timed_out +
                                result.dropped);
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.failed, 0u);
  return {allocs - backend.allocs(), backend.calls(), result.offered};
}

TEST(ClusterAllocationTest, RealBackendLoopAllocationsDoNotScaleWithRequests) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const std::unique_ptr<Backend> chiron =
      make_system("Chiron", make_finra(10), SystemOptions{});
  const RealBackendCount small = count_real_backend_run(*chiron, 100.0);
  const RealBackendCount big = count_real_backend_run(*chiron, 400.0);
  ASSERT_GT(big.offered, small.offered + 2000u);
  ASSERT_GT(big.backend_calls, small.backend_calls + 2000u);

  RecordProperty("loop_allocs_small", std::to_string(small.loop_allocs));
  RecordProperty("loop_allocs_big", std::to_string(big.loop_allocs));
  EXPECT_LT(small.loop_allocs, 96u);
  EXPECT_LE(big.loop_allocs, small.loop_allocs + 8u)
      << "serving " << (big.offered - small.offered)
      << " more requests allocated " << (big.loop_allocs - small.loop_allocs)
      << " more times outside backend.run: the loop is no longer "
         "allocation-free with a real backend";
}

TEST(ClusterAllocationTest, ShardedLoopAllocationsDoNotScaleWithRequests) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const auto [small_allocs, small_offered] = count_sharded_run(400.0);
  const auto [big_allocs, big_offered] = count_sharded_run(1600.0);
  ASSERT_GT(big_offered, small_offered + 8000u);

  // Setup reserves a few more buffers than a one-node run (per-node
  // rings, router views, per-node sinks) — still a small constant.
  EXPECT_LT(small_allocs, 96u);
  EXPECT_LE(big_allocs, small_allocs + 8u)
      << "serving " << (big_offered - small_offered)
      << " more requests allocated " << (big_allocs - small_allocs)
      << " more times: the sharded hot path is no longer allocation-free";
}

TEST(ClusterAllocationTest, TypedLoopAllocationsDoNotScaleWithRequests) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const auto [small_allocs, small_offered] = count_run(100.0);   // ~1k reqs
  const auto [big_allocs, big_offered] = count_run(400.0);       // ~4k reqs
  ASSERT_GT(big_offered, small_offered + 2000u);

  // Setup reserves a fixed set of buffers and teardown builds one Cdf and
  // one log line: a small constant, independent of the request count.
  EXPECT_LT(small_allocs, 64u);
  // The strong claim: thousands of additional requests cost ZERO extra
  // allocations (a tiny tolerance absorbs one-off stdlib effects).
  EXPECT_LE(big_allocs, small_allocs + 8u)
      << "serving " << (big_offered - small_offered)
      << " more requests allocated " << (big_allocs - small_allocs)
      << " more times: the hot path is no longer allocation-free";
}

}  // namespace
}  // namespace chiron
