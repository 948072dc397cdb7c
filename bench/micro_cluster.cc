// Serving-loop micro-benchmark (google-benchmark): the typed-event hot
// path (ClusterSimulator::run) on a deliberately high-churn scenario — a
// small fixed fleet driven far past saturation with faults, retries, and
// a tight request timeout, so the waiting queue is deep and every event
// kind fires. The offered load scales with N while the horizon stays
// fixed, so a queue operation that costs O(queue depth) (say, erasing a
// timed-out entry) would show as a superlinear fit; scripts/check.sh
// asserts the fit stays at N log N or better.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "platform/cluster.h"

namespace {

using namespace chiron;

/// Constant-latency, allocation-free backend sized so the cluster fits
/// exactly eight instances: saturation at ~230 rps, far below the
/// benchmark's offered load, which is what builds the deep queue.
class PodBackend : public Backend {
 public:
  explicit PodBackend(const RuntimeParams& params) {
    usage_.cpus = static_cast<double>(params.node_cpus) / 8.0;
    usage_.memory_mb = 0.0;
  }
  std::string name() const override { return "pod"; }
  RunResult run(Rng&) const override {
    RunResult r;
    r.e2e_latency_ms = 35.0;
    return r;
  }
  ResourceUsage resources() const override { return usage_; }

 private:
  ResourceUsage usage_;
};

/// ~`requests` arrivals over a fixed 20 s horizon with every churn source
/// armed: cold-start failures, mid-run crashes, stragglers, three retry
/// attempts, and a 2 s timeout that abandons deep-queue requests (the
/// queue holds ~excess_rps * timeout entries, so depth scales with N).
ClusterConfig churn_config(std::int64_t requests) {
  ClusterConfig config;
  config.nodes = 1;
  config.horizon_ms = 20000.0;
  config.offered_rps = static_cast<double>(requests) / 20.0;
  config.keep_alive_ms = 100.0;
  config.seed = 42;
  config.faults.cold_start_failure = 0.02;
  config.faults.crash = 0.05;
  config.faults.straggler = 0.05;
  config.faults.straggler_multiplier = 4.0;
  config.faults.seed = 7;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 2000.0;
  return config;
}

// Typed-event hot path: slab-backed POD events, O(1) cancellation, lazy
// queue tombstones — zero steady-state allocations per request.
void BM_ClusterRun(benchmark::State& state) {
  const ClusterConfig config = churn_config(state.range(0));
  const RuntimeParams params = RuntimeParams::defaults();
  const PodBackend backend(params);
  const ClusterSimulator sim(config, params);
  std::size_t offered = 0;
  for (auto _ : state) {
    const ClusterResult result = sim.run(backend, 1);
    offered = result.offered;
    benchmark::DoNotOptimize(result.completed);
  }
  state.SetComplexityN(state.range(0));
  state.SetItemsProcessed(static_cast<std::int64_t>(offered) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterRun)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
