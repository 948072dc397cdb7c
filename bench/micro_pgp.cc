// §7 scalability micro-benchmarks (google-benchmark): PGP scheduling cost
// as workflows grow to hundreds of functions (the paper reports
// minute-level offline cost at that scale; KL is the dominant factor and
// is skipped above kl_function_limit, as §7's discussion suggests).
#include <benchmark/benchmark.h>

#include "core/pgp.h"
#include "core/kernighan_lin.h"
#include "workflow/benchmarks.h"

namespace {

using namespace chiron;

std::vector<FunctionBehavior> true_behaviors(const Workflow& wf) {
  std::vector<FunctionBehavior> out;
  for (const FunctionSpec& f : wf.functions()) out.push_back(f.behavior);
  return out;
}

// The old combined BM_PgpSchedule family was misleading: with the default
// config the KL refinement silently turns off above kl_function_limit
// (64), so /50 ran the KL-heavy path while /100-/200 did not, and the
// size axis mixed two regimes (/50 could read slower than /100). The
// family is split so each named series stays in ONE regime end to end;
// compare them at the overlapping sizes to read the cost of KL itself.

// KL regime: the refinement is forced on at every size (limit lifted), so
// this axis scales with KL's cost. Capped at 100 functions — KL on larger
// FINRA workflows is the paper's "minute-level offline cost" territory.
void BM_PgpScheduleKl(benchmark::State& state) {
  const Workflow wf = make_finra(static_cast<std::size_t>(state.range(0)));
  PgpConfig config;
  config.use_kl = true;
  config.kl_function_limit = 1024;  // never auto-skip inside this family
  PgpScheduler scheduler(config, wf, true_behaviors(wf));
  const TimeMs slo = 80.0 + 1.5 * static_cast<TimeMs>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(slo).processes);
  }
}
BENCHMARK(BM_PgpScheduleKl)->Arg(5)->Arg(25)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// No-KL regime: the refinement is explicitly off at every size — the
// greedy partitioning path that large workflows take in production.
void BM_PgpScheduleNoKl(benchmark::State& state) {
  const Workflow wf = make_finra(static_cast<std::size_t>(state.range(0)));
  PgpConfig config;
  config.use_kl = false;
  PgpScheduler scheduler(config, wf, true_behaviors(wf));
  const TimeMs slo = 80.0 + 1.5 * static_cast<TimeMs>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(slo).processes);
  }
}
BENCHMARK(BM_PgpScheduleNoKl)->Arg(5)->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// Ablation: the deploy path without the prediction cache and without the
// deploy pool (default use_kl, so KL runs at /50 and is skipped above
// kl_function_limit at /200). The pool only serves KL rounds, so against
// BM_PgpScheduleKl/50 the gap is the memoization plus the KL fan-out, and
// against BM_PgpScheduleNoKl/200 it is the memoization alone.
void BM_PgpScheduleUncachedSequential(benchmark::State& state) {
  const Workflow wf = make_finra(static_cast<std::size_t>(state.range(0)));
  PgpConfig config;
  config.prediction_cache = false;
  config.deploy_threads = 1;
  PgpScheduler scheduler(config, wf, true_behaviors(wf));
  const TimeMs slo = 80.0 + 1.5 * static_cast<TimeMs>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(slo).processes);
  }
}
BENCHMARK(BM_PgpScheduleUncachedSequential)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_KernighanLinPass(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<FunctionId> a, b;
  for (std::size_t i = 0; i < n; ++i) {
    a.push_back(static_cast<FunctionId>(i));
    b.push_back(static_cast<FunctionId>(100 + i));
  }
  const PairLatencyEval eval = [](const std::vector<FunctionId>& x,
                                  const std::vector<FunctionId>& y) {
    double wx = 0.0, wy = 0.0;
    for (FunctionId f : x) wx += f;
    for (FunctionId f : y) wy += f;
    return std::abs(wx - wy);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernighan_lin(a, b, eval).latency);
  }
}
BENCHMARK(BM_KernighanLinPass)->RangeMultiplier(2)->Range(4, 32);

}  // namespace

BENCHMARK_MAIN();
