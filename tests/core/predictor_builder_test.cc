// Differential test of the Predictor's task builder. PGP's KL search
// predicts candidate groups through Predictor::process_latency_uncached;
// everything else goes through the memoized process_latency. Both must
// return the same bits as each other, with the cache on and off, and as
// an independent reference that rebuilds each task the way the Predictor
// always has: copy the profile, apply the isolation overhead and then the
// co-resident-thread contention with chained with_cpu_overhead calls,
// stagger with staggered_tasks, simulate, and add Eq. (4)'s terms.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/predictor.h"
#include "runtime/resources.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

std::vector<FunctionBehavior> true_behaviors(const Workflow& wf) {
  std::vector<FunctionBehavior> out;
  for (const FunctionSpec& f : wf.functions()) out.push_back(f.behavior);
  return out;
}

TimeMs spawn_gap(const PredictorConfig& c, IsolationMode mode) {
  const RuntimeParams& p = c.params;
  if (c.runtime == Runtime::kJava) return p.java_thread_startup_ms;
  if (c.runtime == Runtime::kNodeJs && mode != IsolationMode::kPool) {
    return p.node_worker_startup_ms;
  }
  switch (mode) {
    case IsolationMode::kNative: return p.thread_startup_ms;
    case IsolationMode::kMpk: return p.thread_startup_ms + p.mpk.startup_ms;
    case IsolationMode::kSfi: return p.thread_startup_ms + p.sfi.startup_ms;
    case IsolationMode::kPool: return p.pool_dispatch_ms;
  }
  return p.thread_startup_ms;
}

TimeMs reference_latency(const PredictorConfig& c,
                         const std::vector<FunctionBehavior>& profiles,
                         const std::vector<FunctionId>& functions,
                         ExecMode exec_mode, std::size_t fork_index,
                         IsolationMode mode) {
  const RuntimeParams& p = c.params;
  const bool thread_context =
      exec_mode == ExecMode::kThread || functions.size() > 1;
  std::vector<FunctionBehavior> behaviors;
  for (FunctionId f : functions) {
    const FunctionBehavior& base = profiles[f];
    FunctionBehavior b = base;
    if (thread_context) {
      const double cpu_frac = base.solo_latency() <= 0.0
                                  ? 1.0
                                  : base.total_cpu() / base.solo_latency();
      if (mode == IsolationMode::kMpk) {
        b = b.with_cpu_overhead(p.mpk.exec_overhead(cpu_frac));
      } else if (mode == IsolationMode::kSfi) {
        b = b.with_cpu_overhead(p.sfi.exec_overhead(cpu_frac));
      }
      if (c.runtime != Runtime::kJava && functions.size() > 1) {
        b = b.with_cpu_overhead(p.thread_contention(functions.size()) - 1.0);
      }
    }
    behaviors.push_back(std::move(b));
  }
  const auto tasks = staggered_tasks(behaviors, spawn_gap(c, mode));
  TimeMs exec = 0.0;
  if (c.runtime == Runtime::kJava || mode == IsolationMode::kPool) {
    exec = CpuShareSimulator(1u << 20).run(tasks).makespan;
  } else {
    exec = GilSimulator(p.gil_switch_interval_ms).run(tasks).makespan;
  }
  if ((mode == IsolationMode::kSfi || mode == IsolationMode::kMpk) &&
      functions.size() > 1) {
    const IsolationParams& iso = mode == IsolationMode::kSfi ? p.sfi : p.mpk;
    exec += iso.interaction_ms * static_cast<TimeMs>(functions.size() - 1);
  }
  if (exec_mode == ExecMode::kThread) return exec;
  return static_cast<TimeMs>(fork_index) * p.process_block_ms +
         p.process_startup_ms + exec;
}

TEST(PredictorBuilderTest, UncachedGroupLatencyIsBitIdentical) {
  const std::vector<Workflow> workflows = {make_finra(50), make_slapp()};
  const std::vector<IsolationMode> modes = {
      IsolationMode::kNative, IsolationMode::kMpk, IsolationMode::kSfi,
      IsolationMode::kPool};
  Rng rng(20231114);
  std::size_t cases = 0;
  for (const Workflow& wf : workflows) {
    const std::vector<FunctionBehavior> profiles = true_behaviors(wf);
    for (Runtime runtime :
         {Runtime::kPython3, Runtime::kNodeJs, Runtime::kJava}) {
      PredictorConfig config;
      config.runtime = runtime;
      const Predictor cached(config, profiles);
      config.enable_cache = false;
      const Predictor uncached(config, profiles);
      for (IsolationMode mode : modes) {
        for (int trial = 0; trial < 20; ++trial) {
          ProcessGroup g;
          const std::size_t size = 1 + rng.below(20);
          for (std::size_t i = 0; i < size; ++i) {
            g.functions.push_back(
                static_cast<FunctionId>(rng.below(profiles.size())));
          }
          g.mode = rng.below(2) == 0 ? ExecMode::kThread : ExecMode::kProcess;
          const std::size_t fork = rng.below(6);
          const std::string label =
              wf.name() + " runtime " +
              std::to_string(static_cast<int>(runtime)) + " mode " +
              std::to_string(static_cast<int>(mode)) + " trial " +
              std::to_string(trial);
          const TimeMs want =
              reference_latency(config, profiles, g.functions, g.mode, fork,
                                mode);
          // Miss, then hit, on the cached predictor.
          EXPECT_EQ(cached.process_latency(g, fork, mode), want) << label;
          EXPECT_EQ(cached.process_latency(g, fork, mode), want) << label;
          EXPECT_EQ(uncached.process_latency(g, fork, mode), want) << label;
          EXPECT_EQ(cached.process_latency_uncached(g.functions, g.mode, fork,
                                                    mode),
                    want)
              << label;
          EXPECT_EQ(uncached.process_latency_uncached(g.functions, g.mode,
                                                      fork, mode),
                    want)
              << label;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 2u * 3u * 4u * 20u);
}

TEST(PredictorBuilderTest, WrapLatencyFromIsEquationThree) {
  // A wrap's latency is its slowest process plus IPC between its
  // processes; wrap_latency and wrap_latency_from agree bit for bit.
  const Workflow wf = make_finra(10);
  const Predictor predictor(PredictorConfig{}, true_behaviors(wf));
  Wrap w;
  w.processes = {ProcessGroup{{2, 3, 4}, ExecMode::kThread},
                 ProcessGroup{{5, 6, 7}, ExecMode::kProcess},
                 ProcessGroup{{8, 9}, ExecMode::kProcess}};
  for (IsolationMode mode : {IsolationMode::kNative, IsolationMode::kMpk}) {
    TimeMs slowest = 0.0;
    std::size_t fork = 0;
    for (const ProcessGroup& g : w.processes) {
      slowest = std::max(
          slowest, predictor.process_latency_uncached(g.functions, g.mode,
                                                      fork, mode));
      if (g.mode == ExecMode::kProcess) ++fork;
    }
    EXPECT_EQ(predictor.wrap_latency(w, mode),
              predictor.wrap_latency_from(slowest, w.process_count()));
  }
  EXPECT_FALSE(predictor.simulates_whole_wrap(IsolationMode::kNative));
  EXPECT_TRUE(predictor.simulates_whole_wrap(IsolationMode::kPool));
}

}  // namespace
}  // namespace chiron
