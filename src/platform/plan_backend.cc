#include "platform/plan_backend.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/predictor.h"
#include "runtime/resources.h"

namespace chiron {
namespace {

constexpr std::size_t kUncapped = 1u << 20;

double cpu_fraction(const FunctionBehavior& b) {
  const TimeMs total = b.solo_latency();
  return total <= 0.0 ? 1.0 : b.total_cpu() / total;
}

// Maps a group-local time to final request time with the operations in a
// fixed order: group start offset, CPU-cap dilation, wrap start within
// the request, whole-run scale. True-parallel wraps use base 0 and
// dilation 1, which leave every value unchanged.
struct TimeMap {
  TimeMs base;
  double dilation;
  TimeMs shift;
  double scale;

  TimeMs operator()(TimeMs v) const {
    return ((v + base) * dilation + shift) * scale;
  }
};

// Appends one timeline per member of `g`, taking over each task's spans
// and mapping every time through `map`.
void emit_group(const ProcessGroup& g, std::span<TaskResult> tasks,
                const TimeMap& map, std::vector<FunctionTimeline>& out) {
  for (std::size_t i = 0; i < g.functions.size(); ++i) {
    TaskResult& task = tasks[i];
    FunctionTimeline& tl = out.emplace_back();
    tl.id = g.functions[i];
    tl.invoke_ms = map(task.ready_ms);
    tl.start_exec_ms = map(task.start_ms);
    tl.finish_ms = map(task.finish_ms);
    for (TimelineSpan& s : task.spans) {
      s.begin = map(s.begin);
      s.end = map(s.end);
    }
    tl.spans = std::move(task.spans);
  }
}

struct GroupRun {
  TimeMs base = 0.0;
  TimeMs exec = 0.0;
  InterleaveResult result;
};

// Per-thread working memory of simulate_wrap, reused across requests so
// the jittered behaviours and group outcomes stop allocating once warm.
struct WrapScratch {
  std::vector<ThreadTask> tasks;          // one wrap's or group's tasks
  std::vector<ThreadTask> process_tasks;  // CPU-cap second level
  std::vector<GroupRun> runs;
};

// The first `n` entries of `pool`, grown if needed.
template <typename T>
std::span<T> prefix(std::vector<T>& pool, std::size_t n) {
  if (pool.size() < n) pool.resize(n);
  return {pool.data(), n};
}

}  // namespace

WrapPlanBackend::WrapPlanBackend(std::string name, RuntimeParams params,
                                 Workflow wf, WrapPlan plan, NoiseConfig noise)
    : name_(std::move(name)),
      params_(params),
      wf_(std::move(wf)),
      plan_(std::move(plan)),
      noise_(noise),
      runtime_(wf_.function_count() > 0 ? wf_.function(0).runtime
                                        : Runtime::kPython3) {
  plan_.validate(wf_);
  base_.reserve(wf_.function_count());
  for (const StagePlan& sp : plan_.stages) {
    for (const Wrap& w : sp.wraps) {
      for (const ProcessGroup& g : w.processes) {
        // Pool workers and Java threads run outside a shared interpreter.
        const bool thread_context =
            !true_parallel() && (g.mode == ExecMode::kThread || g.size() > 1);
        for (FunctionId f : g.functions) {
          base_.push_back(base_behavior(f, thread_context, g.size()));
        }
      }
    }
  }
}

TimeMs WrapPlanBackend::jit(TimeMs value, Rng& rng) const {
  if (noise_.jitter_sigma <= 0.0) return value;
  return value * rng.jitter(noise_.jitter_sigma);
}

bool WrapPlanBackend::true_parallel() const {
  return runtime_ == Runtime::kJava || plan_.mode == IsolationMode::kPool;
}

TimeMs WrapPlanBackend::spawn_gap() const {
  if (runtime_ == Runtime::kJava) return params_.java_thread_startup_ms;
  // Node.js worker_threads pay >50 ms of startup per worker (§2.1).
  if (runtime_ == Runtime::kNodeJs && plan_.mode != IsolationMode::kPool) {
    return params_.node_worker_startup_ms;
  }
  switch (plan_.mode) {
    case IsolationMode::kNative: return params_.thread_startup_ms;
    case IsolationMode::kMpk:
      return params_.thread_startup_ms + params_.mpk.startup_ms;
    case IsolationMode::kSfi:
      return params_.thread_startup_ms + params_.sfi.startup_ms;
    case IsolationMode::kPool: return params_.pool_dispatch_ms;
  }
  return params_.thread_startup_ms;
}

FunctionBehavior WrapPlanBackend::base_behavior(FunctionId f,
                                                bool thread_context,
                                                std::size_t co_resident) const {
  FunctionBehavior b = wf_.function(f).behavior;
  if (thread_context) {
    if (plan_.mode == IsolationMode::kMpk) {
      b = b.with_cpu_overhead(params_.mpk.exec_overhead(cpu_fraction(b)));
    } else if (plan_.mode == IsolationMode::kSfi) {
      b = b.with_cpu_overhead(params_.sfi.exec_overhead(cpu_fraction(b)));
    }
    if (runtime_ != Runtime::kJava && co_resident > 1) {
      // Modeled GIL convoy/contention plus an unmodeled residual the
      // Predictor does not see.
      b = b.with_cpu_overhead(params_.thread_contention(co_resident) - 1.0);
      if (noise_.thread_contention > 0.0) {
        b = b.with_cpu_overhead(noise_.thread_contention *
                                static_cast<double>(co_resident - 1));
      }
    }
  }
  return b;
}

TimeMs WrapPlanBackend::simulate_wrap(const Wrap& w,
                                      const FunctionBehavior*& base,
                                      TimeMs shift, double run_scale,
                                      Rng& rng,
                                      std::vector<FunctionTimeline>& out) const {
  thread_local WrapScratch scratch;
  const std::size_t cap = plan_.cpu_cap;
  const TimeMs gap = spawn_gap();

  if (true_parallel()) {
    // Pool workers / Java threads: one flat true-parallel dispatch.
    const std::span<ThreadTask> tasks =
        prefix(scratch.tasks, w.function_count());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].behavior.assign_jittered(*base++, noise_.jitter_sigma, rng);
      tasks[i].ready_ms = static_cast<TimeMs>(i) * jit(gap, rng);
    }
    CpuShareSimulator sim(cap == 0 ? kUncapped : cap, /*record_spans=*/true);
    InterleaveResult result = sim.run(tasks);
    TimeMs ipc = 0.0;
    if (runtime_ != Runtime::kJava && tasks.size() > 1) {
      ipc = static_cast<TimeMs>(tasks.size() - 1) *
            jit(params_.ipc_pipe_ms, rng);
    }
    const TimeMap map{0.0, 1.0, shift, run_scale};
    std::span<TaskResult> rest(result.tasks);
    for (const ProcessGroup& g : w.processes) {
      emit_group(g, rest, map, out);
      rest = rest.subspan(g.size());
    }
    return result.makespan + ipc;
  }

  // Process/thread execution: one GIL interpreter per process group.
  const std::span<GroupRun> runs = prefix(scratch.runs, w.process_count());
  std::size_t fork_index = 0;
  for (std::size_t p = 0; p < runs.size(); ++p) {
    const ProcessGroup& g = w.processes[p];
    const std::span<ThreadTask> tasks = prefix(scratch.tasks, g.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].behavior.assign_jittered(*base++, noise_.jitter_sigma, rng);
      tasks[i].ready_ms = static_cast<TimeMs>(i) * jit(gap, rng);
    }
    GroupRun& run = runs[p];
    if (g.mode == ExecMode::kThread) {
      run.base = 0.0;  // resident orchestrator
    } else {
      // Superlinear queue-pressure skew the Predictor does not model.
      const double skew =
          1.0 + std::min(0.25, noise_.model_skew *
                                   static_cast<double>(fork_index) / 2.0);
      run.base = static_cast<TimeMs>(fork_index) *
                     jit(params_.process_block_ms * skew, rng) +
                 jit(params_.process_startup_ms, rng);
      ++fork_index;
    }
    GilSimulator sim(params_.gil_switch_interval_ms, /*record_spans=*/true,
                     noise_.gil_handoff_ms);
    run.result = sim.run(tasks);
    run.exec = run.result.makespan;
    if ((plan_.mode == IsolationMode::kSfi ||
         plan_.mode == IsolationMode::kMpk) &&
        g.size() > 1) {
      const IsolationParams& iso =
          plan_.mode == IsolationMode::kSfi ? params_.sfi : params_.mpk;
      run.exec += iso.interaction_ms * static_cast<TimeMs>(g.size() - 1);
    }
  }

  const std::size_t nproc = w.process_count();
  const TimeMs ipc = nproc > 1 ? static_cast<TimeMs>(nproc - 1) *
                                     jit(params_.ipc_pipe_ms, rng)
                               : 0.0;
  TimeMs uncapped = 0.0;
  for (const GroupRun& r : runs) {
    uncapped = std::max(uncapped, r.base + r.exec);
  }
  uncapped += ipc;

  // CPU cap below the process count: processes time-share the allocated
  // cores. Wrap latency comes from a second-level simulation over each
  // process's effective CPU/block profile; per-function timelines are
  // dilated by the resulting slowdown (documented approximation).
  double dilation = 1.0;
  TimeMs capped = uncapped;
  if (cap > 0 && nproc > cap) {
    const std::span<ThreadTask> ptasks = prefix(scratch.process_tasks, nproc);
    for (std::size_t p = 0; p < nproc; ++p) {
      ptasks[p].behavior = effective_behavior(runs[p].result);
      ptasks[p].ready_ms = runs[p].base;
    }
    CpuShareSimulator sim(cap);
    capped = sim.run(ptasks).makespan + ipc;
    if (uncapped > 0.0) dilation = capped / uncapped;
  }

  for (std::size_t p = 0; p < nproc; ++p) {
    emit_group(w.processes[p], runs[p].result.tasks,
               TimeMap{runs[p].base, dilation, shift, run_scale}, out);
  }
  return capped;
}

RunResult WrapPlanBackend::run(Rng& rng) const {
  RunResult result;
  result.stage_latency_ms.reserve(plan_.stages.size());
  result.functions.reserve(base_.size());
  // Whole-run load factor: one correlated multiplier per request.
  double run_scale =
      noise_.run_sigma > 0.0 ? rng.jitter(noise_.run_sigma) : 1.0;
  // Injected straggler: one instance serves the whole wrap deployment, so
  // a straggling instance dilates the entire request.
  const FaultInjector* faults =
      noise_.faults && noise_.faults->enabled() ? noise_.faults : nullptr;
  if (faults && faults->spec().straggler > 0.0 &&
      rng.uniform() < faults->spec().straggler) {
    run_scale *= faults->spec().straggler_multiplier;
    note_backend_fault(FaultKind::kStraggler);
  }
  const FunctionBehavior* base = base_.data();
  TimeMs t = 0.0;
  for (const StagePlan& sp : plan_.stages) {
    TimeMs stage_latency = 0.0;
    for (std::size_t k = 0; k < sp.wraps.size(); ++k) {
      const double skew =
          1.0 +
          std::min(0.25, noise_.model_skew * static_cast<double>(k) / 2.0);
      TimeMs offset = 0.0;
      if (k > 0) {
        offset = params_.decentralized_scheduling
                     ? jit(params_.rpc_ms, rng)
                     : static_cast<TimeMs>(k - 1) *
                               jit(params_.inv_ms * skew, rng) +
                           jit(params_.rpc_ms, rng);
        // Transient RPC/payload error on this wrap invocation: the
        // storage layer retries transparently at a fixed latency cost.
        if (faults && faults->spec().transfer_error > 0.0 &&
            rng.uniform() < faults->spec().transfer_error) {
          offset += faults->spec().transfer_retry_ms;
          note_backend_fault(FaultKind::kTransfer);
        }
      }
      const TimeMs latency = simulate_wrap(sp.wraps[k], base, t + offset,
                                           run_scale, rng, result.functions);
      stage_latency = std::max(stage_latency, offset + latency);
    }
    result.stage_latency_ms.push_back(stage_latency);
    t += stage_latency;
  }
  if (run_scale != 1.0) {
    t *= run_scale;
    for (TimeMs& s : result.stage_latency_ms) s *= run_scale;
  }
  result.e2e_latency_ms = t;
  result.state_transitions = 0;
  return result;
}

ResourceUsage WrapPlanBackend::resources() const {
  ResourceUsage peak;
  for (const StagePlan& sp : plan_.stages) {
    ResourceUsage stage;
    for (const Wrap& w : sp.wraps) {
      MemMb fn_mem = 0.0;
      std::size_t threads = 0;
      for (const ProcessGroup& g : w.processes) {
        for (FunctionId f : g.functions) fn_mem += wf_.function(f).memory_mb;
        if (g.mode == ExecMode::kThread) {
          threads += g.size();
        } else if (g.size() > 1) {
          threads += g.size() - 1;
        }
      }
      std::size_t processes;
      std::size_t pool_workers = 0;
      if (plan_.mode == IsolationMode::kPool) {
        processes = 1;  // the resident pool master
        pool_workers = w.function_count();
        threads = 0;
      } else {
        processes = w.forked_count() + 1;  // + resident orchestrator
      }
      stage.memory_mb += sandbox_memory_mb(params_, processes, threads,
                                           pool_workers, fn_mem);
      stage.sandboxes += 1;
      stage.processes += processes;
      stage.threads += threads;
    }
    if (stage.memory_mb > peak.memory_mb) {
      const double cpus = peak.cpus;
      peak = stage;
      peak.cpus = cpus;
    }
  }
  peak.cpus = static_cast<double>(plan_.allocated_cpus());
  return peak;
}

}  // namespace chiron
