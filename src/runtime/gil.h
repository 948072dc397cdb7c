// Execution interleaving engines.
//
// GilSimulator reproduces CPython's GIL switching (paper Fig. 2): at most
// one thread executes bytecode at a time; the holder is preempted after the
// switch interval when other threads are runnable; blocking operations drop
// the GIL and proceed concurrently; the next holder is the runnable thread
// with the least accumulated CPU time (CFS, §3.3 Algorithm 1 line 17).
//
// CpuShareSimulator (runtime/resources.h) models true parallelism on a
// bounded number of CPUs with fluid processor sharing — the behaviour of
// Java threads and of a process pool pinned to k cores (paper §4, Fig. 7).
//
// Both engines consume the same ThreadTask inputs and produce the same
// result shape, so every deployment backend and the Predictor share them.
//
// Each engine ships two implementations: run() is the event-driven
// O(E log N) kernel (next-event calendar + indexed run queue) that every
// caller uses, and run_slow_reference() is the original scan-per-step
// O(E*N) loop kept as the semantic reference — parity tests assert the
// two return bit-identical results (see DESIGN.md "Prediction kernel
// complexity & scenario sweeps").
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "workflow/behavior.h"

namespace chiron {

/// One schedulable unit: a behaviour trace plus the time it becomes ready.
struct ThreadTask {
  FunctionBehavior behavior;
  TimeMs ready_ms = 0.0;
};

/// A contiguous span of one thread's timeline (Fig. 5-style output).
struct TimelineSpan {
  enum class Kind : std::uint8_t { kWait, kCpu, kBlock };
  Kind kind = Kind::kCpu;
  TimeMs begin = 0.0;
  TimeMs end = 0.0;
};

/// Per-task outcome.
struct TaskResult {
  TimeMs ready_ms = 0.0;
  TimeMs start_ms = 0.0;   ///< first instant the task made progress
  TimeMs finish_ms = 0.0;  ///< completion time
  TimeMs cpu_ms = 0.0;     ///< CPU time actually consumed
  std::vector<TimelineSpan> spans;  ///< populated iff span recording is on

  TimeMs latency() const { return finish_ms - ready_ms; }
};

/// Result of simulating a task set to completion.
struct InterleaveResult {
  std::vector<TaskResult> tasks;
  TimeMs makespan = 0.0;  ///< max finish time (absolute)
};

/// GIL pseudo-parallel interleaving (one bytecode stream at a time).
class GilSimulator {
 public:
  /// `switch_interval_ms` is the preemption timeout (CPython default 5 ms).
  /// `switch_cost_ms` is wall-clock lost on every GIL handoff to a
  /// different thread (condition-variable wakeup, cache refill); the
  /// white-box Predictor models it as zero, the ground-truth simulator
  /// charges it — one source of honest prediction error (Fig. 12).
  explicit GilSimulator(TimeMs switch_interval_ms, bool record_spans = false,
                        TimeMs switch_cost_ms = 0.0);

  /// Simulates all tasks to completion. Deterministic. O(E log N) in the
  /// number of scheduling events E (segment entries, preemptions,
  /// arrivals) via a next-event calendar and a CFS pick heap. Its working
  /// state lives in per-thread scratch reused across calls, so a warm
  /// call allocates only the result (one task vector plus one exact-size
  /// span vector per task that recorded spans). Thread-safe.
  InterleaveResult run(std::span<const ThreadTask> tasks) const;

  /// The original O(E*N) scan-per-step loop, kept as the semantic
  /// reference for parity tests. Bit-identical to run().
  InterleaveResult run_slow_reference(std::span<const ThreadTask> tasks) const;

 private:
  TimeMs switch_interval_;
  bool record_spans_;
  TimeMs switch_cost_;
};

/// Builds staggered thread tasks: task i becomes ready at
/// `i * spawn_gap_ms` (the main thread starts children one per interval,
/// Algorithm 1 lines 4–5).
std::vector<ThreadTask> staggered_tasks(
    const std::vector<FunctionBehavior>& behaviors, TimeMs spawn_gap_ms);

}  // namespace chiron
