// Internal state machinery shared by the interleaving kernels
// (GilSimulator in gil.cc, CpuShareSimulator in resources.cc). Both the
// fast event-driven kernels and their linear-scan slow_reference
// counterparts run exactly these helpers, so per-task transitions are
// identical by construction and parity only hinges on event ordering.
//
// Not installed / not part of the public surface: include only from
// runtime/*.cc.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/gil.h"

namespace chiron {
namespace interleave_detail {

constexpr TimeMs kEps = 1e-9;

enum class State : std::uint8_t { kNotReady, kRunnable, kBlocked, kDone };

struct TaskState {
  const FunctionBehavior* behavior = nullptr;
  std::size_t seg = 0;        // index of current segment
  TimeMs seg_remaining = 0.0; // remaining time in current segment
  State state = State::kNotReady;
  TimeMs ready = 0.0;
  TimeMs unblock = 0.0;
  TimeMs cpu = 0.0;
  TimeMs start = -1.0;
  TimeMs finish = 0.0;
  std::vector<TimelineSpan> spans;
};

inline void push_span(TaskState& t, bool record, TimelineSpan::Kind kind,
                      TimeMs b, TimeMs e) {
  if (!record || e - b <= kEps) return;
  if (!t.spans.empty() && t.spans.back().kind == kind &&
      std::abs(t.spans.back().end - b) <= kEps) {
    t.spans.back().end = e;
  } else {
    t.spans.push_back({kind, b, e});
  }
}

// Moves `t` into its segment `seg` at time `now`: becomes blocked, runnable,
// or done. Returns true if the task finished.
inline bool enter_segment(TaskState& t, TimeMs now, bool record) {
  const auto& segs = t.behavior->segments();
  while (t.seg < segs.size() && segs[t.seg].duration <= kEps) ++t.seg;
  if (t.seg >= segs.size()) {
    t.state = State::kDone;
    t.finish = now;
    return true;
  }
  const Segment& s = segs[t.seg];
  t.seg_remaining = s.duration;
  if (s.kind == Segment::Kind::kBlock) {
    t.state = State::kBlocked;
    t.unblock = now + s.duration;
    if (t.start < 0.0) t.start = now;
    push_span(t, record, TimelineSpan::Kind::kBlock, now, t.unblock);
  } else {
    t.state = State::kRunnable;
  }
  return false;
}

// Copies each task's outcome out; span lists become exact-size vectors,
// so the per-task span buffers stay behind for the next run.
inline InterleaveResult collect(std::span<const TaskState> states) {
  InterleaveResult result;
  result.tasks.resize(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const TaskState& t = states[i];
    TaskResult& r = result.tasks[i];
    r.ready_ms = t.ready;
    r.start_ms = t.start < 0.0 ? t.finish : t.start;
    r.finish_ms = t.finish;
    r.cpu_ms = t.cpu;
    r.spans.assign(t.spans.begin(), t.spans.end());
    result.makespan = std::max(result.makespan, r.finish_ms);
  }
  return result;
}

// Resets the first tasks.size() entries of `pool` (growing it if needed)
// to the initial state of `tasks` and returns them. Entries keep their
// span buffers' capacity, so a pool reused across runs records spans
// without allocating once warm.
inline std::span<TaskState> init_states(std::vector<TaskState>& pool,
                                        std::span<const ThreadTask> tasks) {
  if (pool.size() < tasks.size()) pool.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    std::vector<TimelineSpan> spans = std::move(pool[i].spans);
    spans.clear();
    pool[i] = TaskState{.behavior = &tasks[i].behavior,
                        .ready = tasks[i].ready_ms,
                        .spans = std::move(spans)};
  }
  return {pool.data(), tasks.size()};
}

// Next-event calendar entry: the wake time (arrival or unblock) of one
// task that is not runnable. Each such task has exactly one pending entry,
// popped when that transition is admitted, so entries are never stale.
struct Ev {
  TimeMs at;
  std::size_t id;
};
struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.id > b.id;
  }
};

// Binary-heap push / pop on a reused vector: the exact operations
// std::priority_queue performs, minus owning the container.
template <typename T, typename Later>
void heap_push(std::vector<T>& heap, const T& value, Later later) {
  heap.push_back(value);
  std::push_heap(heap.begin(), heap.end(), later);
}

template <typename T, typename Later>
void heap_pop(std::vector<T>& heap, Later later) {
  std::pop_heap(heap.begin(), heap.end(), later);
  heap.pop_back();
}

}  // namespace interleave_detail
}  // namespace chiron
