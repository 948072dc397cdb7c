#include "support/cluster_invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace chiron {
namespace testsupport {
namespace {

bool is_terminal(obs::RecKind kind) {
  return kind == obs::RecKind::kComplete || kind == obs::RecKind::kTimeout ||
         kind == obs::RecKind::kDrop;
}

void check_metrics(const ClusterResult& r, obs::MetricsRegistry& metrics) {
  auto count = [&](const std::string& name) {
    return metrics.counter(name).value();
  };
  auto of = [](std::size_t n) { return static_cast<std::int64_t>(n); };
  EXPECT_EQ(count("cluster.cold_starts"), of(r.cold_starts));
  EXPECT_EQ(count("chiron.retry.attempts"), of(r.retried));
  EXPECT_EQ(count("chiron.request.timeout"), of(r.timed_out));
  EXPECT_EQ(count("chiron.fault.injected.cold_start") +
                count("chiron.fault.injected.crash") +
                count("chiron.fault.injected.node_crash"),
            of(r.failed));
  EXPECT_EQ(count("chiron.fault.injected"),
            of(r.failed) + count("chiron.fault.injected.straggler"));
  EXPECT_DOUBLE_EQ(metrics.gauge("cluster.queue_depth").high_water(),
                   static_cast<double>(r.peak_queue));
  for (std::size_t k = 0; k < r.node_results.size(); ++k) {
    EXPECT_EQ(count("cluster.node." + std::to_string(k) + ".cold_starts"),
              of(r.node_results[k].cold_starts));
  }
}

void check_timelines(const ClusterResult& r,
                     const obs::FlightRecorder& recorder,
                     bool deadline_armed) {
  ASSERT_EQ(recorder.dropped_count(), 0u) << "recorder too small for the run";
  // Each request's events in record order.
  std::vector<std::vector<obs::RecorderEvent>> timelines(r.offered);
  for (const obs::RecorderEvent& ev : recorder.snapshot()) {
    if (ev.request < r.request_id_base) continue;
    const std::uint64_t i = ev.request - r.request_id_base;
    if (i < r.offered) timelines[i].push_back(ev);
  }
  std::size_t completed = 0, timed_out = 0, dropped = 0;
  for (std::size_t i = 0; i < r.offered; ++i) {
    SCOPED_TRACE("request index " + std::to_string(i));
    const std::vector<obs::RecorderEvent>& timeline = timelines[i];
    ASSERT_FALSE(timeline.empty());
    EXPECT_EQ(timeline.front().kind, obs::RecKind::kAdmit);
    for (std::size_t e = 1; e < timeline.size(); ++e) {
      EXPECT_LE(timeline[e - 1].ts_ms, timeline[e].ts_ms);
    }
    const auto terminals =
        std::count_if(timeline.begin(), timeline.end(),
                      [](const obs::RecorderEvent& ev) {
                        return is_terminal(ev.kind);
                      });
    // Without a deadline a request stranded in a queue never ends.
    if (terminals == 0 && !deadline_armed) continue;
    EXPECT_EQ(terminals, 1);
    switch (timeline.back().kind) {
      case obs::RecKind::kComplete: ++completed; break;
      case obs::RecKind::kTimeout: ++timed_out; break;
      case obs::RecKind::kDrop: ++dropped; break;
      default:
        ADD_FAILURE() << "timeline ends with "
                      << to_string(timeline.back().kind);
        break;
    }
  }
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(timed_out, r.timed_out);
  EXPECT_EQ(dropped, r.dropped);
}

}  // namespace

void check_cluster_invariants(const ClusterResult& r,
                              const ClusterConfig& config,
                              std::size_t capacity) {
  // Conservation.
  EXPECT_LE(r.completed + r.timed_out + r.dropped, r.offered);
  if (config.retry.timeout_ms > 0.0) {
    EXPECT_EQ(r.completed + r.timed_out + r.dropped, r.offered);
  }

  // Per-node accounting.
  const std::size_t nodes = std::max<std::size_t>(1, config.nodes);
  ASSERT_EQ(r.node_results.size(), nodes);
  std::size_t completed = 0, cold_starts = 0, node_crashes = 0;
  for (const NodeResult& node : r.node_results) {
    completed += node.completed;
    cold_starts += node.cold_starts;
    node_crashes += node.node_crashes;
    EXPECT_LE(node.node_crashes, 1u);
    EXPECT_LE(node.peak_queue, r.peak_queue);
  }
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(cold_starts, r.cold_starts);
  EXPECT_EQ(node_crashes, r.node_crashes);
  if (config.faults.node_crash == 0.0) {
    EXPECT_EQ(r.node_crashes, 0u);
  }
  EXPECT_LE(r.peak_instances, nodes * capacity);

  if (config.metrics) check_metrics(r, *config.metrics);
  if (config.recorder && config.recorder->enabled()) {
    check_timelines(r, *config.recorder, config.retry.timeout_ms > 0.0);
  }
}

}  // namespace testsupport
}  // namespace chiron
