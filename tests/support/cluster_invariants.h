// Run invariants every ClusterResult must satisfy, as gtest expectations,
// shared by the serving-loop tests.
#pragma once

#include <cstddef>

#include "platform/cluster.h"

namespace chiron {
namespace testsupport {

/// Checks `result`, a run_prepared run under `config` with `capacity`
/// instances per node, against the laws of the serving model:
/// conservation (exact when a deadline is armed; without one a request
/// stranded in a queue never ends), one NodeResult per node summing to
/// the totals, at most one crash per node, peak_instances <= nodes *
/// capacity; the registry in config.metrics (fed by this run alone)
/// against the result, per node too, including cold_start + crash +
/// node_crash faults == failed; and, through config.recorder, each request's events in
/// record order: admission first, time never going back, one terminal
/// event last, terminal events tallying to completed / timed_out /
/// dropped.
void check_cluster_invariants(const ClusterResult& result,
                              const ClusterConfig& config,
                              std::size_t capacity);

}  // namespace testsupport
}  // namespace chiron
