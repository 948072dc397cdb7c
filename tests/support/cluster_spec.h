// Executable specification of the cluster serving model: the oracle
// ClusterSimulator::run_prepared is checked against at every node count.
//
// A plain, sequential rendering of the model DESIGN.md describes. It
// shares no serving data structure with the engine: each node keeps a
// std::vector warm pool scanned linearly and a std::deque queue erased
// eagerly, and every event, arrivals included, goes through one closure
// EventQueue ordered by (time, seq). It shares only the model's contract:
//  * the Rng order: the run seed's first split is the arrival process,
//    the second draws service times in event order, the third is the
//    Router's;
//  * the Router, fed views taken after reaping every node;
//  * the FaultInjector decisions, keyed by arrival index and attempt;
//  * the points where busy-instance time is integrated (account()).
//    mean_busy_instances is a float sum, and integrating an interval in
//    two pieces changes its bits, so account() runs exactly at a
//    dispatch, a completion, a crash, the timeout of a running request
//    and a node crash.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/cluster.h"

namespace chiron {
namespace testsupport {

/// Serves `arrivals` (nondecreasing, as ArrivalGenerator emits them)
/// under `config` against `backend` and returns the ClusterResult that
/// ClusterSimulator(config, params).run_prepared(backend,
/// cascading_stages, arrivals, id_base) must return, bit for bit. The
/// spec has no observability: config.tracer, config.metrics and
/// config.recorder are ignored.
ClusterResult serve_spec(const ClusterConfig& config,
                         const RuntimeParams& params, const Backend& backend,
                         std::size_t cascading_stages,
                         const std::vector<TimeMs>& arrivals,
                         std::uint64_t id_base);

}  // namespace testsupport
}  // namespace chiron
