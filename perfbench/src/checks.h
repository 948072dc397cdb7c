// Correctness gate: every serving run and every deploy plan is checked
// before any of its numbers are reported, and repeated runs of one seed
// must reproduce the same simulated fingerprint bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/wrap.h"
#include "platform/cluster.h"
#include "workflow/workflow.h"

namespace perfbench {

/// Run invariants of one ClusterSimulator::run: conservation
/// (offered == completed + timed_out + dropped), per-node sums equal to the
/// totals, one NodeResult per node, ordered finite percentiles, and no
/// fault activity in a healthy config. Returns one message per violation.
std::vector<std::string> check_cluster_result(
    const chiron::ClusterResult& result, const chiron::ClusterConfig& config);

/// Every function of `wf` appears exactly once in `plan`, in its own
/// stage. Independent of WrapPlan::validate. One message per violation.
std::vector<std::string> check_plan_placement(const chiron::Workflow& wf,
                                              const chiron::WrapPlan& plan);

/// Every simulated field of `result` (not request_id_base, which is a
/// process-unique id block), floats written exactly.
std::string fingerprint(const chiron::ClusterResult& result);

/// Exact text of a double, for fingerprints.
std::string exact(double value);

/// 64-bit FNV-1a of `text`, for printing fingerprints compactly.
std::uint64_t fnv1a(const std::string& text);

}  // namespace perfbench
