// Kernighan–Lin refinement between two function sets (paper Algorithm 2,
// KernighanLin(A, B)): greedily pick the swap that minimises the predicted
// latency, lock the swapped pair, repeat until one side is exhausted, then
// apply the prefix of swaps with the best cumulative gain.
//
// Unlike the classical edge-cut KL, the cost of a configuration here is an
// arbitrary latency functional (GIL simulation of both process contents),
// so the gain of a swap depends on the whole working configuration — which
// is exactly why the paper keeps the KL working-copy discipline.
#pragma once

#include <functional>
#include <vector>

#include "common/types.h"

namespace chiron {

/// Latency of deploying the two candidate function sets (with everything
/// else held fixed); PGP supplies this from the Predictor.
///
/// Contract: eval(a, b) must depend only on (a, b) and state that is
/// constant for the duration of one kernighan_lin() call. PGP exploits
/// this with an incremental evaluator (pgp.cc StageEvaluator) that keeps
/// every untouched group's process latency frozen across the pass and
/// simulates only the two candidate sets per call — the values are
/// identical to a full stage re-layout, only cheaper.
using PairLatencyEval =
    std::function<TimeMs(const std::vector<FunctionId>& a,
                         const std::vector<FunctionId>& b)>;

/// Outcome of one KL refinement.
struct KlResult {
  std::vector<FunctionId> a;
  std::vector<FunctionId> b;
  TimeMs latency = 0.0;          ///< eval(a, b) of the returned sets
  std::size_t swaps_applied = 0; ///< k, the applied prefix length
  std::size_t evaluations = 0;   ///< eval() calls consumed (for §7 stats)
};

/// Refines (a, b) with one KL pass. `eval` must be callable with any
/// disjoint re-distribution of the elements of a and b.
KlResult kernighan_lin(std::vector<FunctionId> a, std::vector<FunctionId> b,
                       const PairLatencyEval& eval);

}  // namespace chiron
