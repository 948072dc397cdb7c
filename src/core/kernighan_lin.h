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

#include <cstddef>
#include <functional>
#include <vector>

#include "common/types.h"

namespace chiron {

class ThreadPool;

/// Latency of deploying the two candidate function sets (with everything
/// else held fixed); PGP supplies this from the Predictor.
///
/// Contract: eval(a, b) must depend only on (a, b) and state that is
/// constant for the duration of one kernighan_lin() call (so a candidate
/// evaluated twice gets the same value), and it must be
/// thread-safe: with a pool, one round's candidates are evaluated
/// concurrently, each call on its own (a, b) vectors. PGP exploits the
/// first half with an incremental evaluator (pgp.cc StageEvaluator) that
/// keeps every untouched group's process latency frozen across the pass
/// and simulates only the two candidate sets per call — the values are
/// identical to a full stage re-layout, only cheaper.
using PairLatencyEval =
    std::function<TimeMs(const std::vector<FunctionId>& a,
                         const std::vector<FunctionId>& b)>;

/// Rounds with fewer candidate swaps than this run inline on the caller
/// even when a pool is given. Such rounds are ~2% of a FINRA-50 deploy's
/// candidates; on deploy_suite (4 CPUs) a threshold of 8 measured the same
/// as 24 and one of 64 ran 4-9% slower.
inline constexpr std::size_t kKlParallelMinCells = 24;

/// Outcome of one KL refinement.
struct KlResult {
  std::vector<FunctionId> a;
  std::vector<FunctionId> b;
  TimeMs latency = 0.0;          ///< eval(a, b) of the returned sets
  std::size_t swaps_applied = 0; ///< k, the applied prefix length
  std::size_t evaluations = 0;   ///< candidates evaluated (for §7 stats)
};

/// Refines (a, b) with one KL pass. `eval` must be callable with any
/// disjoint re-distribution of the elements of a and b.
///
/// With a `pool`, each round of at least kKlParallelMinCells candidate
/// swaps is evaluated by the caller and up to pool->size() pool workers
/// (the lanes), each on its own copy of the working sets, claiming cells
/// of the round's row-major grid from a shared cursor into a per-round
/// result array. The caller then reduces that array in row-major order
/// with the sequential loop's strict `<`, so the result (ties and NaN
/// included) and `evaluations` are exactly those of `pool == nullptr`. The
/// caller does not wait for a lane mid-cell: it evaluates any cell still
/// in flight itself, so eval() may run more often than `evaluations`
/// counts. Called from a pool worker thread, the pass runs inline
/// (ThreadPool's nesting rule).
KlResult kernighan_lin(std::vector<FunctionId> a, std::vector<FunctionId> b,
                       const PairLatencyEval& eval,
                       ThreadPool* pool = nullptr);

}  // namespace chiron
