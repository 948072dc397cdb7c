// Heap traffic of the PGP deploy search. A Kernighan–Lin pair evaluation
// simulates only the two candidate process groups, in the Predictor's
// thread-local task scratch, so once warm it allocates no more than the
// two simulation results; the counted total also carries the outer loop,
// the cached workflow-level predictions, packing and CPU minimisation,
// spread over thousands of evaluations. A per-evaluation copy of a
// behaviour, a cache key or a Wrap would add several allocations to every
// evaluation and break the bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/pgp.h"
#include "platform/systems.h"
#include "support/alloc_counter.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

constexpr double kMaxAllocsPerEvaluation = 8.0;

std::vector<FunctionBehavior> true_behaviors(const Workflow& wf) {
  std::vector<FunctionBehavior> out;
  for (const FunctionSpec& f : wf.functions()) out.push_back(f.behavior);
  return out;
}

/// Allocations per KL evaluation of one schedule() on a fresh scheduler
/// with `threads` deploy threads. The counter is process-wide, so pooled
/// runs also count the lanes' work, the lazy pool spawn and the round
/// hand-offs.
double allocs_per_evaluation(const Workflow& wf, TimeMs slo,
                             std::size_t threads = 1) {
  PgpConfig config;
  config.deploy_threads = threads;
  const PgpScheduler scheduler(config, wf, true_behaviors(wf));
  testsupport::ScopedAllocCounter counter;
  const PgpResult result = scheduler.schedule(slo);
  const std::uint64_t allocs = counter.count();
  EXPECT_GT(result.stats.kl_evaluations, 1000u);
  return static_cast<double>(allocs) /
         static_cast<double>(result.stats.kl_evaluations);
}

TEST(PgpAllocationTest, KlEvaluationsStayAllocationLight) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const Workflow wf = make_finra(50);
  const TimeMs slo = default_slo(wf, SystemOptions{});
  const double first = allocs_per_evaluation(wf, slo);
  const double second = allocs_per_evaluation(wf, slo);
  EXPECT_LE(first, kMaxAllocsPerEvaluation) << "second " << second;
  EXPECT_LE(second, kMaxAllocsPerEvaluation) << "first " << first;
  // The second scheduler starts with an empty prediction cache too; only
  // the thread-local scratch is warm, so a count that grew would mean the
  // scratch is rebuilt rather than reused.
  EXPECT_LE(second, first);
}

// A fanned-out round costs a handful of allocations (its snapshot and
// result slots, plus a hand-off when a lane has to be woken); lanes reuse
// thread-local copies of the working sets, so nothing is allocated per
// cell.
TEST(PgpAllocationTest, PooledKlEvaluationsStayAllocationLight) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const Workflow wf = make_finra(50);
  const TimeMs slo = default_slo(wf, SystemOptions{});
  const double pooled = allocs_per_evaluation(wf, slo, 4);
  RecordProperty("allocs_per_evaluation", std::to_string(pooled));
  EXPECT_LE(pooled, kMaxAllocsPerEvaluation);
}

}  // namespace
}  // namespace chiron
