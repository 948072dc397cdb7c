// WrapPlanBackend: executes any WrapPlan as a simulated timeline. All
// sandbox-sharing systems are instances of this backend with different
// plans and modes:
//
//   SAND         = sand_plan,        native
//   Faastlane    = faastlane_plan,   native      (-M: mpk, -P: pool)
//   Faastlane-T  = faastlane_t_plan, native
//   Faastlane+   = faastlane_plus_plan, native
//   Chiron       = PGP plan,         native      (-M: mpk, -P: pool)
//
// Ground truth differs from the Predictor in three ways: log-normal jitter
// on every duration, CPU dilation for co-resident threads (cache and
// allocator contention), and per-run re-sampling — giving Fig. 12/14 real
// error to measure.
#pragma once

#include "core/wrap.h"
#include "platform/backend.h"
#include "runtime/params.h"

namespace chiron {

/// Simulates a wrap-plan deployment of one workflow. run() may be called
/// from several threads at once: its working memory is per-thread scratch.
class WrapPlanBackend : public Backend {
 public:
  WrapPlanBackend(std::string name, RuntimeParams params, Workflow wf,
                  WrapPlan plan, NoiseConfig noise = {});

  std::string name() const override { return name_; }
  RunResult run(Rng& rng) const override;
  ResourceUsage resources() const override;

  const WrapPlan& plan() const { return plan_; }

 private:
  /// Simulates wrap `w`, which starts `shift` ms into the request, and
  /// appends its functions' timelines in final request time (scaled by
  /// `run_scale`) to `out`. `base` walks base_ in plan order. Returns the
  /// wrap-local completion time.
  TimeMs simulate_wrap(const Wrap& w, const FunctionBehavior*& base,
                       TimeMs shift, double run_scale, Rng& rng,
                       std::vector<FunctionTimeline>& out) const;

  /// Deterministic behaviour of `f` as it executes: isolation overhead
  /// (thread context) and co-resident-thread contention, before jitter.
  FunctionBehavior base_behavior(FunctionId f, bool thread_context,
                                 std::size_t co_resident) const;

  TimeMs jit(TimeMs value, Rng& rng) const;
  TimeMs spawn_gap() const;
  bool true_parallel() const;

  std::string name_;
  RuntimeParams params_;
  Workflow wf_;
  WrapPlan plan_;
  NoiseConfig noise_;
  Runtime runtime_;
  /// Every function's behaviour before jitter, in plan order (stage, wrap,
  /// group, member): the true behaviour plus, in a thread context, the
  /// isolation overhead and the modelled and residual co-resident
  /// contention. Only the jitter varies per request.
  std::vector<FunctionBehavior> base_;
};

}  // namespace chiron
