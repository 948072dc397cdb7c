// Integration tests: the full submit -> profile -> plan -> deploy ->
// simulate pipeline across modules, checking the paper's headline claims
// end to end.
#include <gtest/gtest.h>

#include "core/chiron.h"
#include "metrics/stats.h"
#include "platform/plan_backend.h"
#include "platform/systems.h"
#include "support/quiet_options.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

using testsupport::quiet_options;

TEST(EndToEndTest, DeployAndSimulateEveryWorkflow) {
  const SystemOptions opts = quiet_options();
  for (const Workflow& wf :
       {make_social_network(), make_movie_reviewing(), make_slapp(),
        make_slapp_v(), make_finra(5)}) {
    Chiron manager(ChironConfig{});
    const TimeMs slo = default_slo(wf, opts);
    const Deployment d = manager.deploy(wf, slo);
    ASSERT_TRUE(d.slo_met) << wf.name();
    WrapPlanBackend backend("Chiron", opts.params, wf, d.plan, opts.noise);
    Rng rng(1);
    const TimeMs measured = backend.mean_latency(rng, 5);
    // The deployment's measured latency respects the SLO (deterministic
    // ground truth, conservative planning).
    EXPECT_LE(measured, slo * 1.05) << wf.name();
    // And the conservative prediction brackets the measurement sanely.
    EXPECT_NEAR(measured, d.predicted_latency_ms,
                d.predicted_latency_ms * 0.30)
        << wf.name();
  }
}

TEST(EndToEndTest, SloViolationRateWithNoiseIsLow) {
  // Fig. 14: Chiron's violation rate averages ~1.3 % thanks to the
  // conservative predictor. With realistic jitter the violation rate over
  // repeated requests stays small.
  SystemOptions opts;  // default noise on
  const Workflow wf = make_slapp_v();
  const TimeMs slo = default_slo(wf, opts);
  const auto chiron = make_system("Chiron", wf, opts);
  Rng rng(2);
  int violations = 0;
  const int runs = 200;
  for (int i = 0; i < runs; ++i) {
    if (chiron->run(rng).e2e_latency_ms > slo) ++violations;
  }
  EXPECT_LT(static_cast<double>(violations) / runs, 0.08);
}

TEST(EndToEndTest, ChironParetoDominatesFaastlaneOnThroughput) {
  // §1: 19.5x over one-to-one and 7.6x over many-to-one on average; we
  // assert the direction and a conservative factor.
  const SystemOptions opts = quiet_options();
  double chiron_gain_vs_openfaas = 0.0;
  double chiron_gain_vs_faastlane = 0.0;
  int cases = 0;
  for (const Workflow& wf : {make_slapp(), make_finra(5), make_finra(50)}) {
    Rng r1(3), r2(3), r3(3);
    const SystemEval c =
        evaluate_system(*make_system("Chiron", wf, opts), opts.params, r1, 5);
    const SystemEval o = evaluate_system(*make_system("OpenFaaS", wf, opts),
                                         opts.params, r2, 5);
    const SystemEval f = evaluate_system(*make_system("Faastlane", wf, opts),
                                         opts.params, r3, 5);
    chiron_gain_vs_openfaas += c.throughput_rps / o.throughput_rps;
    chiron_gain_vs_faastlane += c.throughput_rps / f.throughput_rps;
    ++cases;
  }
  EXPECT_GT(chiron_gain_vs_openfaas / cases, 3.0);
  EXPECT_GT(chiron_gain_vs_faastlane / cases, 2.0);
}

TEST(EndToEndTest, GeneratedArtifactsCoverThePlan) {
  Chiron manager(ChironConfig{});
  const Workflow wf = make_movie_reviewing();
  const Deployment d = manager.deploy(wf, 300.0);
  std::size_t wraps = 0;
  for (const StagePlan& sp : d.plan.stages) wraps += sp.wrap_count();
  EXPECT_EQ(d.orchestrators.size(), wraps);
  // Every function appears in exactly one handler.
  for (const FunctionSpec& f : wf.functions()) {
    int importers = 0;
    for (const GeneratedWrap& g : d.orchestrators) {
      if (g.handler.find("import handler as " + f.name) != std::string::npos) {
        ++importers;
      }
    }
    EXPECT_EQ(importers, 1) << f.name;
  }
}

TEST(EndToEndTest, PredictorTracksBackendAcrossPlans) {
  // The white-box predictor and the (noise-free) ground-truth backend
  // agree within a tight band across heterogeneous plans — the property
  // PGP's search correctness rests on.
  const Workflow wf = make_slapp_v();
  std::vector<FunctionBehavior> behaviors;
  for (const FunctionSpec& f : wf.functions()) behaviors.push_back(f.behavior);
  Predictor predictor(
      PredictorConfig{RuntimeParams::defaults(), Runtime::kPython3, 1.0},
      behaviors);
  NoiseConfig quiet;
  quiet.jitter_sigma = 0.0;
  quiet.thread_contention = 0.0;
  quiet.run_sigma = 0.0;
  for (const WrapPlan& plan :
       {sand_plan(wf), faastlane_plan(wf), faastlane_t_plan(wf),
        faastlane_plus_plan(wf, 2)}) {
    WrapPlanBackend backend("gt", RuntimeParams::defaults(), wf, plan, quiet);
    Rng rng(4);
    const TimeMs actual = backend.run(rng).e2e_latency_ms;
    const TimeMs predicted = predictor.workflow_latency(plan);
    EXPECT_NEAR(predicted, actual, actual * 0.05);
  }
}

TEST(EndToEndTest, PeriodicReprofilingAdaptsToDrift) {
  // §3.4: "the Profiler and PGP are re-run periodically to update wraps,
  // enabling them to adapt to changes in the workload." A workload drift
  // (rules slow down 4x) invalidates the old plan; re-deploying with
  // fresh profiles restores the SLO (with more resources).
  const SystemOptions opts = quiet_options();
  const Workflow original = make_finra(25);

  std::vector<FunctionSpec> drifted_fns = original.functions();
  for (std::size_t i = 2; i < drifted_fns.size(); ++i) {
    drifted_fns[i].behavior = drifted_fns[i].behavior.scaled(4.0);
  }
  const Workflow drifted("FINRA-25-drifted", std::move(drifted_fns),
                         original.stages());

  const TimeMs slo = 200.0;
  Chiron manager(ChironConfig{});
  const Deployment old_deployment = manager.deploy(original, slo);
  ASSERT_TRUE(old_deployment.slo_met);

  // Old plan, drifted workload: the SLO is violated.
  WrapPlanBackend stale("stale", opts.params, drifted, old_deployment.plan,
                        opts.noise);
  Rng r1(6);
  EXPECT_GT(stale.mean_latency(r1, 5), slo);

  // Re-profile + re-plan on the drifted workload: SLO restored with a
  // bigger deployment.
  Chiron manager2(ChironConfig{});
  const Deployment fresh = manager2.deploy(drifted, slo);
  ASSERT_TRUE(fresh.slo_met);
  WrapPlanBackend adapted("adapted", opts.params, drifted, fresh.plan,
                          opts.noise);
  Rng r2(6);
  EXPECT_LE(adapted.mean_latency(r2, 5), slo * 1.02);
  EXPECT_GE(fresh.plan.allocated_cpus(),
            old_deployment.plan.allocated_cpus());
}

TEST(EndToEndTest, DecentralizedSchedulingHelpsWideWorkflows) {
  // §7: with many wraps, centralized dispatch serialises; decentralized
  // scheduling removes the (k-1)*T_INV term.
  const Workflow wf = make_finra(100);
  const WrapPlan plan = faastlane_plus_plan(wf, 5);  // 20 wraps
  NoiseConfig quiet;
  quiet.jitter_sigma = 0.0;
  quiet.thread_contention = 0.0;
  quiet.run_sigma = 0.0;
  RuntimeParams central;
  RuntimeParams decentral;
  decentral.decentralized_scheduling = true;
  WrapPlanBackend c("central", central, wf, plan, quiet);
  WrapPlanBackend d("decentral", decentral, wf, plan, quiet);
  Rng r1(7), r2(7);
  EXPECT_LT(d.run(r2).e2e_latency_ms + 20.0, c.run(r1).e2e_latency_ms);
}

TEST(EndToEndTest, JavaSuiteRunsTrueParallel) {
  // Fig. 18 premise: with Java (no GIL), thread-only Chiron still wins on
  // resources while latency matches the parallel baseline.
  const SystemOptions opts = quiet_options();
  const Workflow wf = as_java(make_slapp());
  Rng r1(5), r2(5);
  const SystemEval chiron =
      evaluate_system(*make_system("Chiron", wf, opts), opts.params, r1, 5);
  const SystemEval faastlane = evaluate_system(
      *make_system("Faastlane", wf, opts), opts.params, r2, 5);
  EXPECT_GT(chiron.throughput_rps, faastlane.throughput_rps);
}

}  // namespace
}  // namespace chiron
