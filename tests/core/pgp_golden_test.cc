// Golden PGP plans: the parity oracle for the deploy search. Every
// observable output of PgpScheduler::schedule — the serialized plan, the
// exact bits of the predicted latency, slo_met, the chosen process count
// and all three PgpStats counters — is folded into an FNV-1a hash over a
// fixed grid of workflows, isolation modes and SLOs, and the hash is
// pinned. Any change to the plans PGP commits, to the Predictor values it
// reports, or to the amount of search work it counts moves a pinned value.
//
// The pins hold unchanged in Debug and Release builds: a hash mismatch is
// a behaviour change, not a stale constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/pgp.h"
#include "core/plan_io.h"
#include "platform/systems.h"
#include "support/fingerprint.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

using testsupport::Fnv;
using testsupport::hex;
using testsupport::with_runtime;

std::vector<FunctionBehavior> true_behaviors(const Workflow& wf) {
  std::vector<FunctionBehavior> out;
  for (const FunctionSpec& f : wf.functions()) out.push_back(f.behavior);
  return out;
}

void hash_result(Fnv& h, const PgpResult& r) {
  h.text(serialize_plan(r.plan));
  h.real(r.predicted_latency_ms);
  h.word(r.slo_met ? 1 : 0);
  h.word(r.processes);
  h.word(r.stats.outer_iterations);
  h.word(r.stats.kl_evaluations);
  h.word(r.stats.predictor_calls);
}

/// Hash of scheduling `wf` under each of `modes` at the default SLO and at
/// 0.8x and 3x of it.
std::uint64_t plans_fingerprint(const Workflow& wf, PgpConfig config,
                                const std::vector<IsolationMode>& modes) {
  const TimeMs slo = default_slo(wf, SystemOptions{});
  Fnv h;
  for (IsolationMode mode : modes) {
    config.mode = mode;
    const PgpScheduler scheduler(config, wf, true_behaviors(wf));
    for (double factor : {1.0, 0.8, 3.0}) {
      hash_result(h, scheduler.schedule(slo * factor));
    }
  }
  return h.value();
}

const std::vector<IsolationMode> kThreadModes = {
    IsolationMode::kNative, IsolationMode::kMpk, IsolationMode::kSfi};

TEST(PgpGoldenTest, EvaluationSuiteAcrossModesAndSlos) {
  const std::vector<std::uint64_t> pinned = {
      0x901fbc02d1a80322ull, 0xe1aca119302d5184ull, 0xd4bb4af9b40fc3bdull,
      0x8f2b21267934a199ull, 0xfb198f96c61eb164ull, 0x93f0be8fd0cc635dull,
      0xaf139a4842f93bb7ull, 0xdbd8119141904c73ull};
  const std::vector<Workflow> suite = evaluation_suite();
  ASSERT_EQ(suite.size(), pinned.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(hex(plans_fingerprint(suite[i], PgpConfig{}, kThreadModes)),
              hex(pinned[i]))
        << suite[i].name();
  }
}

TEST(PgpGoldenTest, JavaAndNodeJsSocialNetwork) {
  const Workflow sn = make_social_network();
  PgpConfig java;
  java.runtime = Runtime::kJava;
  EXPECT_EQ(hex(plans_fingerprint(as_java(sn), java, kThreadModes)),
            hex(0x4c535584a3826d1cull));
  PgpConfig node;
  node.runtime = Runtime::kNodeJs;
  EXPECT_EQ(hex(plans_fingerprint(with_runtime(sn, Runtime::kNodeJs, "node18"),
                                  node, kThreadModes)),
            hex(0x060781ca08a337dfull));
}

TEST(PgpGoldenTest, WholeWrapSimulations) {
  // Java threads and pool workers share one simulation per wrap, so KL
  // evaluates whole wraps there.
  PgpConfig java;
  java.runtime = Runtime::kJava;
  EXPECT_EQ(hex(plans_fingerprint(as_java(make_finra(25)), java,
                                  {IsolationMode::kNative})),
            hex(0xf4de29301c5c36c5ull));
  EXPECT_EQ(hex(plans_fingerprint(make_finra(25), PgpConfig{},
                                  {IsolationMode::kPool})),
            hex(0x83886dd5152f1206ull));
}

TEST(PgpGoldenTest, WithoutKernighanLin) {
  PgpConfig config;
  config.use_kl = false;
  EXPECT_EQ(hex(plans_fingerprint(make_finra(50), config, kThreadModes)),
            hex(0x3744c034cbd6b3acull));
}

}  // namespace
}  // namespace chiron
