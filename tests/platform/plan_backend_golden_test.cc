// Golden RunResult fingerprints: the parity oracle for the backend hot
// path. Every field of every RunResult — e2e and stage latencies, each
// function timeline and each of its spans (kind, begin, end), the state
// transition count — is folded bit-exactly into an FNV-1a hash over fixed
// seeded run sequences, and the hash is pinned. Any change to the
// simulated timelines, to the order of Rng draws, or to the Predictor /
// PGP plans the Chiron systems deploy moves a pinned value.
//
// The pins hold unchanged in Debug and Release builds: a hash mismatch is
// a behaviour change, not a stale constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/wrap.h"
#include "platform/plan_backend.h"
#include "platform/systems.h"
#include "support/fingerprint.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

using testsupport::Fnv;
using testsupport::hex;
using testsupport::with_runtime;

constexpr int kRuns = 50;

const std::vector<std::string>& all_systems() {
  static const std::vector<std::string> systems = {
      "ASF",         "OpenFaaS",    "SAND",        "Faastlane", "Faastlane-T",
      "Faastlane+",  "Faastlane-M", "Faastlane-P", "Faastlane-S",
      "Chiron",      "Chiron-M",    "Chiron-P",    "Chiron-S"};
  return systems;
}

void hash_result(Fnv& h, const RunResult& r) {
  h.real(r.e2e_latency_ms);
  h.word(r.stage_latency_ms.size());
  for (TimeMs t : r.stage_latency_ms) h.real(t);
  h.word(r.functions.size());
  for (const FunctionTimeline& tl : r.functions) {
    h.word(tl.id);
    h.real(tl.invoke_ms);
    h.real(tl.start_exec_ms);
    h.real(tl.finish_ms);
    h.word(tl.spans.size());
    for (const TimelineSpan& s : tl.spans) {
      h.word(static_cast<std::uint64_t>(s.kind));
      h.real(s.begin);
      h.real(s.end);
    }
  }
  h.word(r.state_transitions);
}

/// Hash of `kRuns` sequential requests drawn from one seeded Rng.
std::uint64_t fingerprint(const Backend& backend, std::uint64_t seed) {
  Fnv h;
  Rng rng(seed);
  for (int i = 0; i < kRuns; ++i) hash_result(h, backend.run(rng));
  return h.value();
}

/// Hash over all 13 systems deployed on `wf` with `opts`.
std::uint64_t systems_fingerprint(const Workflow& wf,
                                  const SystemOptions& opts) {
  Fnv h;
  std::uint64_t seed = 1;
  for (const std::string& system : all_systems()) {
    h.word(fingerprint(*make_system(system, wf, opts), seed++));
  }
  return h.value();
}

/// FINRA-10 on one CPU: two forked fetch processes, then two wraps of two
/// process groups each (one an orchestrator-thread group), so every wrap
/// runs more processes than the cap and takes the dilation path.
WrapPlan capped_plan(IsolationMode mode) {
  WrapPlan plan;
  plan.mode = mode;
  plan.cpu_cap = 1;
  StagePlan fetch;
  fetch.wraps.push_back(Wrap{{ProcessGroup{{0}, ExecMode::kProcess},
                              ProcessGroup{{1}, ExecMode::kProcess}}});
  StagePlan rules;
  rules.wraps.push_back(Wrap{{ProcessGroup{{2, 3, 4}, ExecMode::kThread},
                              ProcessGroup{{5, 6, 7}, ExecMode::kProcess}}});
  rules.wraps.push_back(Wrap{{ProcessGroup{{8, 9}, ExecMode::kProcess},
                              ProcessGroup{{10, 11}, ExecMode::kProcess}}});
  plan.stages = {fetch, rules};
  return plan;
}

TEST(PlanBackendGoldenTest, EvaluationSuiteAcrossAllSystems) {
  const std::vector<std::uint64_t> pinned = {
      0x1e0f4d1392b63a72ull, 0x3012cb31b4a4a421ull, 0x4d0af93bc71fb795ull,
      0x35992b0bb45245a9ull, 0xdbb7240b4faa1784ull, 0xc38fdd5cfac58b3full,
      0xb8902a48b33c46f1ull, 0xcac6872a03577423ull};
  const std::vector<Workflow> suite = evaluation_suite();
  ASSERT_EQ(suite.size(), pinned.size());
  const SystemOptions opts;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(hex(systems_fingerprint(suite[i], opts)), hex(pinned[i]))
        << suite[i].name();
  }
}

TEST(PlanBackendGoldenTest, JavaAndNodeJsWorkflows) {
  const SystemOptions opts;
  const Workflow sn = make_social_network();
  EXPECT_EQ(hex(systems_fingerprint(as_java(sn), opts)),
            hex(0xdd2acdaf8269c169ull));
  EXPECT_EQ(
      hex(systems_fingerprint(with_runtime(sn, Runtime::kNodeJs, "node18"),
                              opts)),
      hex(0xdec9568cb3a609fdull));
}

TEST(PlanBackendGoldenTest, ZeroJitter) {
  SystemOptions opts;
  opts.noise.jitter_sigma = 0.0;
  EXPECT_EQ(hex(systems_fingerprint(make_movie_reviewing(), opts)),
            hex(0x9cdca24c715b72aaull));
  EXPECT_EQ(hex(systems_fingerprint(make_finra(50), opts)),
            hex(0x97e8f31fb39a26bbull));
}

TEST(PlanBackendGoldenTest, StragglerAndTransferFaultsArmed) {
  FaultSpec spec;
  spec.straggler = 0.2;
  spec.transfer_error = 0.3;
  const FaultInjector faults(spec);
  SystemOptions opts;
  opts.noise.faults = &faults;
  EXPECT_EQ(hex(systems_fingerprint(make_social_network(), opts)),
            hex(0xac1becaf31548cc9ull));
  EXPECT_EQ(hex(systems_fingerprint(make_finra(50), opts)),
            hex(0x322a7a7137066960ull));
  const WrapPlanBackend capped("capped", RuntimeParams::defaults(),
                               make_finra(10),
                               capped_plan(IsolationMode::kNative), opts.noise);
  EXPECT_EQ(hex(fingerprint(capped, 7)), hex(0x5550799dd1690c31ull));
}

TEST(PlanBackendGoldenTest, CpuCappedMultiProcessPlanInEveryMode) {
  const Workflow wf = make_finra(10);
  const std::vector<std::pair<IsolationMode, std::uint64_t>> pinned = {
      {IsolationMode::kNative, 0x1e25216e00e7434full},
      {IsolationMode::kMpk, 0x164170da354f93b4ull},
      {IsolationMode::kSfi, 0x044109e82927f703ull},
      {IsolationMode::kPool, 0x5c982743c89320f6ull}};
  for (const auto& [mode, hash] : pinned) {
    const WrapPlanBackend backend("capped", RuntimeParams::defaults(), wf,
                                  capped_plan(mode));
    EXPECT_EQ(hex(fingerprint(backend, 11)), hex(hash))
        << "mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace chiron
