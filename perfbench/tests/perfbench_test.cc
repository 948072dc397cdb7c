// Tests of the benchmark itself: the catalogue matches BENCHMARK.json,
// every workload runs at a tiny size and emits every metric with its unit,
// a seed repeats its simulated fingerprint, and the correctness gate
// rejects corrupted outputs.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "checks.h"
#include "common/json.h"
#include "platform/cluster.h"
#include "platform/systems.h"
#include "report.h"
#include "workflow/benchmarks.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace json = chiron::json;

json::Value manifest() {
  std::ifstream in(PERFBENCH_MANIFEST);
  std::stringstream text;
  text << in.rdbuf();
  return json::parse(text.str());
}

RunOptions tiny(bool trace) {
  RunOptions opts;
  opts.seed = 7;
  opts.seconds = 0.0;
  opts.trace = trace;
  opts.tiny = true;
  return opts;
}

void expect_catalogue(const json::Value& listed,
                      const std::vector<MetricSpec>& specs) {
  std::set<std::pair<std::string, std::string>> from_manifest, from_code;
  for (const json::Value& m : listed.as_array()) {
    from_manifest.insert({m.at("name").as_string(), m.at("unit").as_string()});
  }
  for (const MetricSpec& s : specs) from_code.insert({s.name, s.unit});
  EXPECT_EQ(from_manifest, from_code);
}

TEST(Manifest, ListsTheRegistryAndTheCatalogue) {
  const json::Value m = manifest();
  std::vector<std::string> names;
  for (const json::Value& w : m.at("workloads").as_array()) {
    names.push_back(w.at("name").as_string());
  }
  EXPECT_EQ(names, WorkloadNames());
  expect_catalogue(m.at("end_to_end"), end_to_end_metrics());
  expect_catalogue(m.at("per_layer"), per_layer_metrics());
}

TEST(Registry, RefusesDuplicatesAndUnknownNames) {
  EXPECT_FALSE(RegisterWorkload("serve_finra", "again", nullptr));
  EXPECT_EQ(FindWorkload("no_such_workload"), nullptr);
}

class TinyWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyWorkload, EmitsEveryMetricWithItsUnit) {
  for (bool trace : {false, true}) {
    SCOPED_TRACE(trace ? "traced" : "untraced");
    const WorkloadOutcome out = RunWorkload(*FindWorkload(GetParam()), tiny(trace));
    ASSERT_TRUE(out.correct) << (out.errors.empty() ? "" : out.errors.front());
    EXPECT_GE(out.attempted, 1u);
    EXPECT_EQ(out.failed, 0u);
    const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
    const json::Value line =
        json::parse(result_json(true, out.attempted, out.failed,
                                out.metrics.to_json(specs)));
    const json::Value& metrics = line.at("metrics");
    EXPECT_EQ(metrics.as_object().size(), specs.size());
    for (const MetricSpec& s : specs) {
      ASSERT_TRUE(metrics.contains(s.name)) << s.name;
      EXPECT_EQ(metrics.at(s.name).at("unit").as_string(), s.unit) << s.name;
      EXPECT_TRUE(metrics.at(s.name).at("value").is_number()) << s.name;
      if (!trace) {
        EXPECT_GT(metrics.at(s.name).at("value").as_number(), 0.0) << s.name;
      }
    }
  }
}

TEST_P(TinyWorkload, SameSeedSameFingerprint) {
  const Workload& w = *FindWorkload(GetParam());
  const WorkloadOutcome a = RunWorkload(w, tiny(false));
  const WorkloadOutcome b = RunWorkload(w, tiny(true));
  ASSERT_TRUE(a.correct && b.correct);
  EXPECT_FALSE(a.fingerprint.empty());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  RunOptions other = tiny(false);
  other.seed = 8;
  EXPECT_NE(RunWorkload(w, other).fingerprint, a.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(
    All, TinyWorkload, ::testing::ValuesIn(WorkloadNames()),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

struct ServedCluster {
  chiron::ClusterConfig config;
  chiron::ClusterResult result;
};

ServedCluster small_faulty_run() {
  const chiron::Workflow wf = chiron::make_social_network();
  const chiron::SystemOptions opts;
  const auto backend = chiron::make_system("OpenFaaS", wf, opts);
  ServedCluster c;
  c.config.nodes = 4;
  c.config.offered_rps = 400.0;
  c.config.horizon_ms = 2000.0;
  c.config.faults = chiron::parse_fault_spec("cold=0.05,crash=0.05,node=0.5");
  c.config.retry.max_attempts = 2;
  c.config.retry.timeout_ms = 400.0;
  c.result = chiron::ClusterSimulator(c.config, opts.params)
                 .run(*backend, wf.stage_count());
  return c;
}

TEST(ClusterChecks, AcceptARealRunAndRejectEachCorruption) {
  const ServedCluster run = small_faulty_run();
  ASSERT_TRUE(check_cluster_result(run.result, run.config).empty());
  ASSERT_GT(run.result.completed, 0u);

  using Corrupt = void (*)(chiron::ClusterResult&);
  const std::pair<const char*, Corrupt> corruptions[] = {
      {"completed", [](chiron::ClusterResult& r) { ++r.completed; }},
      {"dropped", [](chiron::ClusterResult& r) { ++r.dropped; }},
      {"node completed",
       [](chiron::ClusterResult& r) { ++r.node_results[1].completed; }},
      {"node cold starts",
       [](chiron::ClusterResult& r) { ++r.node_results[0].cold_starts; }},
      {"node count", [](chiron::ClusterResult& r) { r.node_results.pop_back(); }},
      {"percentile order",
       [](chiron::ClusterResult& r) { r.p99_ms = r.p50_ms / 2; }},
      {"latency samples",
       [](chiron::ClusterResult& r) { r.latency_stats.add(1.0); }},
  };
  for (const auto& [what, corrupt] : corruptions) {
    chiron::ClusterResult bad = run.result;
    corrupt(bad);
    EXPECT_FALSE(check_cluster_result(bad, run.config).empty()) << what;
    EXPECT_NE(fingerprint(bad), fingerprint(run.result)) << what;
  }
}

TEST(ClusterChecks, HealthyConfigAllowsNoFaultActivity) {
  ServedCluster run = small_faulty_run();
  ASSERT_GT(run.result.failed, 0u);
  run.config.faults = chiron::FaultSpec{};
  EXPECT_FALSE(check_cluster_result(run.result, run.config).empty());
}

TEST(PlanChecks, EveryFunctionExactlyOnce) {
  const chiron::Workflow wf = chiron::make_social_network();
  chiron::WrapPlan plan = chiron::faastlane_plan(wf);
  EXPECT_TRUE(check_plan_placement(wf, plan).empty());

  chiron::WrapPlan duplicated = plan;
  auto& group = duplicated.stages[0].wraps[0].processes[0].functions;
  group.push_back(group.front());
  EXPECT_FALSE(check_plan_placement(wf, duplicated).empty());

  chiron::WrapPlan missing = plan;
  missing.stages.back().wraps.pop_back();
  EXPECT_FALSE(check_plan_placement(wf, missing).empty());
}

}  // namespace
}  // namespace perfbench
