// The backend hot paths: a warm WrapPlanBackend or OneToOneBackend run()
// allocates only the RunResult it returns (bounded per call, constant from
// call to call), and one WrapPlanBackend shared by several threads gives
// each thread exactly the results it would get alone — the per-thread
// kernel scratch leaks nothing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "platform/plan_backend.h"
#include "platform/systems.h"
#include "support/alloc_counter.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

std::size_t group_count(const WrapPlan& plan) {
  std::size_t groups = 0;
  for (const StagePlan& sp : plan.stages) {
    for (const Wrap& w : sp.wraps) groups += w.process_count();
  }
  return groups;
}

TEST(PlanBackendAllocationTest, WarmRunAllocatesOnlyItsResult) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const Workflow wf = make_finra(50);
  const std::unique_ptr<Backend> backend =
      make_system("Chiron", wf, SystemOptions{});
  const auto* plan_backend =
      dynamic_cast<const WrapPlanBackend*>(backend.get());
  ASSERT_NE(plan_backend, nullptr);
  const std::size_t groups = group_count(plan_backend->plan());
  ASSERT_GT(groups, wf.stage_count());  // several GIL groups per request

  // What the result itself owns: the timeline and stage vectors, one span
  // vector per function; plus one task vector per kernel call and slack.
  const std::uint64_t bound =
      wf.function_count() + wf.stage_count() + groups + 8;
  Rng rng(42);
  std::uint64_t at_10 = 0;
  std::uint64_t at_1000 = 0;
  for (int call = 1; call <= 1000; ++call) {
    testsupport::ScopedAllocCounter counter;
    const RunResult result = backend->run(rng);
    const std::uint64_t allocs = counter.count();
    ASSERT_EQ(result.functions.size(), wf.function_count());
    if (call == 10) at_10 = allocs;
    if (call == 1000) at_1000 = allocs;
  }
  RecordProperty("allocs_call_10", std::to_string(at_10));
  RecordProperty("allocs_call_1000", std::to_string(at_1000));
  RecordProperty("allocs_bound", std::to_string(bound));
  EXPECT_LE(at_10, bound);
  EXPECT_LE(at_1000, bound);
  // Scratch is reused, not grown: the thousandth call costs what the
  // tenth did.
  EXPECT_EQ(at_10, at_1000);
}

// The one-to-one backend (each function in its own sandbox) has no kernel
// scratch: a run allocates the result's two vectors and one span vector
// per function, each sized once.
TEST(PlanBackendAllocationTest, OpenFaasRunAllocatesOnlyItsResult) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const Workflow wf = make_social_network();
  const std::unique_ptr<Backend> backend =
      make_system("OpenFaaS", wf, SystemOptions{});
  const std::uint64_t bound = wf.function_count() + 2;
  Rng rng(42);
  for (int call = 1; call <= 100; ++call) {
    testsupport::ScopedAllocCounter counter;
    const RunResult result = backend->run(rng);
    const std::uint64_t allocs = counter.count();
    ASSERT_EQ(result.functions.size(), wf.function_count());
    ASSERT_LE(allocs, bound) << "call " << call;
  }
}

/// Every bit of a RunResult, in a fixed order.
std::vector<std::uint64_t> bits(const RunResult& r) {
  std::vector<std::uint64_t> out;
  auto real = [&](double v) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  };
  real(r.e2e_latency_ms);
  out.push_back(r.stage_latency_ms.size());
  for (TimeMs t : r.stage_latency_ms) real(t);
  out.push_back(r.functions.size());
  for (const FunctionTimeline& tl : r.functions) {
    out.push_back(tl.id);
    real(tl.invoke_ms);
    real(tl.start_exec_ms);
    real(tl.finish_ms);
    out.push_back(tl.spans.size());
    for (const TimelineSpan& s : tl.spans) {
      out.push_back(static_cast<std::uint64_t>(s.kind));
      real(s.begin);
      real(s.end);
    }
  }
  out.push_back(r.state_transitions);
  return out;
}

std::vector<std::vector<std::uint64_t>> run_sequence(const Backend& backend,
                                                     std::uint64_t seed,
                                                     int runs) {
  std::vector<std::vector<std::uint64_t>> out;
  Rng rng(seed);
  for (int i = 0; i < runs; ++i) out.push_back(bits(backend.run(rng)));
  return out;
}

/// Four threads drive one shared backend at once, each with its own seed;
/// each must see exactly its sequential results.
void expect_concurrent_matches_sequential(const Backend& backend) {
  constexpr int kThreads = 4;
  constexpr int kRuns = 60;
  std::vector<std::vector<std::vector<std::uint64_t>>> sequential;
  for (int t = 0; t < kThreads; ++t) {
    sequential.push_back(run_sequence(backend, 100 + t, kRuns));
  }
  std::vector<std::vector<std::vector<std::uint64_t>>> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      concurrent[t] = run_sequence(backend, 100 + t, kRuns);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(concurrent[t] == sequential[t])
        << backend.name() << ": thread " << t
        << " diverged from its sequential results";
  }
}

TEST(PlanBackendConcurrencyTest, SharedNativeBackendMatchesSequential) {
  const Workflow wf = make_finra(10);
  expect_concurrent_matches_sequential(
      *make_system("Chiron", wf, SystemOptions{}));
  // A CPU cap under the process count adds the second-level simulation.
  WrapPlan capped = sand_plan(wf);
  capped.cpu_cap = 2;
  expect_concurrent_matches_sequential(WrapPlanBackend(
      "SAND-capped", RuntimeParams::defaults(), wf, std::move(capped)));
}

TEST(PlanBackendConcurrencyTest, SharedPoolBackendMatchesSequential) {
  expect_concurrent_matches_sequential(
      *make_system("Chiron-P", make_finra(10), SystemOptions{}));
}

}  // namespace
}  // namespace chiron
