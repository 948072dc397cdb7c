#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

#include "alloc_count.h"
#include "checks.h"
#include "common/rng.h"
#include "core/chiron.h"
#include "core/generator.h"
#include "core/pgp.h"
#include "core/plan_io.h"
#include "core/predictor.h"
#include "core/profiler.h"
#include "host.h"
#include "metrics/stats.h"
#include "obs/metrics.h"
#include "platform/cluster.h"
#include "platform/plan_backend.h"
#include "platform/systems.h"
#include "workflow/benchmarks.h"

namespace perfbench {
namespace {

using chiron::ClusterConfig;
using chiron::ClusterResult;
using chiron::Deployment;
using chiron::TimeMs;
using chiron::Workflow;

// ---------------------------------------------------------------- registry

std::vector<Workload>& registry() {
  static std::vector<Workload> workloads;
  return workloads;
}

// ----------------------------------------------------------------- helpers

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9E3779B97F4A7C15ull);
  return chiron::splitmix64(state);
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Throws on an empty input (every caller has at least one sample).
double median(const std::vector<double>& values) {
  return chiron::percentile(values, 50.0);
}

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

/// Median of every per-rep sample collected under one metric name.
class RepSamples {
 public:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  /// The program no longer publishes the source of `name`.
  void mark_absent(const std::string& name) { absent_.insert(name); }
  void report_medians(MetricSet& metrics) const {
    for (const auto& [name, values] : samples_) {
      metrics.set(name, median(values));
    }
    for (const std::string& name : absent_) metrics.set_absent(name);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::set<std::string> absent_;
};

/// Sets every per-layer metric under `prefix` to 0: that layer is not on
/// this workload's timed path.
void zero_layer(MetricSet& metrics, const std::string& prefix) {
  for (const MetricSpec& s : per_layer_metrics()) {
    if (s.name.rfind(prefix, 0) == 0) metrics.set(s.name, 0.0);
  }
}

/// Counter value from a registry snapshot; nullopt when the program does
/// not publish it.
std::optional<double> counter_value(const chiron::json::Value& snapshot,
                                    const std::string& name) {
  const chiron::json::Value& counters = snapshot.at("counters");
  if (!counters.contains(name)) return std::nullopt;
  return counters.at(name).as_number();
}

std::string timed_loop_note(const std::vector<double>& untraced_s, bool trace) {
  const auto [lo, hi] = std::minmax_element(untraced_s.begin(), untraced_s.end());
  return std::to_string(untraced_s.size()) + " untraced reps" +
         (trace ? " alternating with traced ones" : "") + "; untraced min " +
         fmt("%.4f", *lo) + " s, median " + fmt("%.4f", median(untraced_s)) +
         " s, max " + fmt("%.4f", *hi) + " s";
}

// Timing Backend decorator owned by the benchmark. Without a trace it only
// forwards. With one attached it records a "platform.backend.run" span per
// call, under whatever span is open, and the heap allocations made inside.
class TimedBackend final : public chiron::Backend {
 public:
  explicit TimedBackend(std::unique_ptr<chiron::Backend> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  chiron::ResourceUsage resources() const override {
    return inner_->resources();
  }

  chiron::RunResult run(chiron::Rng& rng) const override {
    if (!trace_) return inner_->run(rng);
    // Allocation attribution reads one process-wide counter, so it is
    // exact only while calls are sequential — they are, since the
    // benchmark leaves ClusterConfig::sim_threads at its default.
    const std::uint64_t a0 = alloc_count();
    const std::int64_t t0 = now_ns();
    chiron::RunResult result = inner_->run(rng);
    const std::int64_t t1 = now_ns();
    const std::uint64_t a1 = alloc_count();
    std::lock_guard<std::mutex> lock(mu_);
    allocs_ += a1 - a0;
    trace_->add(span_name_, t0, t1);
    return result;
  }

  /// Starts (trace != null) or stops recording.
  void attach(SpanTrace* trace) {
    std::lock_guard<std::mutex> lock(mu_);
    trace_ = trace;
    allocs_ = 0;
    if (trace) span_name_ = trace->intern("platform.backend.run");
  }
  std::uint64_t allocs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return allocs_;
  }

 private:
  std::unique_ptr<chiron::Backend> inner_;
  mutable std::mutex mu_;
  SpanTrace* trace_ = nullptr;
  std::uint32_t span_name_ = 0;
  mutable std::uint64_t allocs_ = 0;
};

/// Times set-ups. The first builds the state the timed reps use and is
/// timed from process start; more (results discarded) are interleaved with
/// the timed reps, so the samples span the whole run. setup_s is their
/// median.
template <typename Setup>
class SetupTimer {
 public:
  SetupTimer(std::function<Setup()> setup, const RunOptions& opts)
      : setup_(std::move(setup)) {
    const std::int64_t t0 =
        opts.process_start_ns > 0 ? opts.process_start_ns : now_ns();
    kept_.emplace(setup_());
    times_.push_back(seconds_since(t0));
  }

  const Setup& kept() const { return *kept_; }

  /// Sets up again for about `budget_s`, at least once.
  void sample(double budget_s) {
    const std::int64_t start = now_ns();
    do {
      const std::int64_t t0 = now_ns();
      const Setup discarded = setup_();
      times_.push_back(seconds_since(t0));
    } while (seconds_since(start) < budget_s);
  }

  double median_s() const { return median(times_); }
  std::size_t count() const { return times_.size(); }

 private:
  std::function<Setup()> setup_;
  std::optional<Setup> kept_;
  std::vector<double> times_;
};

/// Share of each timed rep's duration spent on interleaved set-ups.
constexpr double kSetupShare = 0.1;

// ----------------------------------------------------------------- serving

struct ServeSpec {
  Workflow (*workflow)();
  std::string system;  ///< make_system name
  std::size_t nodes = 1;
  chiron::RouterPolicy router = chiron::RouterPolicy::kRoundRobin;
  double rps = 0.0;
  chiron::ArrivalKind arrivals = chiron::ArrivalKind::kPoisson;
  TimeMs horizon_ms = 0.0;
  TimeMs keep_alive_ms = 0.0;  ///< 0 = ClusterConfig's default
  std::string faults;          ///< parse_fault_spec text; empty = healthy
  chiron::RetryPolicy retry;
};

Workflow finra50() { return chiron::make_finra(50); }
Workflow social_network() { return chiron::make_social_network(); }

struct ServeSetup {
  Workflow wf;
  chiron::RuntimeParams params;
  std::unique_ptr<TimedBackend> backend;
  std::size_t cascading_stages = 1;
  ClusterConfig config;
};

ServeSetup setup_serve(const ServeSpec& spec, std::uint64_t seed, bool tiny) {
  ServeSetup s{spec.workflow(), {}, nullptr, 1, {}};
  chiron::SystemOptions opts;  // fixed deployment seed: the seed varies traffic
  opts.slo_ms = chiron::default_slo(s.wf, opts);
  s.params = opts.params;
  s.backend = std::make_unique<TimedBackend>(
      chiron::make_system(spec.system, s.wf, opts));
  // One-to-one platforms cold-start each stage only when a request reaches
  // it; a wrap deployment scales out as one unit.
  const bool one_to_one = spec.system == "OpenFaaS" || spec.system == "ASF";
  s.cascading_stages = one_to_one ? s.wf.stage_count() : 1;

  ClusterConfig& c = s.config;
  c.nodes = spec.nodes;
  c.router = spec.router;
  c.offered_rps = spec.rps;
  c.arrivals = spec.arrivals;
  c.horizon_ms = tiny ? std::min(spec.horizon_ms, 2000.0) : spec.horizon_ms;
  if (spec.keep_alive_ms > 0.0) c.keep_alive_ms = spec.keep_alive_ms;
  if (!spec.faults.empty()) c.faults = chiron::parse_fault_spec(spec.faults);
  c.faults.seed = mix(seed, 2);
  c.retry = spec.retry;
  c.seed = mix(seed, 1);
  return s;
}

struct ServeRep {
  ClusterResult result;
  double run_s = 0.0;
};

/// One ClusterSimulator::run; only the run itself is timed.
ServeRep serve_once(const ServeSetup& s, const ClusterConfig& config) {
  const chiron::ClusterSimulator sim(config, s.params);
  const std::int64_t t0 = now_ns();
  ClusterResult result = sim.run(*s.backend, s.cascading_stages);
  const double run_s = seconds_since(t0);
  return {std::move(result), run_s};
}

/// One traced run: backend spans under a cluster span, allocation counts,
/// and the simulator's own counters through an injected registry.
ServeRep serve_traced(const ServeSetup& s, SpanTrace& trace,
                      RepSamples& layers) {
  chiron::obs::MetricsRegistry registry;
  ClusterConfig config = s.config;
  config.metrics = &registry;
  trace.clear();
  trace.reserve(static_cast<std::size_t>(
                    config.offered_rps * config.horizon_ms / 1000.0 * 1.5) +
                64);
  const std::uint32_t run_name = trace.intern("platform.cluster.run");
  s.backend->attach(&trace);
  set_alloc_counting(true);
  const std::uint64_t a0 = alloc_count();
  const std::int32_t root = trace.begin(run_name);
  ServeRep rep = serve_once(s, config);
  trace.end(root);
  const std::uint64_t total_allocs = alloc_count() - a0;
  set_alloc_counting(false);
  const std::uint64_t backend_allocs = s.backend->allocs();
  s.backend->attach(nullptr);

  const ClusterResult& r = rep.result;
  const std::vector<std::int64_t> calls_ns =
      trace.durations_ns("platform.backend.run");
  const double calls = static_cast<double>(calls_ns.size());
  const double run_ms =
      static_cast<double>(trace.spans()[root].duration_ns()) / 1e6;
  const double backend_ms = trace.total_ms("platform.backend.run");
  const double loop_ms = trace.self_ms(root);
  std::vector<double> call_us;
  call_us.reserve(calls_ns.size());
  for (std::int64_t ns : calls_ns) call_us.push_back(static_cast<double>(ns) / 1e3);
  const double offered = static_cast<double>(std::max<std::size_t>(r.offered, 1));

  layers.add("platform.backend.calls", calls);
  layers.add("platform.backend.ms", backend_ms);
  layers.add("platform.backend.share", run_ms > 0.0 ? backend_ms / run_ms : 0.0);
  layers.add("platform.backend.us_per_call_p50",
             call_us.empty() ? 0.0 : chiron::percentile(call_us, 50.0));
  layers.add("platform.backend.us_per_call_p99",
             call_us.empty() ? 0.0 : chiron::percentile(call_us, 99.0));
  layers.add("platform.backend.allocs_per_call",
             calls > 0 ? static_cast<double>(backend_allocs) / calls : 0.0);
  layers.add("platform.backend.useful_ratio",
             calls > 0 ? static_cast<double>(r.completed) / calls : 0.0);
  layers.add("platform.cluster.loop_ms", loop_ms);
  layers.add("platform.cluster.loop_ns_per_attempt",
             calls > 0 ? loop_ms * 1e6 / calls : 0.0);
  layers.add("platform.cluster.allocs_per_req",
             static_cast<double>(total_allocs - backend_allocs) / offered);

  const chiron::json::Value snapshot = registry.to_json();
  for (const auto& [metric, counter] :
       std::vector<std::pair<std::string, std::string>>{
           {"platform.cluster.sim_windows", "cluster.sim.windows"},
           {"platform.cluster.sim_transfers", "cluster.sim.transfers"},
           {"platform.cluster.sim_barrier_routed",
            "cluster.sim.barrier_routed"}}) {
    const std::optional<double> v = counter_value(snapshot, counter);
    if (v) {
      layers.add(metric, *v);
    } else {
      layers.mark_absent(metric);
    }
  }
  return rep;
}

/// Per-layer values that are model outputs: identical on every rep.
void report_model_layers(const ClusterResult& r, MetricSet& m) {
  std::size_t max_routed = 0, sum_routed = 0;
  for (const chiron::NodeResult& n : r.node_results) {
    max_routed = std::max(max_routed, n.routed);
    sum_routed += n.routed;
  }
  const double mean_routed =
      r.node_results.empty()
          ? 0.0
          : static_cast<double>(sum_routed) /
                static_cast<double>(r.node_results.size());
  m.set("platform.router.routed_imbalance",
        mean_routed > 0.0 ? static_cast<double>(max_routed) / mean_routed : 0.0);
  m.set("platform.cluster.peak_queue", static_cast<double>(r.peak_queue));
  m.set("platform.cluster.peak_instances", static_cast<double>(r.peak_instances));
  m.set("platform.cluster.mean_busy_instances", r.mean_busy_instances);
  m.set("platform.cluster.cold_starts_per_kreq",
        r.offered ? 1000.0 * static_cast<double>(r.cold_starts) /
                        static_cast<double>(r.offered)
                  : 0.0);
  m.set("fault.failed", static_cast<double>(r.failed));
  m.set("fault.retried", static_cast<double>(r.retried));
  m.set("fault.timed_out", static_cast<double>(r.timed_out));
  m.set("fault.dropped", static_cast<double>(r.dropped));
  m.set("fault.node_crashes", static_cast<double>(r.node_crashes));
}

WorkloadOutcome run_serve(const ServeSpec& spec, const RunOptions& opts) {
  WorkloadOutcome out;
  SetupTimer<ServeSetup> setups(
      [&] { return setup_serve(spec, opts.seed, opts.tiny); }, opts);
  const ServeSetup& s = setups.kept();

  std::vector<double> untraced_s, traced_s;
  RepSamples layers;
  std::optional<ClusterResult> first;
  std::size_t reps = 0;
  double rss_mb = 0.0;
  const std::size_t min_reps = opts.trace ? 4 : 2;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  while (reps < min_reps || now_ns() < deadline) {
    const bool traced = opts.trace && reps % 2 == 1;
    SpanTrace scratch;
    SpanTrace& trace = traced && traced_s.empty() ? out.trace : scratch;
    const ServeRep rep = traced ? serve_traced(s, trace, layers)
                                : serve_once(s, s.config);
    (traced ? traced_s : untraced_s).push_back(rep.run_s);
    if (reps == 0) rss_mb = peak_rss_mib();
    if (!opts.trace) setups.sample(kSetupShare * rep.run_s);
    ++reps;
    ++out.attempted;
    std::vector<std::string> errors = check_cluster_result(rep.result, s.config);
    if (!first) {
      first = rep.result;
    } else if (fingerprint(rep.result) != fingerprint(*first)) {
      errors.push_back("rep " + std::to_string(reps) +
                       " differs from rep 1 under the same seed");
    }
    if (!errors.empty()) {
      ++out.failed;
      for (const std::string& e : errors) out.fail(e);
    }
  }
  const ClusterResult& r = *first;
  out.fingerprint = fingerprint(r);
  const double setup_s = setups.median_s();
  const double run_s = median(untraced_s);
  const double offered = static_cast<double>(r.offered);
  const double plan_cpus = s.backend->resources().cpus;

  if (opts.trace) {
    MetricSet& m = out.metrics;
    layers.report_medians(m);
    report_model_layers(r, m);
    zero_layer(m, "core.");
    const double traced = median(traced_s);
    m.set("obs.bench_trace_overhead_pct",
          run_s > 0.0 ? 100.0 * (traced - run_s) / run_s : 0.0);
  } else {
    MetricSet& m = out.metrics;
    m.set("host_ops_per_s", run_s > 0.0 ? offered / run_s : 0.0);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", rss_mb);
    m.set("sim_p50_ms", r.p50_ms);
    m.set("sim_p99_ms", r.p99_ms);
    m.set("sim_goodput_ratio",
          offered > 0.0 ? static_cast<double>(r.completed) / offered : 0.0);
    m.set("plan_cpus", plan_cpus);
  }

  auto& lines = out.report;
  lines.push_back("workload: " + s.backend->name() + " on " + s.wf.name() +
                  ", " + std::to_string(s.config.nodes) + " nodes, router " +
                  chiron::to_string(s.config.router) + ", " +
                  fmt("%.0f", s.config.offered_rps) + " rps offered over " +
                  fmt("%.0f", s.config.horizon_ms / 1000.0) + " s simulated");
  lines.push_back("timed loop: " + timed_loop_note(untraced_s, opts.trace));
  lines.push_back("serve_req_per_s = " + fmt("%.1f", offered / run_s) +
                  " req/s (host; median ClusterSimulator::run " +
                  fmt("%.4f", run_s) + " s)");
  lines.push_back("setup_s = " + fmt("%.6f", setup_s) + " s (median of " +
                  std::to_string(setups.count()) + ")");
  lines.push_back("sim_p50_ms = " + fmt("%.3f", r.p50_ms) + " ms (n=" +
                  std::to_string(r.completed) + ")");
  lines.push_back("sim_p99_ms = " + fmt("%.3f", r.p99_ms) + " ms (n=" +
                  std::to_string(r.completed) + ")");
  lines.push_back("sim_goodput_ratio = " +
                  fmt("%.6f", static_cast<double>(r.completed) / offered) +
                  " (" + std::to_string(r.completed) + " of " +
                  std::to_string(r.offered) + "; timed_out " +
                  std::to_string(r.timed_out) + ", dropped " +
                  std::to_string(r.dropped) + ")");
  lines.push_back("sim_cold_starts_per_kreq = " +
                  fmt("%.3f", 1000.0 * static_cast<double>(r.cold_starts) /
                                  offered) +
                  " count/1000 req (" + std::to_string(r.cold_starts) + ")");
  lines.push_back("plan_cpus = " + fmt("%.0f", plan_cpus) + " CPUs");
  return out;
}

// --------------------------------------------------------------- deploying

struct DeployItem {
  std::size_t workflow = 0;  ///< index into DeploySetup::suite
  TimeMs slo_ms = 0.0;
  chiron::ChironConfig config;
};

struct DeploySetup {
  std::vector<Workflow> suite;
  std::vector<DeployItem> items;
  chiron::SystemOptions opts;
};

DeploySetup setup_deploy(std::uint64_t seed, bool tiny) {
  DeploySetup s;
  s.suite = chiron::evaluation_suite();
  if (tiny) {
    // SN, MR, SLApp, SLApp-V, FINRA-5: the suite minus its large FINRAs.
    s.suite.resize(std::min<std::size_t>(s.suite.size(), 5));
  }
  for (std::size_t w = 0; w < s.suite.size(); ++w) {
    const TimeMs slo = chiron::default_slo(s.suite[w], s.opts);
    for (chiron::IsolationMode mode :
         {chiron::IsolationMode::kNative, chiron::IsolationMode::kMpk,
          chiron::IsolationMode::kPool}) {
      DeployItem item;
      item.workflow = w;
      item.slo_ms = slo;
      item.config.params = s.opts.params;
      item.config.mode = mode;
      item.config.seed = mix(seed, 3);
      s.items.push_back(item);
    }
  }
  return s;
}

std::string deployment_fingerprint(const Deployment& d) {
  return chiron::serialize_plan(d.plan) + "|" + exact(d.predicted_latency_ms) +
         "|" + std::to_string(d.slo_met) + "|" + std::to_string(d.processes) +
         "|" + std::to_string(d.stats.outer_iterations) + "," +
         std::to_string(d.stats.kl_evaluations) + "," +
         std::to_string(d.stats.predictor_calls);
}

/// The planning phase of Chiron::deploy, rebuilt from its phase classes so
/// a traced pass can time it on its own.
chiron::WrapPlan replay_planning(const DeploySetup& s, const DeployItem& item,
                                 const std::vector<chiron::FunctionBehavior>& b) {
  const Workflow& wf = s.suite[item.workflow];
  const chiron::ChironConfig& c = item.config;
  const chiron::Runtime runtime = wf.function(0).runtime;
  if (c.mode == chiron::IsolationMode::kPool) {
    const chiron::Predictor predictor(
        chiron::PredictorConfig{c.params, runtime, c.conservative_factor,
                                c.prediction_cache},
        b);
    chiron::WrapPlan plan = chiron::pool_plan(wf);
    const TimeMs target =
        std::min(item.slo_ms, predictor.workflow_latency(plan) * 1.10);
    return chiron::PgpScheduler::with_min_cpus(predictor, std::move(plan),
                                               target);
  }
  chiron::PgpConfig pgp;
  pgp.params = c.params;
  pgp.mode = c.mode;
  pgp.runtime = runtime;
  pgp.conservative_factor = c.conservative_factor;
  pgp.use_kl = c.use_kl;
  pgp.deploy_threads = c.deploy_threads;
  pgp.prediction_cache = c.prediction_cache;
  return chiron::PgpScheduler(pgp, wf, b).schedule(item.slo_ms).plan;
}

struct PassResult {
  std::vector<Deployment> deployments;
  double deploy_s = 0.0;  ///< time inside Chiron::deploy
};

/// One pass of Chiron::deploy over every item. With a trace, also replays
/// each deploy's phases under their own spans and records layer samples.
PassResult deploy_pass(const DeploySetup& s, SpanTrace* trace,
                       RepSamples* layers) {
  PassResult pass;
  pass.deployments.reserve(s.items.size());
  if (!trace) {
    const std::int64_t t0 = now_ns();
    for (const DeployItem& item : s.items) {
      chiron::Chiron chiron(item.config);
      pass.deployments.push_back(
          chiron.deploy(s.suite[item.workflow], item.slo_ms));
    }
    pass.deploy_s = seconds_since(t0);
    return pass;
  }

  trace->clear();
  const std::uint32_t pass_name = trace->intern("bench.deploy_pass");
  const std::uint32_t deploy_name = trace->intern("core.deploy");
  const std::uint32_t profiler_name = trace->intern("core.profiler");
  const std::uint32_t pgp_name = trace->intern("core.pgp");
  const std::uint32_t generator_name = trace->intern("core.generator");
  chiron::obs::MetricsRegistry& global = chiron::obs::MetricsRegistry::global();
  double hits = 0.0, misses = 0.0, allocs = 0.0, matches = 0.0;
  bool cache_absent = false;
  // Counting stays on for the phase replays too, so that deploy and its
  // replayed phases pay the same counting cost and other_ms compares like
  // with like.
  set_alloc_counting(true);
  const ScopedSpan pass_span(trace, pass_name);
  for (const DeployItem& item : s.items) {
    const Workflow& wf = s.suite[item.workflow];
    const chiron::json::Value before = global.to_json();
    const std::uint64_t a0 = alloc_count();
    {
      const ScopedSpan span(trace, deploy_name);
      chiron::Chiron chiron(item.config);
      pass.deployments.push_back(chiron.deploy(wf, item.slo_ms));
    }
    allocs += static_cast<double>(alloc_count() - a0);
    const chiron::json::Value after = global.to_json();
    for (auto [name, sum] :
         {std::pair<const char*, double*>{"chiron.predictor.cache.hit", &hits},
          std::pair<const char*, double*>{"chiron.predictor.cache.miss",
                                          &misses}}) {
      const std::optional<double> b = counter_value(before, name);
      const std::optional<double> a = counter_value(after, name);
      if (a) {
        *sum += *a - b.value_or(0.0);
      } else {
        cache_absent = true;
      }
    }

    // Phase replay: the same profiler stream a fresh Chiron draws first.
    chiron::Rng rng(item.config.seed);
    std::vector<chiron::Profile> profiles;
    {
      const ScopedSpan span(trace, profiler_name);
      chiron::Profiler profiler(item.config.profiler, rng.split());
      profiles = profiler.profile_workflow(wf);
    }
    const std::vector<chiron::FunctionBehavior> behaviors =
        chiron::Profiler::behaviors(profiles);
    chiron::WrapPlan plan;
    {
      const ScopedSpan span(trace, pgp_name);
      plan = replay_planning(s, item, behaviors);
    }
    {
      const ScopedSpan span(trace, generator_name);
      const auto wraps = chiron::generate_orchestrators(wf, plan);
      const std::string yaml = chiron::generate_stack_yaml(wf, plan);
      if (wraps.empty() || yaml.empty()) {
        throw std::runtime_error("generator produced no artifacts");
      }
    }
    if (chiron::serialize_plan(plan) ==
        chiron::serialize_plan(pass.deployments.back().plan)) {
      matches += 1.0;
    }
  }
  set_alloc_counting(false);
  pass.deploy_s = trace->total_ms("core.deploy") / 1e3;

  double outer = 0.0, kl = 0.0, predictor_calls = 0.0;
  for (const Deployment& d : pass.deployments) {
    outer += static_cast<double>(d.stats.outer_iterations);
    kl += static_cast<double>(d.stats.kl_evaluations);
    predictor_calls += static_cast<double>(d.stats.predictor_calls);
  }
  const double profiler_ms = trace->total_ms("core.profiler");
  const double pgp_ms = trace->total_ms("core.pgp");
  const double generator_ms = trace->total_ms("core.generator");
  layers->add("core.profiler.ms", profiler_ms);
  layers->add("core.pgp.ms", pgp_ms);
  layers->add("core.generator.ms", generator_ms);
  layers->add("core.deploy.other_ms", trace->total_ms("core.deploy") -
                                          profiler_ms - pgp_ms - generator_ms);
  layers->add("core.deploy.allocs", allocs);
  layers->add("core.pgp.outer_iterations", outer);
  layers->add("core.pgp.kl_evaluations", kl);
  layers->add("core.pgp.predictor_calls", predictor_calls);
  layers->add("core.phase_replay.match_ratio",
              matches / static_cast<double>(s.items.size()));
  if (cache_absent) {
    layers->mark_absent("core.prediction_cache.hit_ratio");
  } else {
    layers->add("core.prediction_cache.hit_ratio",
                hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  }
  return pass;
}

constexpr int kServedRunsPerPlan = 50;

struct ServedPlans {
  double err_pct = 0.0;           ///< mean |predicted - served| / served
  std::vector<double> latencies;  ///< every served request, pooled
};

/// Serves each deployment kServedRunsPerPlan times on WrapPlanBackend and
/// compares the Predictor's estimate with the served mean (Fig. 12).
ServedPlans serve_plans(const DeploySetup& s,
                        const std::vector<Deployment>& deployments,
                        std::uint64_t seed) {
  ServedPlans served;
  double err_sum = 0.0;
  for (std::size_t i = 0; i < deployments.size(); ++i) {
    const Deployment& d = deployments[i];
    const chiron::WrapPlanBackend backend(
        "Chiron", s.opts.params, s.suite[s.items[i].workflow], d.plan,
        s.opts.noise);
    chiron::Rng rng(mix(seed, 100 + i));
    double sum = 0.0;
    for (int k = 0; k < kServedRunsPerPlan; ++k) {
      const TimeMs latency = backend.run(rng).e2e_latency_ms;
      served.latencies.push_back(latency);
      sum += latency;
    }
    const double mean = sum / kServedRunsPerPlan;
    err_sum += std::abs(d.predicted_latency_ms - mean) / mean;
  }
  served.err_pct = 100.0 * err_sum / static_cast<double>(deployments.size());
  return served;
}

WorkloadOutcome run_deploy_suite(const RunOptions& opts) {
  WorkloadOutcome out;
  SetupTimer<DeploySetup> setups(
      [&] { return setup_deploy(opts.seed, opts.tiny); }, opts);
  const DeploySetup& s = setups.kept();

  std::vector<double> untraced_s, traced_s;
  RepSamples layers;
  std::vector<Deployment> first_pass, last_pass;
  std::string first_fp;
  std::size_t reps = 0;
  double rss_mb = 0.0;
  const std::size_t min_reps = opts.trace ? 4 : 2;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  while (reps < min_reps || now_ns() < deadline) {
    const bool traced = opts.trace && reps % 2 == 1;
    SpanTrace scratch;
    SpanTrace& trace = traced && traced_s.empty() ? out.trace : scratch;
    PassResult pass = deploy_pass(s, traced ? &trace : nullptr, &layers);
    (traced ? traced_s : untraced_s).push_back(pass.deploy_s);
    if (reps == 0) rss_mb = peak_rss_mib();
    if (!opts.trace) setups.sample(kSetupShare * pass.deploy_s);
    ++reps;
    out.attempted += pass.deployments.size();
    std::string fp;
    for (std::size_t i = 0; i < pass.deployments.size(); ++i) {
      const Deployment& d = pass.deployments[i];
      const Workflow& wf = s.suite[s.items[i].workflow];
      std::vector<std::string> errors = check_plan_placement(wf, d.plan);
      try {
        d.plan.validate(wf);
      } catch (const std::exception& e) {
        errors.push_back(std::string("WrapPlan::validate: ") + e.what());
      }
      if (!errors.empty()) {
        ++out.failed;
        for (const std::string& e : errors) out.fail(wf.name() + ": " + e);
      }
      fp += deployment_fingerprint(d) + "\n";
    }
    if (first_fp.empty()) {
      first_fp = fp;
      first_pass = std::move(pass.deployments);
    } else {
      if (fp != first_fp) {
        out.fail("pass " + std::to_string(reps) +
                 " planned differently from pass 1 under the same seed");
      }
      last_pass = std::move(pass.deployments);
    }
  }

  const double setup_s = setups.median_s();
  // Served validation of the plans, twice: both passes' plans must give
  // the same bits.
  const ServedPlans served = serve_plans(s, first_pass, opts.seed);
  if (!last_pass.empty()) {
    const ServedPlans again = serve_plans(s, last_pass, opts.seed);
    if (again.err_pct != served.err_pct || again.latencies != served.latencies) {
      out.fail("served validation differs between passes");
    }
  }
  out.fingerprint = first_fp + "predict_err_pct=" + exact(served.err_pct);

  std::size_t slo_met = 0, cpus = 0;
  for (const Deployment& d : first_pass) {
    slo_met += d.slo_met ? 1 : 0;
    cpus += d.plan.allocated_cpus();
  }
  const double deploys = static_cast<double>(first_pass.size());
  const double pass_s = median(untraced_s);
  const double p50 = chiron::percentile(served.latencies, 50.0);
  const double p99 = chiron::percentile(served.latencies, 99.0);

  MetricSet& m = out.metrics;
  if (opts.trace) {
    layers.report_medians(m);
    m.set("core.predictor.err_pct", served.err_pct);
    zero_layer(m, "platform.");
    zero_layer(m, "fault.");
    const double traced = median(traced_s);
    m.set("obs.bench_trace_overhead_pct",
          pass_s > 0.0 ? 100.0 * (traced - pass_s) / pass_s : 0.0);
  } else {
    m.set("host_ops_per_s", pass_s > 0.0 ? deploys / pass_s : 0.0);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", rss_mb);
    m.set("sim_p50_ms", p50);
    m.set("sim_p99_ms", p99);
    m.set("sim_goodput_ratio", static_cast<double>(slo_met) / deploys);
    m.set("plan_cpus", static_cast<double>(cpus));
  }

  auto& lines = out.report;
  lines.push_back("workload: Chiron::deploy of " + std::to_string(s.suite.size()) +
                  " workflows x {native, mpk, pool} = " +
                  std::to_string(s.items.size()) + " deploys per pass");
  lines.push_back("timed loop: " + timed_loop_note(untraced_s, opts.trace));
  lines.push_back("deploy_suite_ms = " + fmt("%.3f", pass_s * 1e3) +
                  " ms (host; median pass)");
  lines.push_back("setup_s = " + fmt("%.6f", setup_s) + " s (median of " +
                  std::to_string(setups.count()) + ")");
  lines.push_back("plan_cpus = " + std::to_string(cpus) + " CPUs");
  lines.push_back("predict_err_pct = " + fmt("%.4f", served.err_pct) +
                  " % (served mean of " + std::to_string(kServedRunsPerPlan) +
                  " WrapPlanBackend::run calls per plan)");
  lines.push_back("sim_p50_ms = " + fmt("%.3f", p50) + " ms, sim_p99_ms = " +
                  fmt("%.3f", p99) + " ms (n=" +
                  std::to_string(served.latencies.size()) +
                  " served requests, pooled over the plans)");
  lines.push_back("slo_met = " + std::to_string(slo_met) + " of " +
                  std::to_string(first_pass.size()) + " deploys");
  return out;
}

// --------------------------------------------------------------- workloads

const ServeSpec& finra_spec() {
  static const ServeSpec spec = [] {
    ServeSpec s;
    s.workflow = finra50;
    s.system = "Chiron";
    s.nodes = 8;
    s.router = chiron::RouterPolicy::kWarmAffinity;
    s.rps = 500.0;
    s.arrivals = chiron::ArrivalKind::kPoisson;
    s.horizon_ms = 80000.0;
    return s;
  }();
  return spec;
}

const ServeSpec& churn_spec() {
  static const ServeSpec spec = [] {
    ServeSpec s;
    s.workflow = social_network;
    s.system = "OpenFaaS";
    s.nodes = 64;
    s.router = chiron::RouterPolicy::kLeastOutstanding;
    s.rps = 1600.0;
    s.arrivals = chiron::ArrivalKind::kBurst;
    s.horizon_ms = 100000.0;
    s.keep_alive_ms = 500.0;
    s.faults = "cold=0.05,crash=0.03@0.5,node=0.2";
    s.retry.max_attempts = 3;
    s.retry.timeout_ms = 1000.0;
    return s;
  }();
  return spec;
}

const bool kRegistered = [] {
  RegisterWorkload(
      "deploy_suite",
      "Chiron::deploy of the 8 paper workflows x {native, mpk, pool}: the "
      "core layers (profiler, PGP, KL, predictor) and no serving",
      run_deploy_suite);
  RegisterWorkload(
      "serve_finra",
      "FINRA-50 on Chiron (WrapPlanBackend), 8 nodes, warm_affinity, "
      "Poisson 500 rps: backend.run is ~95% of serving time",
      [](const RunOptions& o) { return run_serve(finra_spec(), o); });
  RegisterWorkload(
      "serve_churn",
      "SocialNetwork on OpenFaaS, 64 nodes, burst 1600 rps, faults + retry + "
      "timeout: loop, router and recovery paths carry ~26% of serving time",
      [](const RunOptions& o) { return run_serve(churn_spec(), o); });
  return true;
}();

}  // namespace

bool RegisterWorkload(std::string name, std::string why, WorkloadFunction run) {
  if (FindWorkload(name)) return false;
  registry().push_back({std::move(name), std::move(why), std::move(run)});
  return true;
}

std::vector<std::string> WorkloadNames() {
  (void)kRegistered;
  std::vector<std::string> names;
  for (const Workload& w : registry()) names.push_back(w.name);
  return names;
}

const Workload* FindWorkload(const std::string& name) {
  (void)kRegistered;
  for (const Workload& w : registry()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadOutcome RunWorkload(const Workload& w, const RunOptions& opts) {
  const double load_start = load_average_1min();
  WorkloadOutcome out = w.run(opts);
  out.load1_start = load_start;
  out.load1_end = load_average_1min();
  if (opts.trace) {
    out.metrics.set("host.nproc", online_cpus());
    out.metrics.set("host.load1_start", out.load1_start);
    out.metrics.set("host.load1_end", out.load1_end);
  }
  for (const std::string& name : out.metrics.missing(
           opts.trace ? per_layer_metrics() : end_to_end_metrics())) {
    out.fail("metric " + name + " was not measured");
  }
  return out;
}

std::vector<std::string> run_crosscheck(std::uint64_t seed) {
  std::vector<std::string> lines;
  const std::pair<Workflow (*)(), const char*> rows[] = {
      {social_network, "Chiron"}, {finra50, "Chiron"}, {finra50, "OpenFaaS"}};
  for (const auto& [workflow, system] : rows) {
    ServeSpec spec;
    spec.workflow = workflow;
    spec.system = system;
    spec.nodes = 8;
    spec.router = chiron::RouterPolicy::kWarmAffinity;
    spec.rps = 2000.0;
    spec.horizon_ms = 10000.0;
    RunOptions opts;
    opts.seed = seed;
    opts.seconds = 0.0;
    opts.trace = true;
    const WorkloadOutcome o = run_serve(spec, opts);
    const MetricSet& m = o.metrics;
    // Healthy runs make one backend call per request, so the two
    // allocation rates add up to allocations per request.
    const double backend_allocs = m.get("platform.backend.allocs_per_call");
    const double loop_allocs = m.get("platform.cluster.allocs_per_req");
    lines.push_back(
        workflow().name() + " / " + system + ": backend.run p50 " +
        fmt("%.1f", m.get("platform.backend.us_per_call_p50")) + " us, p99 " +
        fmt("%.1f", m.get("platform.backend.us_per_call_p99")) +
        " us; allocs per request " + fmt("%.1f", backend_allocs + loop_allocs) +
        " (backend " + fmt("%.1f", backend_allocs) + " per call, loop " +
        fmt("%.2f", loop_allocs) + "); backend share " +
        fmt("%.3f", m.get("platform.backend.share")) +
        (o.correct ? "" : " [CHECK FAILED]"));
  }
  return lines;
}

}  // namespace perfbench
