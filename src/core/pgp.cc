#include "core/pgp.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/kernighan_lin.h"
#include "obs/trace.h"

namespace chiron {
namespace {

// Builds the ProcessGroup vector for a set of function sets; group 0 of a
// stage runs as threads of the resident orchestrator (no fork cost), the
// rest are forked processes.
std::vector<ProcessGroup> to_groups(std::vector<std::vector<FunctionId>> sets) {
  std::vector<ProcessGroup> groups;
  groups.reserve(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ProcessGroup g;
    g.functions = std::move(sets[i]);
    g.mode = i == 0 ? ExecMode::kThread : ExecMode::kProcess;
    groups.push_back(std::move(g));
  }
  return groups;
}

// Functions of `stage` that must be isolated in their own sandbox
// (runtime-tag mismatch with the stage majority, or shared written files).
std::vector<FunctionId> compute_conflicted(const Workflow& wf, StageId s) {
  const Stage& stage = wf.stage(s);
  // Majority runtime tag of the stage; functions off-tag are isolated.
  std::map<std::string, std::size_t> tag_counts;
  for (FunctionId f : stage.functions) {
    ++tag_counts[wf.function(f).runtime_tag];
  }
  std::string majority;
  std::size_t best = 0;
  for (const auto& [tag, count] : tag_counts) {
    if (count > best) {
      best = count;
      majority = tag;
    }
  }
  // File conflicts: any two functions writing the same file.
  std::map<std::string, std::vector<FunctionId>> writers;
  for (FunctionId f : stage.functions) {
    for (const std::string& file : wf.function(f).files_written) {
      writers[file].push_back(f);
    }
  }
  std::set<FunctionId> conflicted;
  for (FunctionId f : stage.functions) {
    if (wf.function(f).runtime_tag != majority) conflicted.insert(f);
  }
  for (const auto& [file, fns] : writers) {
    if (fns.size() > 1) {
      // Keep the first writer shareable; isolate the rest.
      for (std::size_t i = 1; i < fns.size(); ++i) conflicted.insert(fns[i]);
    }
  }
  return {conflicted.begin(), conflicted.end()};
}

// Incremental KL stage evaluation. Stage latency (Eq. 2) is a max over
// wraps, a wrap's latency (Eq. 3) is a max over its processes' latencies
// (Eq. 4) plus IPC, and the search-phase wrap layout is a fixed function
// of the group count — so every group keeps one fork index for the whole
// pass. The evaluator freezes that layout once and keeps one Eq. (4)
// latency per committed group; a pair evaluation simulates only the two
// candidate sets, uncached (they are mostly one-off configurations), and
// combines them with the frozen values of the other groups. Values are
// exactly those of Predictor::stage_latency over layout_stage's output
// (golden and parity tested). Where a wrap's processes share one
// simulation (Predictor::simulates_whole_wrap) there is no per-process
// latency to freeze, and the touched wraps are re-simulated whole.
class StageEvaluator {
 public:
  StageEvaluator(const Predictor& predictor, IsolationMode mode,
                 const RuntimeParams& params,
                 const std::vector<std::vector<FunctionId>>& sets,
                 std::size_t wrap_count,
                 const std::vector<FunctionId>& conflicted)
      : predictor_(predictor),
        mode_(mode),
        params_(params),
        sets_(sets),
        whole_wrap_(predictor.simulates_whole_wrap(mode)) {
    const std::size_t k = sets.size();
    const std::size_t w = std::max<std::size_t>(1, std::min(wrap_count, k));
    // Balanced contiguous chunks, mirroring layout_stage. Only group 0
    // rides the resident orchestrator (it always lands at wrap 0, slot 0);
    // the rest fork, numbered in wrap order as Predictor::wrap_latency does.
    wrap_of_.resize(k);
    fork_of_.resize(k);
    members_.resize(w);
    const std::size_t base = k / w;
    const std::size_t extra = k % w;
    std::size_t next = 0;
    for (std::size_t i = 0; i < w; ++i) {
      const std::size_t take = base + (i < extra ? 1 : 0);
      std::size_t forks = 0;
      for (std::size_t j = 0; j < take; ++j) {
        wrap_of_[next] = i;
        fork_of_[next] = next == 0 ? 0 : forks++;
        members_[i].push_back(next);
        ++next;
      }
    }
    group_latency_.resize(k);
    if (!whole_wrap_) {
      for (std::size_t g = 0; g < k; ++g) {
        group_latency_[g] = simulate(g, sets_[g]);
      }
    }
    base_latency_.resize(w);
    for (std::size_t i = 0; i < w; ++i) base_latency_[i] = committed_wrap(i);
    // The stage's conflicted functions sit in fixed singleton wraps after
    // the chunked ones; KL never touches them, so compute once.
    conflicted_latency_.reserve(conflicted.size());
    for (FunctionId f : conflicted) {
      Wrap cw;
      ProcessGroup g;
      g.functions = {f};
      g.mode = ExecMode::kThread;  // sole occupant of its sandbox
      cw.processes.push_back(std::move(g));
      conflicted_latency_.push_back(predictor_.wrap_latency(cw, mode_));
    }
  }

  /// Stage latency with sets[p] -> a and sets[q] -> b, everything else as
  /// currently committed.
  TimeMs eval_pair(std::size_t p, std::size_t q,
                   const std::vector<FunctionId>& a,
                   const std::vector<FunctionId>& b) const {
    const TimeMs lat_a = whole_wrap_ ? 0.0 : simulate(p, a);
    const TimeMs lat_b = whole_wrap_ ? 0.0 : simulate(q, b);
    TimeMs stage = 0.0;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      TimeMs lat = base_latency_[i];
      if (i == wrap_of_[p] || i == wrap_of_[q]) {
        lat = whole_wrap_ ? whole_wrap_latency(i, p, &a, q, &b)
                          : wrap_latency(i, p, lat_a, q, lat_b);
      }
      stage = std::max(stage, offset(i) + lat);
    }
    for (std::size_t c = 0; c < conflicted_latency_.size(); ++c) {
      stage = std::max(stage,
                       offset(members_.size() + c) + conflicted_latency_[c]);
    }
    return stage;
  }

  /// Re-bases groups p and q, and the wraps holding them, after the caller
  /// committed new contents for those groups.
  void refresh(std::size_t p, std::size_t q) {
    if (!whole_wrap_) {
      group_latency_[p] = simulate(p, sets_[p]);
      group_latency_[q] = simulate(q, sets_[q]);
    }
    base_latency_[wrap_of_[p]] = committed_wrap(wrap_of_[p]);
    if (wrap_of_[q] != wrap_of_[p]) {
      base_latency_[wrap_of_[q]] = committed_wrap(wrap_of_[q]);
    }
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Eq. (2) wrap arrival offsets, as in Predictor::stage_latency.
  TimeMs offset(std::size_t wrap_index) const {
    if (wrap_index == 0) return 0.0;
    if (params_.decentralized_scheduling) return params_.rpc_ms;
    return static_cast<TimeMs>(wrap_index - 1) * params_.inv_ms +
           params_.rpc_ms;
  }

  // Eq. (4) latency of group `g` holding `functions`.
  TimeMs simulate(std::size_t g,
                  const std::vector<FunctionId>& functions) const {
    return predictor_.process_latency_uncached(
        functions, g == 0 ? ExecMode::kThread : ExecMode::kProcess,
        fork_of_[g], mode_);
  }

  TimeMs committed_wrap(std::size_t i) const {
    return whole_wrap_ ? whole_wrap_latency(i, kNone, nullptr, kNone, nullptr)
                       : wrap_latency(i, kNone, 0.0, kNone, 0.0);
  }

  // Eq. (3) of chunk wrap `i` from the frozen group latencies, with groups
  // p/q optionally overridden.
  TimeMs wrap_latency(std::size_t i, std::size_t p, TimeMs lat_p,
                      std::size_t q, TimeMs lat_q) const {
    TimeMs slowest = 0.0;
    for (std::size_t g : members_[i]) {
      slowest = std::max(slowest, g == p   ? lat_p
                                  : g == q ? lat_q
                                           : group_latency_[g]);
    }
    return predictor_.wrap_latency_from(slowest, members_[i].size());
  }

  // Latency of chunk wrap `i` as one simulation, with groups p/q
  // optionally overridden.
  TimeMs whole_wrap_latency(std::size_t i, std::size_t p,
                            const std::vector<FunctionId>* a, std::size_t q,
                            const std::vector<FunctionId>* b) const {
    Wrap wrap;
    wrap.processes.reserve(members_[i].size());
    for (std::size_t g : members_[i]) {
      ProcessGroup pg;
      pg.functions = g == p ? *a : g == q ? *b : sets_[g];
      pg.mode = g == 0 ? ExecMode::kThread : ExecMode::kProcess;
      wrap.processes.push_back(std::move(pg));
    }
    return predictor_.wrap_latency(wrap, mode_);
  }

  const Predictor& predictor_;
  const IsolationMode mode_;
  const RuntimeParams& params_;
  const std::vector<std::vector<FunctionId>>& sets_;
  const bool whole_wrap_;
  std::vector<std::size_t> wrap_of_;               // group -> chunk wrap
  std::vector<std::size_t> fork_of_;               // group -> fork index
  std::vector<std::vector<std::size_t>> members_;  // chunk wrap -> groups
  std::vector<TimeMs> group_latency_;              // committed Eq. (4)
  std::vector<TimeMs> base_latency_;               // committed wrap latency
  std::vector<TimeMs> conflicted_latency_;         // fixed singleton wraps
};

}  // namespace

PgpScheduler::PgpScheduler(PgpConfig config, Workflow wf,
                           std::vector<FunctionBehavior> profiles)
    : config_(std::move(config)),
      wf_(std::move(wf)),
      predictor_(
          PredictorConfig{config_.params, config_.runtime,
                          config_.conservative_factor,
                          config_.prediction_cache},
          std::move(profiles)) {
  if (predictor_.profiles().size() < wf_.function_count()) {
    throw std::invalid_argument("profiles do not cover the workflow");
  }
  conflicted_.reserve(wf_.stage_count());
  for (StageId s = 0; s < wf_.stage_count(); ++s) {
    conflicted_.push_back(compute_conflicted(wf_, s));
  }
}

ThreadPool* PgpScheduler::deploy_pool() const {
  const std::size_t lanes = ThreadPool::resolve_workers(config_.deploy_threads);
  if (lanes <= 1) return nullptr;
  // The calling thread is one of the lanes; the pool supplies the rest.
  std::call_once(pool_once_,
                 [&] { pool_ = std::make_unique<ThreadPool>(lanes - 1); });
  return pool_.get();
}

std::size_t PgpScheduler::search_wrap_count(std::size_t group_count) const {
  if (group_count == 0) return 0;
  const double ratio =
      config_.params.rpc_ms / std::max(config_.params.process_block_ms, 1e-6);
  const std::size_t fill =
      std::max<std::size_t>(1, static_cast<std::size_t>(ratio));
  return (group_count + fill - 1) / fill;
}

std::vector<ProcessGroup> PgpScheduler::partition_stage(
    StageId s, std::size_t n, PgpStats& stats) const {
  const std::vector<FunctionId>& conflicted = conflicted_functions(s);
  const std::set<FunctionId> conflicted_set(conflicted.begin(),
                                            conflicted.end());
  std::vector<FunctionId> fns;
  for (FunctionId f : wf_.stage(s).functions) {
    if (!conflicted_set.count(f)) fns.push_back(f);
  }
  if (fns.empty()) return {};

  std::size_t k = std::min<std::size_t>(n, fns.size());
  // MPK pkey exhaustion: a process cannot isolate more than
  // kMpkMaxThreadsPerProcess threads, so wide stages need a process-count
  // floor regardless of the requested n.
  if (config_.mode == IsolationMode::kMpk) {
    const std::size_t floor_k =
        (fns.size() + kMpkMaxThreadsPerProcess - 1) /
        kMpkMaxThreadsPerProcess;
    k = std::max(k, floor_k);
  }
  // Round-robin init (Algorithm 2 line 9): {f1, f_{n+1}, ...}, {f2, ...}.
  std::vector<std::vector<FunctionId>> sets(k);
  for (std::size_t i = 0; i < fns.size(); ++i) sets[i % k].push_back(fns[i]);

  if (config_.use_kl && k > 1 && fns.size() <= config_.kl_function_limit) {
    obs::ScopedSpan kl_span(obs::Tracer::global(), "pgp.kl_refine", "deploy",
                            {{"stage", static_cast<double>(s)},
                             {"processes", static_cast<double>(k)}});
    // KL over every pair of process sets (Algorithm 2 lines 10-11). The
    // evaluator simulates only the two candidate sets and reuses every
    // untouched group's latency (see StageEvaluator).
    StageEvaluator evaluator(predictor_, config_.mode, config_.params, sets,
                             search_wrap_count(k), conflicted);
    for (std::size_t p = 0; p + 1 < sets.size(); ++p) {
      for (std::size_t q = p + 1; q < sets.size(); ++q) {
        PairLatencyEval eval = [&](const std::vector<FunctionId>& a,
                                   const std::vector<FunctionId>& b) {
          return evaluator.eval_pair(p, q, a, b);
        };
        // Only a pair whose first round fans out spawns the pool.
        ThreadPool* pool =
            sets[p].size() * sets[q].size() >= kKlParallelMinCells
                ? deploy_pool()
                : nullptr;
        KlResult kl = kernighan_lin(sets[p], sets[q], eval, pool);
        stats.kl_evaluations += kl.evaluations;
        stats.predictor_calls += kl.evaluations;  // one per candidate
        sets[p] = std::move(kl.a);
        sets[q] = std::move(kl.b);
        evaluator.refresh(p, q);
      }
    }
  }
  return to_groups(std::move(sets));
}

StagePlan PgpScheduler::layout_stage(StageId s,
                                     std::vector<ProcessGroup> groups,
                                     std::size_t wrap_count) const {
  StagePlan sp;
  if (!groups.empty()) {
    const std::size_t w = std::max<std::size_t>(
        1, std::min(wrap_count, groups.size()));
    sp.wraps.resize(w);
    // Balanced contiguous chunks preserve fork order within each wrap.
    const std::size_t base = groups.size() / w;
    const std::size_t extra = groups.size() % w;
    std::size_t next = 0;
    for (std::size_t i = 0; i < w; ++i) {
      const std::size_t take = base + (i < extra ? 1 : 0);
      for (std::size_t j = 0; j < take; ++j) {
        ProcessGroup g = groups[next++];
        // Only the first wrap hosts the resident orchestrator; groups
        // landing elsewhere must fork.
        if (g.mode == ExecMode::kThread && !(i == 0 && j == 0)) {
          g.mode = ExecMode::kProcess;
        }
        sp.wraps[i].processes.push_back(std::move(g));
      }
    }
  }
  // Conflicted functions: dedicated single-function sandboxes (§3.4).
  for (FunctionId f : conflicted_functions(s)) {
    Wrap w;
    ProcessGroup g;
    g.functions = {f};
    g.mode = ExecMode::kThread;  // sole occupant of its sandbox
    w.processes.push_back(std::move(g));
    sp.wraps.push_back(std::move(w));
  }
  if (sp.wraps.empty()) {
    throw std::logic_error("stage layout produced no wraps");
  }
  return sp;
}

PgpScheduler::OuterOutcome PgpScheduler::evaluate_outer(
    std::size_t n, PgpStats& stats) const {
  obs::ScopedSpan iter_span(obs::Tracer::global(), "pgp.outer_iteration",
                            "deploy", {{"n", static_cast<double>(n)}});
  OuterOutcome out;
  out.candidate.mode = config_.mode;
  out.groups.resize(wf_.stage_count());
  for (StageId s = 0; s < wf_.stage_count(); ++s) {
    out.groups[s] = partition_stage(s, n, stats);
    out.candidate.stages.push_back(layout_stage(
        s, out.groups[s], search_wrap_count(out.groups[s].size())));
  }
  ++stats.predictor_calls;
  out.latency = predictor_.workflow_latency(out.candidate);
  return out;
}

PgpResult PgpScheduler::schedule(TimeMs slo_ms) const {
  obs::Tracer& tracer = obs::Tracer::global();
  obs::ScopedSpan schedule_span(tracer, "pgp.schedule", "deploy",
                                {{"slo_ms", slo_ms}});
  PgpResult result;
  const std::size_t max_n = std::max<std::size_t>(1, wf_.max_parallelism());

  // Outer loop (Algorithm 2 lines 3-12): grow n until the SLO is met,
  // keeping the fastest candidate in case none meets it.
  std::vector<std::vector<ProcessGroup>> stage_groups(wf_.stage_count());
  WrapPlan plan;
  TimeMs predicted = kInfiniteTime;
  std::size_t chosen_n = max_n;
  for (std::size_t n = 1; n <= max_n; ++n) {
    ++result.stats.outer_iterations;
    OuterOutcome out = evaluate_outer(n, result.stats);
    const bool met = out.latency <= slo_ms;
    if (met || out.latency < predicted) {
      plan = std::move(out.candidate);
      predicted = out.latency;
      stage_groups = std::move(out.groups);
      chosen_n = n;
    }
    if (met) break;
  }
  result.processes = chosen_n;
  result.slo_met = predicted <= slo_ms;

  // Resource phases run against a tighter internal target: the SLO, but
  // never giving back more than `resource_slack` of the achieved latency.
  const TimeMs target =
      std::min(slo_ms, predicted * (1.0 + config_.resource_slack));

  // Packing (lines 13-16): per stage, deploy the fewest wraps (max
  // processes per wrap) that keep the whole workflow inside the target.
  if (result.slo_met) {
    obs::ScopedSpan pack_span(tracer, "pgp.pack_wraps", "deploy");
    for (StageId s = 0; s < wf_.stage_count(); ++s) {
      const std::size_t group_count = stage_groups[s].size();
      for (std::size_t w = 1; w <= std::max<std::size_t>(1, group_count); ++w) {
        WrapPlan candidate = plan;
        candidate.stages[s] = layout_stage(s, stage_groups[s], w);
        ++result.stats.predictor_calls;
        const TimeMs t = predictor_.workflow_latency(candidate);
        if (t <= target) {
          plan = std::move(candidate);
          predicted = t;
          break;
        }
      }
    }
  }

  // CPU minimisation: smallest allocation inside the target.
  if (config_.minimize_cpus && result.slo_met) {
    obs::ScopedSpan cpu_span(tracer, "pgp.min_cpus", "deploy");
    plan = with_min_cpus(predictor_, std::move(plan), target);
    if (plan.cpu_cap > 0) {
      ++result.stats.predictor_calls;
      predicted = predictor_.workflow_latency(plan);
    }
  }

  plan.validate(wf_);
  result.plan = std::move(plan);
  result.predicted_latency_ms = predicted;
  predictor_.publish_cache_metrics();
  return result;
}

WrapPlan PgpScheduler::with_min_cpus(const Predictor& predictor,
                                     WrapPlan plan, TimeMs slo_ms) {
  // Pool deployments parallelise per worker (one per function), process
  // deployments per process; the cap search covers both. Predicted
  // latency is monotone non-increasing in the allocation (every engine in
  // runtime/ only gets faster with more cores), so the smallest feasible
  // cap is found by bisection; with_min_cpus_linear is the tested
  // reference.
  const std::size_t peak =
      plan.mode == IsolationMode::kPool
          ? plan.peak_stage_functions()
          : plan.peak_processes();
  if (peak <= 1) return plan;
  WrapPlan probe = plan;
  probe.cpu_cap = peak - 1;
  if (predictor.workflow_latency(probe) > slo_ms) {
    return plan;  // monotone: if the largest candidate cap misses, all do
  }
  std::size_t lo = 1, hi = peak - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    probe.cpu_cap = mid;
    if (predictor.workflow_latency(probe) <= slo_ms) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  probe.cpu_cap = lo;
  return probe;
}

WrapPlan PgpScheduler::with_min_cpus_linear(const Predictor& predictor,
                                            WrapPlan plan, TimeMs slo_ms) {
  const std::size_t peak =
      plan.mode == IsolationMode::kPool
          ? plan.peak_stage_functions()
          : plan.peak_processes();
  for (std::size_t c = 1; c < peak; ++c) {
    WrapPlan candidate = plan;
    candidate.cpu_cap = c;
    if (predictor.workflow_latency(candidate) <= slo_ms) {
      return candidate;
    }
  }
  return plan;
}

}  // namespace chiron
