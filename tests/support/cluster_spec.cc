#include "support/cluster_spec.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "metrics/stats.h"
#include "platform/router.h"
#include "sim/event_queue.h"

namespace chiron {
namespace testsupport {
namespace {

enum class Phase { kWaiting, kQueued, kRunning, kBackoff, kDone };

struct Request {
  TimeMs arrival = 0.0;
  std::uint32_t attempt = 1;
  std::size_t node = 0;  ///< node of the current (or last) dispatch
  Phase phase = Phase::kWaiting;
  EventQueue::Handle pending = 0;  ///< completion, crash or retry
  EventQueue::Handle deadline = 0;
  bool deadline_armed = false;
};

struct Node {
  std::vector<TimeMs> warm;       ///< idle-since time of each warm instance
  std::deque<std::size_t> queue;  ///< waiting requests, oldest first
  std::size_t live = 0;           ///< busy + warm instances
  std::size_t busy = 0;
};

/// One run of the model; each member function is one of its rules.
class Spec {
 public:
  Spec(const ClusterConfig& config, const RuntimeParams& params,
       const Backend& backend, std::size_t cascading_stages)
      : config_(config),
        backend_(backend),
        injector_(config.faults),
        capacity_(node_capacity(backend.resources(), params)),
        cold_penalty_(cold_start_penalty(params, cascading_stages)),
        nodes_(std::max<std::size_t>(1, config.nodes)),
        seed_(config.seed),
        arrival_rng_(seed_.split()),
        service_rng_(seed_.split()),
        router_(config.router, nodes_.size(), seed_.split()) {}

  ClusterResult run(const std::vector<TimeMs>& arrivals,
                    std::uint64_t id_base) {
    result_.offered = arrivals.size();
    result_.request_id_base = id_base;
    result_.node_results.resize(nodes_.size());
    requests_.resize(arrivals.size());
    // Arrivals are scheduled first, so an arrival precedes any other event
    // at the same time; the seeded node crashes come next.
    for (std::size_t id = 0; id < arrivals.size(); ++id) {
      requests_[id].arrival = arrivals[id];
      events_.schedule(arrivals[id], [this, id] { admit(id); });
    }
    for (std::size_t k = 0; k < nodes_.size(); ++k) {
      if (!injector_.node_crashes(k)) continue;
      events_.schedule(config_.horizon_ms * injector_.node_crash_frac(k),
                       [this, k] { crash_node(k); });
    }
    events_.run();
    return finish();
  }

 private:
  TimeMs now() const { return events_.now(); }

  /// Integrates busy instances over time up to now().
  void account() {
    std::size_t busy = 0;
    for (const Node& node : nodes_) busy += node.busy;
    busy_area_ += static_cast<double>(busy) * (now() - last_event_);
    last_event_ = now();
  }

  /// Reclaims node `k`'s instances idle for keep_alive_ms or more.
  void reap(std::size_t k) {
    Node& node = nodes_[k];
    node.live -= std::erase_if(node.warm, [&](TimeMs idle_since) {
      return now() - idle_since >= config_.keep_alive_ms;
    });
  }

  /// An arrival arms its deadline and is routed.
  void admit(std::size_t id) {
    Request& r = requests_[id];
    if (config_.retry.timeout_ms > 0.0) {
      r.deadline = events_.schedule(r.arrival + config_.retry.timeout_ms,
                                    [this, id] { time_out(id); });
      r.deadline_armed = true;
    }
    route(id);
  }

  /// Every attempt asks the Router for a node; it sees each node after
  /// that node's expired instances are reaped.
  void route(std::size_t id) {
    account();
    std::vector<RouterNodeView> views(nodes_.size());
    for (std::size_t k = 0; k < nodes_.size(); ++k) {
      reap(k);
      views[k].outstanding =
          static_cast<std::uint32_t>(nodes_[k].busy + nodes_[k].queue.size());
      views[k].warm = static_cast<std::uint32_t>(nodes_[k].warm.size());
    }
    dispatch(id, router_.pick(views.data(),
                              static_cast<std::uint32_t>(nodes_.size())));
  }

  /// On node `k` an attempt takes the most recently idled warm instance,
  /// else cold-starts one if the node has room, else waits in its queue.
  void dispatch(std::size_t id, std::size_t k) {
    account();
    reap(k);
    Request& r = requests_[id];
    Node& node = nodes_[k];
    r.node = k;
    ++result_.node_results[k].routed;
    if (!node.warm.empty()) {
      node.warm.pop_back();
      serve(id, 0.0);
    } else if (node.live < capacity_) {
      if (injector_.cold_start_fails(id, r.attempt)) {
        fail(id, cold_penalty_);  // the boot time is paid, no instance
        return;
      }
      ++node.live;
      std::size_t live = 0;
      for (const Node& each : nodes_) live += each.live;
      result_.peak_instances = std::max(result_.peak_instances, live);
      ++result_.cold_starts;
      ++result_.node_results[k].cold_starts;
      serve(id, cold_penalty_);
    } else {
      r.phase = Phase::kQueued;
      node.queue.push_back(id);
      std::size_t queued = 0;
      for (const Node& each : nodes_) queued += each.queue.size();
      result_.peak_queue = std::max(result_.peak_queue, queued);
      result_.node_results[k].peak_queue =
          std::max(result_.node_results[k].peak_queue, node.queue.size());
    }
  }

  /// Runs an attempt on an instance of its node after `startup`; it either
  /// completes or crashes part-way.
  void serve(std::size_t id, TimeMs startup) {
    Request& r = requests_[id];
    r.phase = Phase::kRunning;
    ++nodes_[r.node].busy;
    TimeMs service = backend_.run(service_rng_).e2e_latency_ms;
    if (injector_.straggles(id, r.attempt)) {
      service *= config_.faults.straggler_multiplier;
    }
    if (injector_.crashes(id, r.attempt)) {
      r.pending = events_.schedule(
          now() + startup + service * config_.faults.crash_point,
          [this, id] { crash(id); });
    } else {
      r.pending = events_.schedule(now() + startup + service,
                                   [this, id] { complete(id); });
    }
  }

  /// A failed attempt backs off and is routed again, or drops the request
  /// once its attempts are spent.
  void fail(std::size_t id, TimeMs delay) {
    Request& r = requests_[id];
    ++result_.failed;
    if (r.attempt < config_.retry.max_attempts) {
      ++result_.retried;
      const TimeMs backoff =
          injector_.retry_backoff_ms(config_.retry, r.attempt, id);
      ++r.attempt;
      r.phase = Phase::kBackoff;
      r.pending = events_.schedule(now() + delay + backoff,
                                   [this, id] { route(id); });
    } else {
      ++result_.dropped;
      settle(id);
    }
  }

  /// Makes `id` terminal and disarms its deadline.
  void settle(std::size_t id) {
    Request& r = requests_[id];
    r.phase = Phase::kDone;
    if (r.deadline_armed) events_.cancel(r.deadline);
    r.deadline_armed = false;
  }

  /// A finished instance of node `k` goes straight to the node's oldest
  /// waiting request, or becomes warm.
  void release(std::size_t k) {
    Node& node = nodes_[k];
    if (node.queue.empty()) {
      node.warm.push_back(now());
      return;
    }
    const std::size_t next = node.queue.front();
    node.queue.pop_front();
    reap(k);
    serve(next, 0.0);
  }

  void complete(std::size_t id) {
    account();
    Request& r = requests_[id];
    --nodes_[r.node].busy;
    latencies_.push_back(now() - r.arrival);
    ++result_.completed;
    ++result_.node_results[r.node].completed;
    settle(id);
    release(r.node);
  }

  /// A crash loses the attempt and its sandbox; the freed slot goes to the
  /// node's oldest waiting request.
  void crash(std::size_t id) {
    account();
    const std::size_t k = requests_[id].node;
    Node& node = nodes_[k];
    --node.busy;
    --node.live;
    fail(id, 0.0);
    if (!node.queue.empty()) {
      const std::size_t next = node.queue.front();
      node.queue.pop_front();
      dispatch(next, k);
    }
  }

  /// A deadline abandons the request wherever it is; a running attempt is
  /// aborted but its sandbox survives.
  void time_out(std::size_t id) {
    Request& r = requests_[id];
    r.deadline_armed = false;
    ++result_.timed_out;
    if (r.phase == Phase::kQueued) {
      std::deque<std::size_t>& queue = nodes_[r.node].queue;
      queue.erase(std::find(queue.begin(), queue.end(), id));
    } else if (r.phase == Phase::kRunning) {
      events_.cancel(r.pending);
      account();
      --nodes_[r.node].busy;
      release(r.node);
    } else if (r.phase == Phase::kBackoff) {
      events_.cancel(r.pending);
    }
    r.phase = Phase::kDone;
  }

  /// A node crash fails its running attempts in request order, loses its
  /// warm pool and sends its queue back through the Router, oldest first.
  /// The node restarts empty at once.
  void crash_node(std::size_t k) {
    account();
    ++result_.node_crashes;
    ++result_.node_results[k].node_crashes;
    Node& node = nodes_[k];
    for (std::size_t id = 0; id < requests_.size(); ++id) {
      Request& r = requests_[id];
      if (r.phase != Phase::kRunning || r.node != k) continue;
      events_.cancel(r.pending);
      --node.busy;
      --node.live;
      fail(id, 0.0);
    }
    node.live -= node.warm.size();
    node.warm.clear();
    std::deque<std::size_t> orphans;
    orphans.swap(node.queue);
    for (const std::size_t id : orphans) route(id);
  }

  ClusterResult finish() {
    if (!latencies_.empty()) {
      result_.mean_ms = mean_of(latencies_);
      const Cdf cdf(latencies_);
      result_.p50_ms = cdf.quantile(0.50);
      result_.p95_ms = cdf.quantile(0.95);
      result_.p99_ms = cdf.quantile(0.99);
    }
    for (const double latency : latencies_) result_.latency_stats.add(latency);
    const TimeMs span = std::max(last_event_, config_.horizon_ms);
    if (span > 0.0) {
      result_.achieved_rps =
          static_cast<double>(result_.completed) / (span / 1000.0);
      result_.mean_busy_instances = busy_area_ / span;
    }
    return result_;
  }

  const ClusterConfig& config_;
  const Backend& backend_;
  const FaultInjector injector_;
  const std::size_t capacity_;  ///< instances per node
  const TimeMs cold_penalty_;
  std::vector<Node> nodes_;
  // The run seed's splits, in declaration (= initialisation) order: the
  // arrival process (drawn by the caller), service times, the Router.
  Rng seed_;
  Rng arrival_rng_;
  Rng service_rng_;
  Router router_;
  EventQueue events_;
  std::vector<Request> requests_;
  ClusterResult result_;
  std::vector<double> latencies_;  ///< end-to-end, in completion order
  double busy_area_ = 0.0;
  TimeMs last_event_ = 0.0;
};

}  // namespace

ClusterResult serve_spec(const ClusterConfig& config,
                         const RuntimeParams& params, const Backend& backend,
                         std::size_t cascading_stages,
                         const std::vector<TimeMs>& arrivals,
                         std::uint64_t id_base) {
  return Spec(config, params, backend, cascading_stages).run(arrivals, id_base);
}

}  // namespace testsupport
}  // namespace chiron
