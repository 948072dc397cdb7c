#include "platform/cluster.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/log.h"
#include "common/thread_pool.h"
#include "metrics/stats.h"
#include "obs/fault_schema.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace chiron {

namespace {

/// The serving loop's typed POD event: the whole per-request state machine
/// dispatches on {kind, request id} — no per-event closures. For
/// kNodeCrash, `id` is the node index, not a request.
struct ClusterEvent {
  enum class Kind : std::uint8_t {
    kArrival,
    kTimeout,
    kCompletion,
    kCrash,
    kRetry,
    kNodeCrash,
  };
  Kind kind = Kind::kArrival;
  std::uint32_t id = 0;
};

using ClusterEventQueue = TypedEventQueue<ClusterEvent>;

/// Power-of-two ring buffer with push_back / pop_front / pop_back. The
/// serving loop's waiting queue and warm pool need deque semantics with
/// zero steady-state allocations, which std::deque's block allocator
/// cannot promise; reserve() up front makes every later operation
/// allocation-free as long as the live size stays within the reservation
/// (growth past it is correct, just no longer allocation-free).
template <typename T>
class Ring {
 public:
  void reserve(std::size_t n) {
    std::size_t cap = 8;
    while (cap < n + 1) cap <<= 1;
    if (cap > buf_.size()) rebuild(cap);
  }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const T& front() const { return buf_[head_ & (buf_.size() - 1)]; }
  void push_back(const T& value) {
    if (size_ == buf_.size()) {
      rebuild(buf_.empty() ? std::size_t{8} : buf_.size() * 2);
    }
    buf_[(head_ + size_) & (buf_.size() - 1)] = value;
    ++size_;
  }
  /// Pops and returns the newest element (LIFO end).
  T pop_back() {
    --size_;
    return buf_[(head_ + size_) & (buf_.size() - 1)];
  }
  /// Pops and returns the oldest element (FIFO end).
  T pop_front() {
    const T value = buf_[head_ & (buf_.size() - 1)];
    ++head_;
    --size_;
    return value;
  }

 private:
  void rebuild(std::size_t cap) {
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;  ///< monotonically increasing; masked on access
  std::size_t size_ = 0;
};

/// Floors a fractional instance count with a relative epsilon: a resource
/// ratio that lands an ulp below an exact integer (40 / (40/3.0) =
/// 9.999999999999998) must count as that integer, not one less. The
/// epsilon is far too small to ever round a genuinely fractional ratio
/// up.
std::size_t floor_capacity(double capacity) {
  if (!std::isfinite(capacity)) return 0;
  return static_cast<std::size_t>(capacity * (1.0 + 1e-9));
}

}  // namespace

std::size_t node_capacity(const ResourceUsage& usage,
                          const RuntimeParams& params) {
  const double node_cpus = static_cast<double>(params.node_cpus);
  const double node_mem = params.node_memory_mb;
  double capacity = std::numeric_limits<double>::infinity();
  if (usage.cpus > 0.0) capacity = std::min(capacity, node_cpus / usage.cpus);
  if (usage.memory_mb > 0.0) {
    capacity = std::min(capacity, node_mem / usage.memory_mb);
  }
  return std::max<std::size_t>(1, floor_capacity(capacity));
}

TimeMs cold_start_penalty(const RuntimeParams& params,
                          std::size_t cascading_stages) {
  return params.sandbox_cold_start_ms *
         static_cast<TimeMs>(std::max<std::size_t>(1, cascading_stages));
}

ClusterSimulator::ClusterSimulator(ClusterConfig config, RuntimeParams params)
    : config_(config), params_(params) {}

ClusterResult ClusterSimulator::run(const Backend& backend,
                                    std::size_t cascading_stages) const {
  // Generate the arrival process and mint the request-id block up front,
  // then hand off to the shared core. run_batch() does the same per
  // (spec, seed) job *sequentially* before fanning out, which is what
  // keeps batch results independent of the pool size.
  Rng rng(config_.seed);
  ArrivalGenerator arrivals(config_.arrivals, config_.offered_rps,
                            rng.split());
  const std::vector<TimeMs> arrival_times =
      arrivals.generate(config_.horizon_ms);
  return run_prepared(backend, cascading_stages, arrival_times,
                      obs::mint_request_ids(arrival_times.size()));
}

// ---------------------------------------------------------------------------
// Sharded typed-event serving loop — the one serving engine.
//
// Every node owns its own capacity, warm-instance ring, and waiting
// queue, and the Router places each dispatch against live per-node
// state. The loop is a switch over POD {kind, id} events with
// allocation-free data structures: the lazy arrival merge, the timeout
// ring, tombstoned queues. Its (time, seq) event order, Rng draw order
// and float accounting are those of the sequential model spec in
// tests/support/cluster_spec.cc, so the two produce bit-identical
// ClusterResults at every node count (asserted by ClusterSpecParityTest).
// ---------------------------------------------------------------------------
ClusterResult ClusterSimulator::run_prepared(
    const Backend& backend, std::size_t cascading_stages,
    const std::vector<TimeMs>& arrival_times, std::uint64_t id_base) const {
  if (!std::is_sorted(arrival_times.begin(), arrival_times.end())) {
    throw std::invalid_argument(
        "ClusterSimulator::run_prepared: arrival_times must be "
        "nondecreasing");
  }
  const std::uint32_t node_count =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, config_.nodes));
  const std::size_t per_node_capacity =
      node_capacity(backend.resources(), params_);
  const std::size_t n = arrival_times.size();

  // Reconstruct the seeded stream exactly as run() threads it: the first
  // split fed the arrival generator, the second (further below) drives
  // service times in event order, and the third seeds the router.
  Rng rng(config_.seed);
  (void)rng.split();

  ClusterResult result;
  result.offered = n;
  result.request_id_base = id_base;
  result.node_results.resize(node_count);

  const FaultInjector injector(config_.faults);
  const RetryPolicy& retry = config_.retry;
  const bool has_timeout = retry.timeout_ms > 0.0;

  // Observability sinks: all cluster events carry *simulated* timestamps.
  obs::Tracer* tracer =
      config_.tracer && config_.tracer->enabled() ? config_.tracer : nullptr;
  obs::MetricsRegistry* metrics = config_.metrics;
  const int request_track =
      tracer ? tracer->new_track("cluster.requests", obs::kVirtualPid) : 0;
  obs::Counter* cold_counter =
      metrics ? &metrics->counter("cluster.cold_starts") : nullptr;
  obs::Gauge* queue_gauge =
      metrics ? &metrics->gauge("cluster.queue_depth") : nullptr;
  obs::Histogram* latency_hist =
      metrics ? &metrics->histogram("cluster.e2e_latency_ms") : nullptr;
  obs::Counter* fault_counter =
      metrics ? &metrics->counter(obs::kFaultCounter) : nullptr;
  obs::Counter* retry_counter =
      metrics ? &metrics->counter("chiron.retry.attempts") : nullptr;
  obs::Counter* timeout_counter =
      metrics ? &metrics->counter("chiron.request.timeout") : nullptr;
  obs::FlightRecorder* recorder =
      config_.recorder && config_.recorder->enabled() ? config_.recorder
                                                      : nullptr;

  // Per-kind counters of the faults this loop injects, resolved once, not
  // per event. Transfer faults belong to the plan backends; node-crash
  // victims are counted under their own kind, so the cold_start + crash
  // == failed invariant of node-crash-free runs is undisturbed.
  std::array<obs::Counter*, obs::kFaultKindSchema.size()> kind_counter{};
  if (metrics) {
    for (const FaultKind kind : {FaultKind::kColdStart, FaultKind::kCrash,
                                 FaultKind::kStraggler, FaultKind::kNodeCrash}) {
      kind_counter[static_cast<std::size_t>(kind)] =
          &metrics->counter(obs::fault_schema(kind).counter);
    }
  }

  // Per-node observability: cluster.node.<k>.{cold_starts,queue_depth}.
  std::vector<obs::Counter*> node_cold_counter(node_count, nullptr);
  std::vector<obs::Gauge*> node_queue_gauge(node_count, nullptr);
  if (metrics) {
    for (std::uint32_t k = 0; k < node_count; ++k) {
      const std::string prefix = "cluster.node." + std::to_string(k);
      node_cold_counter[k] = &metrics->counter(prefix + ".cold_starts");
      node_queue_gauge[k] = &metrics->gauge(prefix + ".queue_depth");
    }
  }

  // The process-unique trace id of arrival `id`.
  auto rid = [id_base](std::uint64_t id) { return id_base + id; };

  // Per-request recovery state. A request is terminal (kDone) exactly
  // once: completed, timed out, or dropped after max_attempts.
  struct ReqState {
    TimeMs arrival = 0.0;
    std::uint32_t attempt = 1;
    std::uint32_t node = 0;  ///< where the current attempt was dispatched
    enum class Phase : std::uint8_t {
      kWaiting,   ///< arrival not yet processed
      kQueued,    ///< waiting for capacity on `node`
      kRunning,   ///< on an instance of `node`
      kBackoff,   ///< waiting to re-attempt (pending_ev = retry)
      kDone,
    } phase = Phase::kWaiting;
    ClusterEventQueue::Handle pending_ev{};
    bool has_timeout_ev = false;  ///< its timeout-ring entry is live
  };
  std::vector<ReqState> reqs(n);

  auto count_fault = [&](FaultKind kind, std::uint32_t id,
                         std::uint32_t attempt, TimeMs now,
                         double value = 0.0) {
    const obs::FaultKindSchema& schema = obs::fault_schema(kind);
    if (fault_counter) fault_counter->inc();
    if (obs::Counter* counter = kind_counter[static_cast<std::size_t>(kind)]) {
      counter->inc();
    }
    if (tracer) {
      tracer->instant_at(schema.label, "fault", obs::kVirtualPid,
                         request_track, now,
                         {{"request", static_cast<double>(rid(id))},
                          {"attempt", static_cast<double>(attempt)}});
    }
    if (recorder) {
      recorder->record(schema.rec, rid(id), attempt, now, value,
                       static_cast<std::int32_t>(reqs[id].node));
    }
  };

  // Per-node serving state. The warm ring holds the idle-since time of
  // each resident but idle instance; pushes happen at event times, which
  // only move forward, so the ring is monotone — expiry is a
  // pop-front-while-expired prefix and reuse pops the hottest instance
  // from the back (LIFO). Timed-out queue entries are lazy tombstones:
  // they stay in the ring (their ReqState is kDone) and are skipped when
  // popped; `queued_live` counts the rest and is what peak_queue and
  // cluster.queue_depth report. The cluster-wide totals drive the global
  // accounting (busy_area, peak_instances, peak_queue).
  struct NodeState {
    Ring<TimeMs> warm;
    Ring<std::uint32_t> queue;
    std::size_t live = 0;  ///< busy + warm instances on this node
    std::size_t busy = 0;
    std::size_t queued_live = 0;  ///< queue entries minus tombstones
  };
  // A request occupies at most one queue entry at a time. Each node
  // reserves for its share of the request stream with 4x headroom for
  // routing skew (the whole stream at nodes == 1); a pathologically
  // skewed run grows a ring — correct, just no longer allocation-free.
  const std::size_t queue_slots =
      std::min(n, 4 * (n / node_count + 1) + 64) + 1;
  std::vector<NodeState> nodes(node_count);
  for (NodeState& node : nodes) {
    node.warm.reserve(std::min(per_node_capacity, n) + 1);
    node.queue.reserve(queue_slots);
  }
  std::size_t live_total = 0;
  std::size_t busy_total = 0;
  std::size_t queued_total = 0;

  // Router views are refreshed in place before every pick: plain integer
  // stores, no allocation.
  std::vector<RouterNodeView> views(node_count);

  // Constant-delay timeouts form their own sorted stream: deadlines are
  // arrival + timeout_ms over nondecreasing arrivals, so the earliest
  // pending timeout is always the ring front — no heap entry, no
  // O(log n) sift per request. Timeouts disarmed by finalize stay behind
  // as lazy tombstones (has_timeout_ev == false) and are skipped at the
  // front. Each entry carries a seq minted from the heap's counter at the
  // point a single event queue would have scheduled it, so the three-way
  // merge in next_event reproduces the single-queue (time, seq) order
  // exactly, ties included.
  struct TimeoutEntry {
    TimeMs at;
    std::uint64_t seq;
    std::uint32_t id;
  };
  Ring<TimeoutEntry> timeout_ring;
  if (has_timeout) timeout_ring.reserve(n + 1);

  auto note_queue_depth = [&](TimeMs now) {
    if (queue_gauge) queue_gauge->set(static_cast<double>(queued_total));
    if (tracer) {
      tracer->counter_at("cluster.queue_depth",
                         static_cast<double>(queued_total), obs::kVirtualPid,
                         0, now);
    }
  };
  auto note_node_queue = [&](std::uint32_t k) {
    if (node_queue_gauge[k]) {
      node_queue_gauge[k]->set(static_cast<double>(nodes[k].queued_live));
    }
  };

  std::vector<double> latencies;
  latencies.reserve(n);
  double busy_area = 0.0;  // integral of busy instances over time
  TimeMs last_event = 0.0;
  Rng run_rng = rng.split();  // second split: service times
  Router router(config_.router, node_count, rng.split());  // third split

  // Event slab sized for the worst case so the loop never allocates:
  // arrivals and timeouts never enter the heap, so live events are
  // bounded by one per request (its completion, crash or retry) = n
  // slots; the heap additionally holds one stale entry per cancel, and a
  // firing timeout cancels at most one pending event per request, so 2n
  // entries bound the heap. Node crashes add one slot each plus heap
  // slack for the cancellations their victims cause.
  const std::size_t crash_events =
      config_.faults.node_crash > 0.0 ? node_count : 0;
  const std::size_t crash_slack =
      crash_events * std::min(per_node_capacity, n);
  ClusterEventQueue events;
  events.reserve(n + crash_events + 8,
                 2 * n + crash_events + crash_slack + 8);
  const TimeMs cold_penalty = cold_start_penalty(params_, cascading_stages);

  auto account = [&](TimeMs now) {
    busy_area += static_cast<double>(busy_total) * (now - last_event);
    last_event = now;
  };

  // Reclaims one node's warm instances idle past the keep-alive: expired
  // entries are exactly a prefix of the monotone ring.
  auto reap_node = [&](std::uint32_t k, TimeMs now) {
    NodeState& node = nodes[k];
    while (!node.warm.empty() &&
           now - node.warm.front() >= config_.keep_alive_ms) {
      node.warm.pop_front();
      --node.live;
      --live_total;
    }
  };
  auto reap_all = [&](TimeMs now) {
    for (std::uint32_t k = 0; k < node_count; ++k) reap_node(k, now);
  };

  // Marks `id` terminal and disarms its outstanding timeout (the ring
  // entry becomes a lazy tombstone).
  auto finalize = [&](std::uint32_t id) {
    ReqState& r = reqs[id];
    r.phase = ReqState::Phase::kDone;
    r.has_timeout_ev = false;
  };

  auto end_request_span = [&](std::uint32_t id, TimeMs now) {
    if (tracer) {
      tracer->async_end_at("request", "sim", obs::kVirtualPid, request_track,
                           now, rid(id));
    }
  };

  // Pops node `k`'s next still-live queued request, skipping tombstones.
  auto take_queued = [&](std::uint32_t k) -> std::optional<std::uint32_t> {
    NodeState& node = nodes[k];
    while (!node.queue.empty()) {
      const std::uint32_t id = node.queue.pop_front();
      if (reqs[id].phase == ReqState::Phase::kQueued) {
        --node.queued_live;
        --queued_total;
        note_node_queue(k);
        return id;
      }
    }
    return std::nullopt;
  };

  // Handles one failed attempt at time `t`: schedules a capped-exponential
  // backoff retry, or drops the request once attempts are exhausted.
  auto fail_attempt = [&](std::uint32_t id, TimeMs t, TimeMs extra_delay) {
    ReqState& r = reqs[id];
    ++result.failed;
    if (r.attempt < retry.max_attempts) {
      ++result.retried;
      if (retry_counter) retry_counter->inc();
      const TimeMs backoff = injector.retry_backoff_ms(retry, r.attempt, id);
      if (tracer) {
        tracer->complete_at("retry.backoff", "fault", obs::kVirtualPid,
                            request_track, t, extra_delay + backoff,
                            {{"attempt", static_cast<double>(r.attempt)},
                             {"request", static_cast<double>(rid(id))}});
      }
      if (recorder) {
        recorder->record(obs::RecKind::kRetryBackoff, rid(id), r.attempt, t,
                         extra_delay + backoff,
                         static_cast<std::int32_t>(r.node));
      }
      ++r.attempt;
      r.phase = ReqState::Phase::kBackoff;
      r.pending_ev =
          events.schedule(t + extra_delay + backoff,
                          ClusterEvent{ClusterEvent::Kind::kRetry, id});
    } else {
      ++result.dropped;
      if (recorder) {
        recorder->record(obs::RecKind::kDrop, rid(id), r.attempt, t, 0.0,
                         static_cast<std::int32_t>(r.node));
      }
      finalize(id);
      end_request_span(id, t);
    }
  };

  // Places `id` on an instance of its node at `now` (startup = 0 for warm
  // reuse) and schedules its completion — or its mid-execution crash.
  auto begin_service = [&](std::uint32_t id, TimeMs now, TimeMs startup) {
    ReqState& r = reqs[id];
    r.phase = ReqState::Phase::kRunning;
    ++nodes[r.node].busy;
    ++busy_total;
    TimeMs service = backend.run(run_rng).e2e_latency_ms;
    if (injector.straggles(id, r.attempt)) {
      service *= config_.faults.straggler_multiplier;
      count_fault(FaultKind::kStraggler, id, r.attempt, now,
                  config_.faults.straggler_multiplier);
    }
    if (recorder) {
      recorder->record(obs::RecKind::kServiceBegin, rid(id), r.attempt, now,
                       service, static_cast<std::int32_t>(r.node));
    }
    if (injector.crashes(id, r.attempt)) {
      const TimeMs crash_at =
          now + startup + service * config_.faults.crash_point;
      r.pending_ev = events.schedule(
          crash_at, ClusterEvent{ClusterEvent::Kind::kCrash, id});
      return;
    }
    const TimeMs finish = now + startup + service;
    r.pending_ev = events.schedule(
        finish, ClusterEvent{ClusterEvent::Kind::kCompletion, id});
  };

  // Places `id` on node `k` — routing already decided: warm reuse, cold
  // start if the node has headroom, else the node's queue.
  auto dispatch_to = [&](std::uint32_t id, std::uint32_t k, TimeMs now) {
    account(now);
    reap_node(k, now);
    ReqState& r = reqs[id];
    r.node = k;
    ++result.node_results[k].routed;
    NodeState& node = nodes[k];
    if (!node.warm.empty()) {
      node.warm.pop_back();  // LIFO keeps hot instances hot
      begin_service(id, now, 0.0);
    } else if (node.live < per_node_capacity) {
      if (injector.cold_start_fails(id, r.attempt)) {
        // The sandbox dies during boot: the boot time is still paid (it
        // delays the retry) but no instance comes up.
        count_fault(FaultKind::kColdStart, id, r.attempt, now, cold_penalty);
        fail_attempt(id, now, cold_penalty);
        return;
      }
      ++node.live;
      ++live_total;
      result.peak_instances = std::max(result.peak_instances, live_total);
      ++result.cold_starts;
      ++result.node_results[k].cold_starts;
      if (cold_counter) cold_counter->inc();
      if (node_cold_counter[k]) node_cold_counter[k]->inc();
      if (tracer) {
        tracer->instant_at("cluster.cold_start", "sim", obs::kVirtualPid,
                           request_track, now,
                           {{"request", static_cast<double>(rid(id))},
                            {"node", static_cast<double>(k)}});
      }
      if (recorder) {
        recorder->record(obs::RecKind::kColdStart, rid(id), r.attempt, now,
                         cold_penalty, static_cast<std::int32_t>(k));
      }
      begin_service(id, now, cold_penalty);
    } else {
      r.phase = ReqState::Phase::kQueued;
      node.queue.push_back(id);
      ++node.queued_live;
      ++queued_total;
      result.peak_queue = std::max(result.peak_queue, queued_total);
      result.node_results[k].peak_queue =
          std::max(result.node_results[k].peak_queue, node.queued_live);
      if (recorder) {
        recorder->record(obs::RecKind::kQueue, rid(id), r.attempt, now,
                         static_cast<double>(node.queued_live),
                         static_cast<std::int32_t>(k));
      }
      note_node_queue(k);
      note_queue_depth(now);
    }
  };

  // Routes one dispatch: reap everywhere first so the router sees
  // accurate warm counts, refresh the views, pick, place.
  auto start_request = [&](std::uint32_t id, TimeMs now) {
    account(now);
    reap_all(now);
    for (std::uint32_t k = 0; k < node_count; ++k) {
      views[k].outstanding =
          static_cast<std::uint32_t>(nodes[k].busy + nodes[k].queued_live);
      views[k].warm = static_cast<std::uint32_t>(nodes[k].warm.size());
    }
    dispatch_to(id, router.pick(views.data(), node_count), now);
  };

  for (std::size_t i = 0; i < n; ++i) reqs[i].arrival = arrival_times[i];

  // Arrival merge. Arrival times are nondecreasing, so the arrival stream
  // needs no heap: the next event is whichever of (next unfired arrival,
  // timeout ring front, heap top) is earliest, keeping the heap at
  // O(live requests). Ties go to the arrival, as if every arrival had
  // been scheduled before the loop began.
  std::size_t next_arrival = 0;

  // Seeded node crashes enter the heap before the loop starts: each node
  // crashes at most once, at a seeded fraction of the horizon.
  if (config_.faults.node_crash > 0.0) {
    for (std::uint32_t k = 0; k < node_count; ++k) {
      if (!injector.node_crashes(k)) continue;
      const TimeMs crash_at = config_.horizon_ms * injector.node_crash_frac(k);
      events.schedule(crash_at,
                      ClusterEvent{ClusterEvent::Kind::kNodeCrash, k});
    }
  }
  // Scratch for re-routing a crashed node's queue (reserved only when a
  // node crash can fire, so the healthy loop's allocation count is
  // unchanged).
  std::vector<std::uint32_t> requeue;
  if (config_.faults.node_crash > 0.0) requeue.reserve(n);

  auto next_event = [&](TimeMs* at, ClusterEvent* ev) -> bool {
    // Drop tombstoned timeouts (finalized requests) off the ring front.
    while (!timeout_ring.empty() &&
           !reqs[timeout_ring.front().id].has_timeout_ev) {
      timeout_ring.pop_front();
    }
    TimeMs heap_at = 0.0;
    std::uint64_t heap_seq = 0;
    const bool have_heap = events.peek(&heap_at, &heap_seq);
    if (next_arrival < n) {
      const TimeMs arrival_at = arrival_times[next_arrival];
      if ((!have_heap || arrival_at <= heap_at) &&
          (timeout_ring.empty() || arrival_at <= timeout_ring.front().at)) {
        *at = arrival_at;
        *ev = ClusterEvent{ClusterEvent::Kind::kArrival,
                           static_cast<std::uint32_t>(next_arrival)};
        ++next_arrival;
        events.advance_to(arrival_at);
        return true;
      }
    }
    if (!timeout_ring.empty()) {
      const TimeoutEntry& front = timeout_ring.front();
      if (!have_heap || front.at < heap_at ||
          (front.at == heap_at && front.seq < heap_seq)) {
        *at = front.at;
        *ev = ClusterEvent{ClusterEvent::Kind::kTimeout, front.id};
        timeout_ring.pop_front();
        events.advance_to(*at);
        return true;
      }
    }
    return events.pop(at, ev);
  };

  TimeMs at = 0.0;
  ClusterEvent ev;
  while (next_event(&at, &ev)) {
    const std::uint32_t id = ev.id;
    switch (ev.kind) {
      case ClusterEvent::Kind::kArrival: {
        if (tracer) {
          tracer->async_begin_at("request", "sim", obs::kVirtualPid,
                                 request_track, at, rid(id));
        }
        if (recorder) {
          recorder->record(obs::RecKind::kAdmit, rid(id), 1, at);
        }
        if (has_timeout) {
          reqs[id].has_timeout_ev = true;
          timeout_ring.push_back(
              TimeoutEntry{at + retry.timeout_ms, events.mint_seq(), id});
        }
        start_request(id, at);
        break;
      }
      case ClusterEvent::Kind::kCompletion: {
        account(at);
        ReqState& r = reqs[id];
        const std::uint32_t k = r.node;
        --nodes[k].busy;
        --busy_total;
        const TimeMs latency = at - r.arrival;
        latencies.push_back(latency);
        ++result.completed;
        ++result.node_results[k].completed;
        if (recorder) {
          recorder->record(obs::RecKind::kComplete, rid(id), r.attempt, at,
                           latency, static_cast<std::int32_t>(k));
        }
        finalize(id);
        if (latency_hist) latency_hist->observe(latency);
        end_request_span(id, at);
        if (const auto qid = take_queued(k)) {
          note_queue_depth(at);
          // The finishing instance is handed to the queued request
          // directly (it stays on its node): it never visits the warm
          // pool, so reap cannot reclaim it out from under the handoff.
          reap_node(k, at);
          begin_service(*qid, at, 0.0);
        } else {
          nodes[k].warm.push_back(at);
        }
        break;
      }
      case ClusterEvent::Kind::kCrash: {
        account(at);
        ReqState& r = reqs[id];
        const std::uint32_t k = r.node;
        --nodes[k].busy;
        --busy_total;
        --nodes[k].live;
        --live_total;  // the crash takes the sandbox with it
        count_fault(FaultKind::kCrash, id, r.attempt, at);
        fail_attempt(id, at, 0.0);
        // The crash freed a slot on this node: a queued request can now
        // cold-start here (no re-route; the queue is node-local).
        if (const auto qid = take_queued(k)) {
          note_queue_depth(at);
          dispatch_to(*qid, k, at);
        }
        break;
      }
      case ClusterEvent::Kind::kRetry: {
        start_request(id, at);  // re-routes: the dispatcher re-decides
        break;
      }
      case ClusterEvent::Kind::kTimeout: {
        // Abandons `id` at its deadline, wherever it is.
        ReqState& r = reqs[id];
        r.has_timeout_ev = false;
        ++result.timed_out;
        if (timeout_counter) timeout_counter->inc();
        if (tracer) {
          tracer->instant_at("request.timeout", "fault", obs::kVirtualPid,
                             request_track, at,
                             {{"request", static_cast<double>(rid(id))}});
        }
        if (recorder) {
          recorder->record(obs::RecKind::kTimeout, rid(id), r.attempt, at,
                           0.0, static_cast<std::int32_t>(r.node));
        }
        switch (r.phase) {
          case ReqState::Phase::kQueued: {
            // Lazy tombstone: the ring entry stays behind and take_queued
            // skips it; only the live counters move.
            --nodes[r.node].queued_live;
            --queued_total;
            note_node_queue(r.node);
            note_queue_depth(at);
            break;
          }
          case ReqState::Phase::kRunning: {
            // The platform aborts the handler but keeps the sandbox.
            events.cancel(r.pending_ev);
            account(at);
            const std::uint32_t k = r.node;
            --nodes[k].busy;
            --busy_total;
            if (const auto qid = take_queued(k)) {
              note_queue_depth(at);
              reap_node(k, at);
              begin_service(*qid, at, 0.0);
            } else {
              nodes[k].warm.push_back(at);
            }
            break;
          }
          case ReqState::Phase::kBackoff:
            events.cancel(r.pending_ev);
            break;
          default:
            break;
        }
        r.phase = ReqState::Phase::kDone;
        end_request_span(id, at);
        break;
      }
      case ClusterEvent::Kind::kNodeCrash: {
        const std::uint32_t k = id;  // node index, not a request
        account(at);
        NodeState& node = nodes[k];
        ++result.node_crashes;
        ++result.node_results[k].node_crashes;
        const obs::FaultKindSchema& schema =
            obs::fault_schema(FaultKind::kNodeCrash);
        if (tracer) {
          tracer->instant_at(schema.label, "fault", obs::kVirtualPid,
                             request_track, at,
                             {{"node", static_cast<double>(k)},
                              {"victims", static_cast<double>(node.busy)}});
        }
        if (recorder) {
          recorder->record(schema.rec, 0, 0, at,
                           static_cast<double>(node.busy),
                           static_cast<std::int32_t>(k));
        }
        // Fail every in-flight attempt on the node. O(requests), but a
        // node crashes at most once per run.
        for (std::uint32_t victim = 0;
             victim < static_cast<std::uint32_t>(n); ++victim) {
          ReqState& r = reqs[victim];
          if (r.phase != ReqState::Phase::kRunning || r.node != k) continue;
          events.cancel(r.pending_ev);
          --node.busy;
          --busy_total;
          --node.live;
          --live_total;
          count_fault(FaultKind::kNodeCrash, victim, r.attempt, at,
                      static_cast<double>(k));
          fail_attempt(victim, at, 0.0);
        }
        // The warm pool dies with the node.
        while (!node.warm.empty()) {
          node.warm.pop_front();
          --node.live;
          --live_total;
        }
        // Queued requests go back through the router; the node itself
        // restarts immediately (cold), so the router may well pick it
        // again.
        requeue.clear();
        while (auto qid = take_queued(k)) requeue.push_back(*qid);
        if (!requeue.empty()) note_queue_depth(at);
        for (const std::uint32_t q : requeue) start_request(q, at);
        break;
      }
    }
  }

  if (!latencies.empty()) {
    result.mean_ms = mean_of(latencies);
    const Cdf cdf(latencies);  // one sort for all three quantiles
    result.p50_ms = cdf.quantile(0.50);
    result.p95_ms = cdf.quantile(0.95);
    result.p99_ms = cdf.quantile(0.99);
  }
  // Streaming accumulator in completion order (deterministic: virtual
  // time), merged across seeds by run_batch.
  for (double latency : latencies) result.latency_stats.add(latency);
  const TimeMs span = std::max(last_event, config_.horizon_ms);
  result.achieved_rps =
      span > 0.0 ? static_cast<double>(result.completed) / (span / 1000.0)
                 : 0.0;
  result.mean_busy_instances = span > 0.0 ? busy_area / span : 0.0;
  if (metrics) {
    metrics->gauge("cluster.peak_instances")
        .set(static_cast<double>(result.peak_instances));
  }
  CHIRON_LOG(kDebug) << "cluster sim (" << node_count << " nodes, "
                     << to_string(config_.router)
                     << "): " << result.completed << "/" << result.offered
                     << " requests, " << result.cold_starts
                     << " cold starts, " << result.failed << " faults, "
                     << result.retried << " retries, " << result.timed_out
                     << " timeouts, " << result.dropped
                     << " drops, peak queue " << result.peak_queue << ", "
                     << result.node_crashes << " node crashes";
  return result;
}

std::vector<ScenarioOutcome> ClusterSimulator::run_batch(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<std::uint64_t>& seeds, const RuntimeParams& params,
    ThreadPool* pool) {
  // Per-(spec, seed) job, prepared sequentially in spec-major order so the
  // arrival processes and the global request-id blocks are minted in a
  // deterministic sequence regardless of how the runs are later scheduled.
  struct Job {
    ClusterConfig config;
    const Backend* backend = nullptr;
    std::size_t stages = 1;
    std::vector<TimeMs> arrivals;
    std::uint64_t id_base = 0;
  };
  std::vector<Job> jobs;
  jobs.reserve(specs.size() * std::max<std::size_t>(1, seeds.size()));
  for (const ScenarioSpec& spec : specs) {
    const std::vector<std::uint64_t> spec_seeds =
        seeds.empty() ? std::vector<std::uint64_t>{spec.config.seed} : seeds;
    for (const std::uint64_t seed : spec_seeds) {
      Job job;
      job.config = spec.config;
      job.config.seed = seed;
      job.backend = spec.backend;
      job.stages = spec.cascading_stages;
      Rng rng(seed);
      ArrivalGenerator arrivals(job.config.arrivals, job.config.offered_rps,
                                rng.split());
      job.arrivals = arrivals.generate(job.config.horizon_ms);
      job.id_base = obs::mint_request_ids(job.arrivals.size());
      jobs.push_back(std::move(job));
    }
  }

  // Independent deterministic runs: each gets its own simulator (and with
  // it event queue, FaultInjector, Rng streams, and latency accumulator).
  // map() returns results in job order whatever the worker count.
  std::vector<ClusterResult> results =
      ThreadPool::map(pool, jobs.size(), [&](std::size_t j) {
        const Job& job = jobs[j];
        const ClusterSimulator sim(job.config, params);
        return sim.run_prepared(*job.backend, job.stages, job.arrivals,
                                job.id_base);
      });

  // Fold per-seed results into per-scenario outcomes.
  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(specs.size());
  std::size_t j = 0;
  for (const ScenarioSpec& spec : specs) {
    ScenarioOutcome outcome;
    outcome.name = spec.name;
    outcome.seeds =
        seeds.empty() ? std::vector<std::uint64_t>{spec.config.seed} : seeds;
    for (std::size_t k = 0; k < outcome.seeds.size(); ++k, ++j) {
      ClusterResult& r = results[j];
      outcome.latency_ms.merge(r.latency_stats);
      outcome.achieved_rps.add(r.achieved_rps);
      outcome.offered += r.offered;
      outcome.completed += r.completed;
      outcome.cold_starts += r.cold_starts;
      outcome.timed_out += r.timed_out;
      outcome.dropped += r.dropped;
      outcome.runs.push_back(std::move(r));
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace chiron
