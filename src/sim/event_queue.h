// A minimal deterministic discrete-event engine in two flavours:
//
//  * EventQueue — time-ordered std::function callbacks with FIFO
//    tie-breaking and cancellation handles. Convenient for examples,
//    custom experiments and the serving model's test spec, but every
//    schedule() heap-allocates the closure and cancellation maintains
//    two hash sets.
//
//  * TypedEventQueue<Event> — the serving-loop hot path. Events are POD
//    payloads in a free-listed slot arena; the heap holds {time, seq,
//    slot, generation} entries only. Cancellation bumps the slot's
//    generation counter (O(1), no hash sets, no tombstone set growing
//    per run), and the stale heap entry is dropped when popped. With
//    reserve() called up front, schedule/cancel/pop perform zero heap
//    allocations, which is what lets ClusterSimulator's typed loop serve
//    requests allocation-free in steady state.
//
// Both orders events by (time, seq): same-time events run in schedule
// (FIFO) order, so two engines issuing identical schedule sequences pop
// identical event sequences — the foundation of the engine-vs-spec
// bit-identical parity tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace chiron {

/// Discrete-event scheduler. Not thread-safe by design (simulations are
/// deterministic single-threaded runs; parallelism comes from running many
/// independent simulations, which benches do).
class EventQueue {
 public:
  using Callback = std::function<void()>;
  /// Identifies one scheduled event; valid until it runs or is cancelled.
  using Handle = std::uint64_t;

  /// Schedules `cb` at absolute simulated time `at` (>= now()). The
  /// returned handle can be passed to cancel() while the event is pending.
  Handle schedule(TimeMs at, Callback cb);

  /// Schedules `cb` at now() + delay.
  Handle schedule_in(TimeMs delay, Callback cb);

  /// Cancels a pending event. Returns true if the event had not yet run
  /// (its callback will never fire); false if it already ran, was already
  /// cancelled, or the handle is unknown.
  bool cancel(Handle handle);

  /// Current simulated time.
  TimeMs now() const { return now_; }

  /// Number of pending (scheduled, not yet run or cancelled) events.
  std::size_t pending() const { return pending_.size(); }

  /// Runs events until the queue is empty. Returns final time.
  TimeMs run();

  /// Runs events with time <= horizon; leaves later events pending and
  /// sets now() to min(horizon, last event time). Returns now().
  TimeMs run_until(TimeMs horizon);

 private:
  struct Entry {
    TimeMs at;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<std::uint64_t> pending_;    ///< scheduled, not run
  std::unordered_set<std::uint64_t> cancelled_;  ///< tombstones in heap_
  TimeMs now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// Slab-backed typed-event scheduler: the allocation-free counterpart of
/// EventQueue for hot simulation loops. `Event` should be a small
/// trivially-copyable payload (the cluster loop uses {kind, request id});
/// it is copied into a slot on schedule and copied out on pop.
///
/// Ordering contract: events pop in strict (time, seq) order where seq is
/// the schedule call number — identical to EventQueue, so a loop ported
/// from closures to typed events replays the exact same event sequence.
template <typename Event>
class TypedEventQueue {
 public:
  /// Identifies one scheduled event; valid until it pops or is cancelled.
  /// Cancelling or popping bumps the slot's generation, so a stale handle
  /// (or a handle re-used by a later schedule) is rejected by cancel().
  struct Handle {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  /// Pre-sizes the slot arena and the heap so a run whose live-event and
  /// live+stale-entry counts stay within the bounds never allocates in
  /// schedule/cancel/pop. Growing past the reservation is correct, just
  /// no longer allocation-free.
  void reserve(std::size_t slots, std::size_t heap_entries) {
    slots_.reserve(slots);
    heap_.reserve(heap_entries);
  }

  /// Schedules `event` at absolute simulated time `at` (>= now()).
  Handle schedule(TimeMs at, const Event& event) {
    return schedule_with_seq(at, event, next_seq_++);
  }

  /// Mints the next sequence number without scheduling anything. Drivers
  /// that keep a side stream of events outside the heap (e.g. the cluster
  /// loop's ring of constant-delay timeouts) stamp each side event with a
  /// minted seq at the point a single-queue implementation would have
  /// called schedule(); merging both streams by (time, seq) then replays
  /// the exact single-queue order, ties included.
  std::uint64_t mint_seq() { return next_seq_++; }

  /// As schedule(), but stamps the entry with a caller-minted sequence
  /// number (from mint_seq()) instead of minting one internally.
  Handle schedule_with_seq(TimeMs at, const Event& event, std::uint64_t seq) {
    if (at < now_) {
      throw std::invalid_argument("cannot schedule an event in the past");
    }
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
      slots_[slot].event = event;
      slots_[slot].armed = true;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{event, 0, kNoSlot, true});
    }
    heap_.push_back(HeapEntry{at, seq, slot, slots_[slot].generation});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return Handle{slot, slots_[slot].generation};
  }

  /// Schedules `event` at now() + delay.
  Handle schedule_in(TimeMs delay, const Event& event) {
    return schedule(now_ + delay, event);
  }

  /// Cancels a pending event in O(1): the slot's generation is bumped and
  /// the slot returns to the free list; the heap entry is left behind and
  /// dropped (generation mismatch) when it surfaces. Returns true if the
  /// event had not yet popped; false for popped/cancelled/stale handles.
  bool cancel(Handle handle) {
    if (handle.slot >= slots_.size()) return false;
    Slot& slot = slots_[handle.slot];
    if (!slot.armed || slot.generation != handle.generation) return false;
    release(handle.slot);
    --live_;
    return true;
  }

  /// Pops the next live event, advancing now() to its time. Returns false
  /// when no live events remain. The popped slot is released before
  /// returning, so the caller's handler may schedule new events (which
  /// may legitimately reuse the slot under a fresh generation).
  bool pop(TimeMs* at, Event* event) {
    while (!heap_.empty()) {
      const HeapEntry top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      Slot& slot = slots_[top.slot];
      if (!slot.armed || slot.generation != top.generation) continue;
      *at = top.at;
      *event = slot.event;
      now_ = top.at;
      release(top.slot);
      --live_;
      return true;
    }
    return false;
  }

  /// Reports the time (and, optionally, the seq) of the next live event
  /// without popping it (now() does not advance). Stale heap tops left
  /// behind by cancel() are pruned on the way. Returns false when no live
  /// events remain.
  bool peek(TimeMs* at, std::uint64_t* seq = nullptr) {
    while (!heap_.empty()) {
      const HeapEntry& top = heap_.front();
      const Slot& slot = slots_[top.slot];
      if (slot.armed && slot.generation == top.generation) {
        *at = top.at;
        if (seq) *seq = top.seq;
        return true;
      }
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    return false;
  }

  /// Advances now() to `t` (never backwards) without popping anything.
  /// Lets a driver merge an external sorted event stream with the heap —
  /// e.g. the cluster loop's pre-sorted arrival times, which would
  /// otherwise bloat the heap to O(total requests) — while keeping the
  /// no-past-events schedule() guard honest.
  void advance_to(TimeMs t) { now_ = std::max(now_, t); }

  /// Current simulated time.
  TimeMs now() const { return now_; }

  /// Number of pending (scheduled, not popped or cancelled) events.
  std::size_t pending() const { return live_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Slot {
    Event event{};
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    bool armed = false;
  };
  /// Heap payload is POD: the event itself stays in the arena.
  struct HeapEntry {
    TimeMs at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// Max-heap comparator inverted into a (time, seq) min-heap — the same
  /// total order as EventQueue::Later, and strict (seq is unique), so pop
  /// order is independent of heap internals.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void release(std::uint32_t index) {
    Slot& slot = slots_[index];
    slot.armed = false;
    ++slot.generation;  // invalidates the handle and any stale heap entry
    slot.next_free = free_head_;
    free_head_ = index;
  }

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  TimeMs now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace chiron
