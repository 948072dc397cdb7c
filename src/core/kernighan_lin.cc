#include "core/kernighan_lin.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/thread_pool.h"

namespace chiron {
namespace {

// Swaps working[a_pos] (in set A) with working[b_pos] (in set B).
void apply_swap(std::vector<FunctionId>& a, std::vector<FunctionId>& b,
                std::size_t a_pos, std::size_t b_pos) {
  std::swap(a[a_pos], b[b_pos]);
}

// One round's candidate grid: every unlocked A position against every
// unlocked B position, numbered row-major (cell c = free_a[c / |free_b|]
// against free_b[c % |free_b|]) — the order of the sequential loop.
struct RoundGrid {
  std::vector<std::size_t> free_a;
  std::vector<std::size_t> free_b;

  std::size_t cells() const { return free_a.size() * free_b.size(); }
  std::size_t a_pos(std::size_t c) const { return free_a[c / free_b.size()]; }
  std::size_t b_pos(std::size_t c) const { return free_b[c % free_b.size()]; }
};

// Latency of `grid` cell c: (wa, wb) with that swap applied, then undone.
TimeMs eval_cell(const PairLatencyEval& eval, const RoundGrid& grid,
                 std::size_t c, std::vector<FunctionId>& wa,
                 std::vector<FunctionId>& wb) {
  apply_swap(wa, wb, grid.a_pos(c), grid.b_pos(c));
  const TimeMs t = eval(wa, wb);
  apply_swap(wa, wb, grid.a_pos(c), grid.b_pos(c));  // undo
  return t;
}

// A fanned-out round: the working sets it was cut from, its grid, a shared
// claim cursor and one result slot per cell. Only the cursor and the slots
// change once the round is published.
struct Round {
  struct Cell {
    std::atomic<TimeMs> latency{0.0};
    std::atomic<bool> done{false};
  };

  Round(const std::vector<FunctionId>& wa, const std::vector<FunctionId>& wb,
        const RoundGrid& g)
      : a(wa), b(wb), grid(g), cells(g.cells()) {}

  bool exhausted() const {
    return cursor.load(std::memory_order_relaxed) >= cells.size();
  }

  /// Claims and evaluates cells on (wa, wb), which hold the round's working
  /// sets, until the cursor runs out or `stop` is raised.
  void work(const PairLatencyEval& eval, std::vector<FunctionId>& wa,
            std::vector<FunctionId>& wb, const std::atomic<bool>& stop) {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= cells.size()) return;
      cells[c].latency.store(eval_cell(eval, grid, c, wa, wb),
                             std::memory_order_relaxed);
      cells[c].done.store(true, std::memory_order_release);
    }
  }

  const std::vector<FunctionId> a;
  const std::vector<FunctionId> b;
  const RoundGrid grid;
  std::atomic<std::size_t> cursor{0};
  std::vector<Cell> cells;
};

// How long a helper whose round ran out waits for the caller's next round
// before returning to the pool. Rounds follow each other within a few
// microseconds; re-waking a parked worker for every round costs far more
// on a busy host (FINRA-50 deploys with two CPU hogs beside them: ~1.05x
// the sequential speed without the wait, ~1.5x with it; 20 and 100 us
// measured the same).
constexpr std::chrono::microseconds kLinger{20};

// The pool workers helping one kernighan_lin() call. A helper takes the
// latest published round, copies its working sets into thread-local lanes
// and claims cells next to the caller; when the round runs out it waits
// kLinger for a newer one, then returns to the pool. The caller never
// waits for a helper inside a round: a cell still in flight when the
// caller reduces is evaluated again by the caller (eval is deterministic,
// so both values are equal). Only the destructor waits, for helpers still
// running, which keeps `eval` and everything it references alive for them.
class LaneCrew {
 public:
  LaneCrew(ThreadPool& pool, const PairLatencyEval& eval)
      : pool_(pool), shared_(std::make_shared<Shared>(eval)) {}

  LaneCrew(const LaneCrew&) = delete;
  LaneCrew& operator=(const LaneCrew&) = delete;

  ~LaneCrew() {
    Shared& sh = *shared_;
    std::unique_lock<std::mutex> lock(sh.mu);
    sh.closed.store(true, std::memory_order_relaxed);
    sh.current.reset();
    sh.idle.wait(lock, [&] { return sh.running == 0; });
    // Helpers still queued start later, see `closed` and touch only the
    // shared state they co-own.
  }

  /// Makes `round` the helpers' current round and tops the crew up to one
  /// helper per pool worker.
  void publish(std::shared_ptr<Round> round) {
    Shared& sh = *shared_;
    std::size_t hires = 0;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.current = std::move(round);
      sh.generation.fetch_add(1, std::memory_order_relaxed);
      const std::size_t crew = sh.queued + sh.running;
      hires = pool_.size() > crew ? pool_.size() - crew : 0;
      sh.queued += hires;
    }
    for (std::size_t h = 0; h < hires; ++h) {
      pool_.submit([shared = shared_] { help(*shared); });
    }
  }

  /// Raised when the crew closes; helpers stop claiming cells.
  const std::atomic<bool>& closed() const { return shared_->closed; }

 private:
  struct Shared {
    explicit Shared(const PairLatencyEval& e) : eval(e) {}
    const PairLatencyEval& eval;  // dereferenced only while running > 0
    std::mutex mu;
    std::condition_variable idle;
    std::shared_ptr<Round> current;
    std::size_t queued = 0;   // submitted, not started
    std::size_t running = 0;  // started, not returned
    std::atomic<bool> closed{false};
    std::atomic<std::uint64_t> generation{0};  // rounds published
  };

  static void help(Shared& sh) {
    thread_local std::vector<FunctionId> lane_a;
    thread_local std::vector<FunctionId> lane_b;
    std::unique_lock<std::mutex> lock(sh.mu);
    --sh.queued;
    ++sh.running;
    bool lingered = false;
    while (!sh.closed.load(std::memory_order_relaxed)) {
      const std::shared_ptr<Round> round = sh.current;
      if (round && !round->exhausted()) {
        lock.unlock();
        lane_a.assign(round->a.begin(), round->a.end());
        lane_b.assign(round->b.begin(), round->b.end());
        try {
          round->work(sh.eval, lane_a, lane_b, sh.closed);
        } catch (...) {
          // The failed cell stays undone; the caller re-evaluates it and
          // raises the error itself.
        }
        lock.lock();
        lingered = false;
        continue;
      }
      // Decided under the lock, so a round published before this point is
      // seen above and one published after it counts this helper gone.
      if (lingered) break;
      lingered = true;
      const std::uint64_t seen = sh.generation.load(std::memory_order_relaxed);
      lock.unlock();
      const auto until = std::chrono::steady_clock::now() + kLinger;
      while (sh.generation.load(std::memory_order_relaxed) == seen &&
             !sh.closed.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
      }
      lock.lock();
    }
    if (--sh.running == 0) sh.idle.notify_all();
  }

  ThreadPool& pool_;
  std::shared_ptr<Shared> shared_;
};

}  // namespace

KlResult kernighan_lin(std::vector<FunctionId> a, std::vector<FunctionId> b,
                       const PairLatencyEval& eval, ThreadPool* pool) {
  KlResult result;
  result.evaluations = 1;
  TimeMs current = eval(a, b);

  // Working copies that accumulate tentative swaps; `locked_*` marks
  // positions already swapped (removed from A'/B' in the paper).
  std::vector<FunctionId> wa = a;
  std::vector<FunctionId> wb = b;
  std::vector<bool> locked_a(wa.size(), false);
  std::vector<bool> locked_b(wb.size(), false);

  struct SwapOp {
    std::size_t a_pos;
    std::size_t b_pos;
    TimeMs gain;
  };
  std::vector<SwapOp> ops;
  TimeMs working_latency = current;

  // The first round is the largest; if it stays inline, all of them do.
  std::optional<LaneCrew> crew;
  if (pool != nullptr && !ThreadPool::on_worker_thread() &&
      wa.size() * wb.size() >= kKlParallelMinCells) {
    crew.emplace(*pool, eval);
  }
  RoundGrid grid;
  grid.free_a.reserve(wa.size());
  grid.free_b.reserve(wb.size());

  const std::size_t rounds = std::min(wa.size(), wb.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    grid.free_a.clear();
    grid.free_b.clear();
    for (std::size_t i = 0; i < wa.size(); ++i) {
      if (!locked_a[i]) grid.free_a.push_back(i);
    }
    for (std::size_t j = 0; j < wb.size(); ++j) {
      if (!locked_b[j]) grid.free_b.push_back(j);
    }
    const std::size_t cells = grid.cells();
    std::shared_ptr<Round> round;
    if (crew && cells >= kKlParallelMinCells) {
      round = std::make_shared<Round>(wa, wb, grid);
      crew->publish(round);
      round->work(eval, wa, wb, crew->closed());
    }

    // Row-major reduction with a strict `<`: the first minimum wins and a
    // NaN never does, exactly as in one sequential sweep. Inline rounds,
    // and cells a helper has not finished yet, are evaluated here.
    TimeMs best_latency = std::numeric_limits<TimeMs>::infinity();
    std::size_t best_cell = cells;
    for (std::size_t c = 0; c < cells; ++c) {
      const TimeMs t =
          round && round->cells[c].done.load(std::memory_order_acquire)
              ? round->cells[c].latency.load(std::memory_order_relaxed)
              : eval_cell(eval, grid, c, wa, wb);
      if (t < best_latency) {
        best_latency = t;
        best_cell = c;
      }
    }
    result.evaluations += cells;
    if (best_cell == cells) break;  // nothing swappable left
    const std::size_t best_i = grid.a_pos(best_cell);
    const std::size_t best_j = grid.b_pos(best_cell);
    apply_swap(wa, wb, best_i, best_j);
    locked_a[best_i] = true;
    locked_b[best_j] = true;
    ops.push_back({best_i, best_j, working_latency - best_latency});
    working_latency = best_latency;
  }

  // Best cumulative-gain prefix (k = argmax_k sum_{i<=k} g_i, only if the
  // best prefix is an improvement).
  TimeMs cumulative = 0.0, best_cumulative = 0.0;
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    cumulative += ops[k].gain;
    if (cumulative > best_cumulative) {
      best_cumulative = cumulative;
      best_k = k + 1;
    }
  }
  for (std::size_t k = 0; k < best_k; ++k) {
    apply_swap(a, b, ops[k].a_pos, ops[k].b_pos);
  }

  result.a = std::move(a);
  result.b = std::move(b);
  result.swaps_applied = best_k;
  result.latency = best_k == 0 ? current : eval(result.a, result.b);
  if (best_k != 0) ++result.evaluations;
  return result;
}

}  // namespace chiron
