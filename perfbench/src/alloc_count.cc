#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};

// One counter per thread slot, each on its own cache line, so threads that
// allocate concurrently (the deploy pool) do not contend on one line.
constexpr std::size_t kSlots = 64;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};

Slot& my_slot() {
  thread_local Slot& slot =
      g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots];
  return slot;
}

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    my_slot().count.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() {
  std::uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
