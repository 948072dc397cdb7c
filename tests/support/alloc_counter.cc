#include "support/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace chiron {
namespace testsupport {
namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_count{0};

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kCountingSupported = false;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kCountingSupported = false;
#else
constexpr bool kCountingSupported = true;
#endif
#else
constexpr bool kCountingSupported = true;
#endif

}  // namespace

void arm_alloc_counter() {
  g_count.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
}

std::uint64_t disarm_alloc_counter() {
  g_armed.store(false, std::memory_order_relaxed);
  return g_count.load(std::memory_order_relaxed);
}

std::uint64_t alloc_count() {
  return g_count.load(std::memory_order_relaxed);
}

bool alloc_counting_supported() { return kCountingSupported; }

namespace {

void* counted_alloc(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace
}  // namespace testsupport
}  // namespace chiron

// Global replacements (binary-wide; a pure malloc passthrough plus the
// armed counter, so un-armed behaviour is unchanged for every other test
// in the binary).
void* operator new(std::size_t size) {
  return chiron::testsupport::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return chiron::testsupport::counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
