// Binary-wide operator-new call counter for allocation-freedom tests.
//
// alloc_counter.cc replaces the global operator new/delete with a
// malloc-backed implementation that bumps an atomic counter while armed.
// Tests wrap the code under scrutiny in arm/disarm and assert on the
// returned count — e.g. the typed-event serving loop must perform zero
// steady-state allocations per request.
#pragma once

#include <cstdint>

namespace chiron {
namespace testsupport {

/// Starts counting operator-new calls (process-wide, all threads).
void arm_alloc_counter();

/// Stops counting and returns the number of operator-new calls observed
/// since the matching arm_alloc_counter().
std::uint64_t disarm_alloc_counter();

/// Operator-new calls counted so far in the current armed window, without
/// disarming — lets a decorator attribute the allocations made inside one
/// call (read before and after it).
std::uint64_t alloc_count();

/// False when the binary is built under a sanitizer whose interceptors
/// make allocation counts meaningless; tests should GTEST_SKIP then.
bool alloc_counting_supported();

/// RAII wrapper: arms on construction, disarms on count().
class ScopedAllocCounter {
 public:
  ScopedAllocCounter() { arm_alloc_counter(); }
  /// Disarms (first call only) and returns the count.
  std::uint64_t count() {
    if (!counted_) {
      count_ = disarm_alloc_counter();
      counted_ = true;
    }
    return count_;
  }
  ~ScopedAllocCounter() {
    if (!counted_) disarm_alloc_counter();
  }

 private:
  std::uint64_t count_ = 0;
  bool counted_ = false;
};

}  // namespace testsupport
}  // namespace chiron
