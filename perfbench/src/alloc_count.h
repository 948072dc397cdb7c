// Process-wide operator-new counter. alloc_count.cc replaces the global
// operator new with a malloc passthrough that also counts calls while
// counting is switched on, so a traced run can attribute heap allocations
// to the layer boundary it brackets. Off by default: the untraced
// end-to-end runs pay one relaxed atomic load per allocation.
#pragma once

#include <cstdint>

namespace perfbench {

/// Switches counting on or off (all threads).
void set_alloc_counting(bool on);

/// operator-new calls made while counting was on, since process start.
std::uint64_t alloc_count();

}  // namespace perfbench
