// Host context recorded next to every result: the numbers a reader needs
// to judge whether two host-time measurements are comparable.
#pragma once

#include <string>

namespace perfbench {

/// CPUs online (sysconf); 0 when unknown.
unsigned online_cpus();

/// 1-minute load average from /proc/loadavg; -1 when unavailable.
double load_average_1min();

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mib();

/// CMAKE_BUILD_TYPE this binary was configured with.
std::string build_type();

}  // namespace perfbench
