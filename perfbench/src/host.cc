#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>

namespace perfbench {

unsigned online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 0;
}

double load_average_1min() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  if (!(in >> load)) return -1.0;
  return load;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string build_type() { return PERFBENCH_BUILD_TYPE; }

}  // namespace perfbench
