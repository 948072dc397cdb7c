// SystemOptions with every noise source off, so backend latencies are
// deterministic functions of the workflow and the deployment.
#pragma once

#include "platform/systems.h"

namespace chiron {
namespace testsupport {

inline SystemOptions quiet_options() {
  SystemOptions opts;
  opts.noise.jitter_sigma = 0.0;
  opts.noise.thread_contention = 0.0;
  opts.noise.run_sigma = 0.0;
  return opts;
}

}  // namespace testsupport
}  // namespace chiron
