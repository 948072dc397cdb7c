// A Backend whose every request takes the same latency, with the
// resources the test chooses. run() never touches the heap, so
// allocation counts and latencies in serving-loop tests are the loop's
// own.
#pragma once

#include <string>

#include "platform/backend.h"

namespace chiron {
namespace testsupport {

class ConstantBackend : public Backend {
 public:
  ConstantBackend(TimeMs latency, ResourceUsage usage)
      : latency_(latency), usage_(usage) {}
  std::string name() const override { return "constant"; }
  RunResult run(Rng&) const override {
    RunResult r;
    r.e2e_latency_ms = latency_;
    return r;
  }
  ResourceUsage resources() const override { return usage_; }

 private:
  TimeMs latency_;
  ResourceUsage usage_;
};

}  // namespace testsupport
}  // namespace chiron
