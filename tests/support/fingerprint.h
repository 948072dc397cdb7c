// Helpers shared by the golden-fingerprint tests: an FNV-1a accumulator
// that folds values in bit-exactly (doubles by their bit pattern), the hex
// form pinned values are compared in, and a workflow re-targeted at
// another runtime.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "workflow/workflow.h"

namespace chiron {
namespace testsupport {

class Fnv {
 public:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ull;
  }
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void text(const std::string& s) {
    word(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

inline std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

/// `wf` with every function moved to `runtime` under runtime tag `tag`.
inline Workflow with_runtime(const Workflow& wf, Runtime runtime,
                             const std::string& tag) {
  std::vector<FunctionSpec> fns = wf.functions();
  for (FunctionSpec& f : fns) {
    f.runtime = runtime;
    f.runtime_tag = tag;
  }
  return Workflow(wf.name() + "-" + tag, std::move(fns), wf.stages());
}

}  // namespace testsupport
}  // namespace chiron
