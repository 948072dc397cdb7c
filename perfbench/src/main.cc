// chiron_perfbench: runs one named workload of the end-to-end benchmark and
// prints its result. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end catalogue (--trace 0) or the per-layer one
// (--trace 1). A run whose outputs fail a check prints correct=false, no
// numbers, and exits 1.
//
//   chiron_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--trace-out FILE]
//   chiron_perfbench --list
//   chiron_perfbench --crosscheck [--seed N]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "checks.h"
#include "host.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr std::size_t kMaxSpansWritten = 20000;

int usage(const std::string& error) {
  std::cerr << "chiron_perfbench: " << error << "\n"
            << "usage: chiron_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE]\n"
               "       chiron_perfbench --list\n"
               "       chiron_perfbench --crosscheck [--seed N]\n";
  return 2;
}

std::string fixed(double v, int digits) {
  std::string s(32, '\0');
  s.resize(static_cast<std::size_t>(
      std::snprintf(s.data(), s.size(), "%.*f", digits, v)));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  opts.process_start_ns = now_ns();
  std::string workload, trace_out;
  bool list = false, crosscheck = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
        opts.trace = v == "1";
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else if (arg == "--list") {
        list = true;
      } else if (arg == "--crosscheck") {
        crosscheck = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  if (list) {
    for (const std::string& name : WorkloadNames()) {
      std::cout << name << "\t" << FindWorkload(name)->why << "\n";
    }
    std::cout << "held-out seed: " << kHeldOutSeed << "\n";
    return 0;
  }
  if (build_type() != "Release") {
    std::cerr << "chiron_perfbench: refusing to time a " << build_type()
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (crosscheck) {
    for (const std::string& line : run_crosscheck(opts.seed)) {
      std::cout << line << "\n";
    }
    return 0;
  }
  const Workload* w = FindWorkload(workload);
  if (!w) return usage("unknown workload '" + workload + "'");

  WorkloadOutcome out;
  try {
    out = RunWorkload(*w, opts);
  } catch (const std::exception& e) {
    std::cerr << "chiron_perfbench: " << w->name << " threw: " << e.what()
              << "\n";
    std::cout << result_json(false, 1, 1, "{}") << std::endl;
    return 1;
  }
  const auto& catalogue = opts.trace ? per_layer_metrics() : end_to_end_metrics();

  std::cout << "workload " << w->name << ", seed " << opts.seed
            << " (held-out seed " << kHeldOutSeed << ")\n";
  for (const std::string& line : out.report) std::cout << line << "\n";
  if (!opts.trace) {
    std::cout << "peak_rss_mb = " << fixed(out.metrics.get("peak_rss_mb"), 1)
              << " MiB (after set-up and the first timed rep)\n";
  }
  std::cout << "host: nproc " << online_cpus() << ", load1 at start "
            << fixed(out.load1_start, 2) << ", at end " << fixed(out.load1_end, 2)
            << ", build " << build_type() << "\n";
  for (const std::string& name : out.metrics.absent()) {
    std::cout << "absent: " << name
              << " (its source is no longer published; reported as 0)\n";
  }
  std::cout << "fingerprint: " << std::hex << fnv1a(out.fingerprint)
            << std::dec << "\n";

  if (!out.correct) {
    for (const std::string& e : out.errors) {
      std::cerr << "check failed: " << e << "\n";
    }
    std::cout << result_json(false, out.attempted,
                             std::max<std::uint64_t>(out.failed, 1), "{}")
              << std::endl;
    return 1;
  }
  if (opts.trace && !trace_out.empty() &&
      !out.trace.write_chrome_json(trace_out, kMaxSpansWritten)) {
    std::cerr << "chiron_perfbench: cannot write " << trace_out << "\n";
  }
  std::cout << result_json(true, out.attempted, out.failed,
                           out.metrics.to_json(catalogue))
            << std::endl;
  return 0;
}
