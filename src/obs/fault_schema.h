// How an injected fault is observed, spelled once per FaultKind: the
// per-kind counter it increments, the tracer instant it emits and the
// flight-recorder event it records. Every fault reporter — the cluster
// serving loop, the request backends (note_backend_fault) and the live
// engine — reads this table.
#pragma once

#include <array>
#include <cstddef>

#include "fault/fault.h"
#include "obs/recorder.h"

namespace chiron::obs {

/// Counter every injected fault increments, whatever its kind.
inline constexpr const char* kFaultCounter = "chiron.fault.injected";

struct FaultKindSchema {
  const char* counter;  ///< "chiron.fault.injected.<kind>"
  const char* label;    ///< tracer instant name, "fault.<kind>"
  RecKind rec;          ///< flight-recorder event kind
};

/// Indexed by FaultKind.
inline constexpr std::array<FaultKindSchema, 6> kFaultKindSchema = {{
    {"chiron.fault.injected.cold_start", "fault.cold_start",
     RecKind::kFaultColdStart},
    {"chiron.fault.injected.crash", "fault.crash", RecKind::kFaultCrash},
    {"chiron.fault.injected.straggler", "fault.straggler",
     RecKind::kFaultStraggler},
    {"chiron.fault.injected.transfer", "fault.transfer",
     RecKind::kFaultTransfer},
    // kRetryJitter names the backoff-jitter decision stream, not a fault;
    // nothing reports it.
    {"chiron.fault.injected.retry_jitter", "fault.retry_jitter",
     RecKind::kMark},
    {"chiron.fault.injected.node_crash", "fault.node_crash",
     RecKind::kNodeCrash},
}};
static_assert(kFaultKindSchema.size() ==
              static_cast<std::size_t>(FaultKind::kNodeCrash) + 1);

inline const FaultKindSchema& fault_schema(FaultKind kind) {
  return kFaultKindSchema[static_cast<std::size_t>(kind)];
}

}  // namespace chiron::obs
