#include "platform/backend.h"

#include "obs/fault_schema.h"
#include "obs/metrics.h"

namespace chiron {

void note_backend_fault(FaultKind kind) {
  obs::MetricsRegistry& m = obs::MetricsRegistry::global();
  m.counter(obs::kFaultCounter).inc();
  m.counter(obs::fault_schema(kind).counter).inc();
}

TimeMs Backend::mean_latency(Rng& rng, int runs) const {
  if (runs <= 0) return 0.0;
  TimeMs sum = 0.0;
  for (int i = 0; i < runs; ++i) sum += run(rng).e2e_latency_ms;
  return sum / static_cast<TimeMs>(runs);
}

}  // namespace chiron
