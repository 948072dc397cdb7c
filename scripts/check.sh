#!/usr/bin/env bash
# Tier-1 verification wrapper: configure, build, and run the full ctest
# suite, then smoke the observability endpoint end-to-end (chironctl
# --serve-obs + curl). With --tsan, additionally build a ThreadSanitizer
# preset (-DCHIRON_SANITIZE=thread, separate build dir) and repeat the
# concurrency-sensitive subset — the live-thread engine, the local runner,
# the emulated GIL, the tracer/metrics/recorder/obs-server layer, one
# WrapPlanBackend shared by several threads (per-thread kernel scratch), and
# the PGP deploy pool over the Predictor's per-thread task scratch: the
# KernighanLin tests fan one KL round's swap grid out over pool lanes, and
# PgpParity / PgpGolden drive that grid through the real StageEvaluator
# (including the whole-wrap path through the shared PredictionCache).
#
#   scripts/check.sh            # plain tier-1
#   scripts/check.sh --tsan     # tier-1 + sanitized concurrency subset
#
# Env overrides: BUILD_DIR (default build), TSAN_BUILD_DIR (build-tsan),
# JOBS (nproc).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-build}"

echo "== tier-1: configure + build (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== tier-1: ctest =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== tier-1: bench smoke =="
scripts/bench.sh --smoke

echo "== tier-1: kernel BigO guard =="
# The fast GIL kernel must stay event-driven: a quick complexity fit over
# 8..512 threads (binary just built by the bench smoke) has to come out
# at N log N or better. A fit of N^2 (or worse) means someone re-linearised
# the inner loop — fail loudly before any timing is recorded.
GUARD_JSON="${BENCH_BUILD_DIR:-build-bench}/bigo_guard.json"
"${BENCH_BUILD_DIR:-build-bench}/bench/bench_micro_predictor" \
  --benchmark_filter='BM_GilSimulationThreads/' --benchmark_min_time=0.01 \
  --benchmark_format=json 2>/dev/null > "${GUARD_JSON}"
python3 - "${GUARD_JSON}" <<'PY'
import json, sys
fits = {b["name"]: b.get("big_o")
        for b in json.load(open(sys.argv[1])).get("benchmarks", [])
        if b.get("aggregate_name") == "BigO"}
fit = fits.get("BM_GilSimulationThreads_BigO")
if fit is None:
    sys.exit("BigO guard: no complexity fit emitted for "
             "BM_GilSimulationThreads")
print("BM_GilSimulationThreads BigO fit: %s" % fit)
if fit in ("N^2", "N^3"):
    sys.exit("BigO guard: GIL kernel regressed to %s (want <= N log N)"
             % fit)
PY

echo "== tier-1: cluster hot-path guard =="
# The typed-event serving loop must stay near-linear: its complexity fit
# on the high-churn overload scenario has to come out at N log N or
# better.
CLUSTER_GUARD_JSON="${BENCH_BUILD_DIR:-build-bench}/cluster_guard.json"
"${BENCH_BUILD_DIR:-build-bench}/bench/bench_micro_cluster" \
  --benchmark_min_time=0.01 \
  --benchmark_format=json 2>/dev/null > "${CLUSTER_GUARD_JSON}"
python3 - "${CLUSTER_GUARD_JSON}" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
fits = {b["name"]: b.get("big_o") for b in doc.get("benchmarks", [])
        if b.get("aggregate_name") == "BigO"}
fit = fits.get("BM_ClusterRun_BigO")
if fit is None:
    sys.exit("cluster guard: no complexity fit emitted for BM_ClusterRun")
print("BM_ClusterRun BigO fit: %s" % fit)
if fit in ("N^2", "N^3"):
    sys.exit("cluster guard: serving loop regressed to %s "
             "(want <= N log N)" % fit)
PY

echo "== tier-1: router policy guard =="
# Placement must pay for itself: on the skewed 8-node burst scenario the
# warm-affinity router has to land well under random's cold-start count
# (full-run numbers in BENCH_deploy.json show ~25x; 2x keeps the quick
# pass honest without flaking). The counters are deterministic per seed,
# so min_time can stay tiny.
ROUTER_GUARD_JSON="${BENCH_BUILD_DIR:-build-bench}/router_guard.json"
"${BENCH_BUILD_DIR:-build-bench}/bench/bench_micro_router" \
  --benchmark_min_time=0.01 \
  --benchmark_format=json 2>/dev/null > "${ROUTER_GUARD_JSON}"
python3 - "${ROUTER_GUARD_JSON}" <<'PY'
import json, sys
cold = {b["name"].split("/", 1)[1]: b.get("cold_starts")
        for b in json.load(open(sys.argv[1])).get("benchmarks", [])
        if b.get("name", "").startswith("BM_RouterPolicy/")}
warm, rand = cold.get("warm_affinity"), cold.get("random")
if warm is None or rand is None:
    sys.exit("router guard: missing warm_affinity/random cold-start counters")
print("router guard: warm_affinity %d cold starts vs random %d"
      % (warm, rand))
if warm * 2 >= rand:
    sys.exit("router guard: warm_affinity (%d cold starts) no longer "
             "beats random (%d) by 2x on the burst scenario" % (warm, rand))
PY

echo "== tier-1: obs smoke =="
# End-to-end observability: run a faulted chironctl with the embedded obs
# endpoint + flight recorder, scrape /healthz + /metrics over HTTP, and
# JSON-validate /trace, /recorder, and the on-exit recorder dump.
OBS_LOG="${BUILD_DIR}/obs_smoke.log"
OBS_DUMP="${BUILD_DIR}/obs_smoke_recorder.json"
rm -f "${OBS_LOG}" "${OBS_DUMP}"
# CHIRON_LOG_LEVEL pinned: the port is parsed from the info-level
# "listening" line, which an inherited error-level env would filter.
CHIRON_LOG_LEVEL=info "${BUILD_DIR}/examples/chironctl" \
  --faults cold=0.05,crash=0.05,straggler=0.1x4,seed=7 \
  --retry 3 --timeout-ms 1500 --rps 30 \
  --serve-obs 0 --obs-linger-ms 6000 \
  --recorder --recorder-dump "${OBS_DUMP}" \
  >"${OBS_LOG}" 2>&1 &
OBS_PID=$!

OBS_PORT=""
for _ in $(seq 1 100); do
  OBS_PORT="$(sed -n 's#.*obs server listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "${OBS_LOG}" | head -n 1)"
  [[ -n "${OBS_PORT}" ]] && break
  sleep 0.1
done
if [[ -z "${OBS_PORT}" ]]; then
  echo "obs smoke: server never reported a port" >&2
  cat "${OBS_LOG}" >&2
  exit 1
fi

curl -fsS --max-time 5 "http://127.0.0.1:${OBS_PORT}/healthz" | grep -q '^ok$'
curl -fsS --max-time 5 "http://127.0.0.1:${OBS_PORT}/metrics" | grep -q '^# TYPE '
curl -fsS --max-time 5 "http://127.0.0.1:${OBS_PORT}/trace" \
  | python3 -c 'import json,sys; json.load(sys.stdin)["traceEvents"]'
curl -fsS --max-time 5 "http://127.0.0.1:${OBS_PORT}/recorder" \
  | python3 -c 'import json,sys; json.load(sys.stdin)["events"]'

OBS_RC=0; wait "${OBS_PID}" || OBS_RC=$?
# 0 = SLO met, 3 = deployed but SLO missed; both mean the pipeline ran.
if [[ "${OBS_RC}" != "0" && "${OBS_RC}" != "3" ]]; then
  echo "obs smoke: chironctl exited ${OBS_RC}" >&2
  cat "${OBS_LOG}" >&2
  exit 1
fi
python3 -c 'import json,sys; json.load(open(sys.argv[1]))["events"]' "${OBS_DUMP}"
echo "== tier-1: obs smoke OK =="

if [[ "${1:-}" == "--tsan" ]]; then
  TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
  echo "== tsan: configure + build (${TSAN_BUILD_DIR}) =="
  cmake -B "${TSAN_BUILD_DIR}" -S . -DCHIRON_SANITIZE=thread >/dev/null
  cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}"
  echo "== tsan: concurrency-sensitive subset =="
  ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure -j "${JOBS}" \
    -R 'Engine|LocalRunner|EmulatedGil|Gil|Tracer|Counter|Gauge|Histogram|MetricsRegistry|Instrumentation|ThreadPool|PredictionCache|PgpParity|PgpGolden|KernighanLin|Fault|Obs|Sweep|Cluster|Router|PlanBackend'
fi

echo "== check.sh: all green =="
