#!/usr/bin/env python3
"""Build and run the Chiron end-to-end benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --list
  python3 perfbench/run.py --crosscheck
  python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the repository's libraries from src/ in Release mode. The
build directory is $CARGO_TARGET_DIR when set, else .bench_build, relative
to the repository root. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Traced runs also
write their spans to <build>/traces/<workload>-seed<N>.json.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "chiron_perfbench"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: step failed ({result.returncode}): {' '.join(cmd)}")


def build(build, targets):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"perfbench: no Chiron sources under {ROOT}/src")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(2, os.cpu_count() or 1))
    for target in targets:
        run_quiet(["cmake", "--build", build, "-j", jobs, "--target", target])


def option(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main(args):
    build_path = build_dir()
    if args == ["--selftest"]:
        build(build_path, [BINARY, "perfbench_tests"])
        return subprocess.run(["ctest", "--output-on-failure"],
                              cwd=build_path).returncode
    build(build_path, [BINARY])
    cmd = [os.path.join(build_path, BINARY)] + args
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(build_path, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed') or 1}"
        cmd += ["--trace-out", os.path.join(traces, name + ".json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
