#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds the
platform library plus the benchmark (Release) under $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs only check the build is current.
The benchmark's own arithmetic checks (ledger_test) run after each build.

Prints the host context, the benchmark's metric table and, as the last line
of stdout, one JSON object {correct, attempted, failed, metrics}. An output
mismatch prints the result ("correct": false) and exits 1. A failed build,
failed arithmetic checks or an invalid run exit non-zero without a result
line (README.md lists the exit codes).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def cmake_cache(build):
    cache = {}
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and not line.startswith(("//", "#")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def build(build):
    """Configure (once) and build; returns False on any failure."""
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build, ignore_errors=True)
            return False
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", build, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return False
    test = subprocess.run([os.path.join(build, "perfbench_ledger_test")],
                          stdout=sys.stderr)
    return test.returncode == 0


def host_context(build):
    cache = cmake_cache(build)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "idp_simd": cache.get("IDP_SIMD", "OFF"),
        "compiler": version,
        "commit": commit,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    if not build(bdir):
        log("perfbench: build or ledger checks failed")
        return 1
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)

    host = host_context(bdir)
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    if result is None:
        log("perfbench: run failed with exit code %d" % proc.returncode)
        return proc.returncode or 1

    record = dict(result, host=host, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    # An output mismatch still prints its result ("correct": false), then
    # exits with the run's non-zero code.
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
