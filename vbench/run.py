#!/usr/bin/env python3
"""Build and run vbench, the host-time benchmark of vspec.

    python3 vbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 vbench/run.py --selftest

Run from the repository root. The first run configures and builds the
vspec library and the vbench binary into .bench_build/vbench (CMake,
RelWithDebInfo); later runs rebuild only what changed. Build output goes
to stderr; the binary's report goes to stdout, whose last line is the
JSON result.

Each untraced run records its deterministic metrics (modeled cycles and
static code size) under .bench_build/vbench/det/<binary digest>/; a
later run of the same build at the same workload and seed that reports
different values is marked incorrect. --selftest checks that a wrong
oracle fails every cell.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT, "vbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "vbench")
BINARY = os.path.join(BUILD_DIR, "vbench")
WORKLOADS = ["jit-steady", "interp-oracle", "check-removal", "gem5-detailed"]
DETERMINISTIC = ["modeled_cycles_geomean", "code_insts"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("vbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("vspec sources not found under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", SRC_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args):
    """Run the vbench binary; return (exit code, stdout lines)."""
    env = dict(os.environ)
    # Keep the harness's persistent cache off disk (and out of $HOME);
    # the binary also disables it in-process.
    env["VSPEC_CACHE"] = "0"
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("vbench binary exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def binary_digest():
    with open(BINARY, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_determinism(workload, seed, result):
    """Compare this run's deterministic metrics with an earlier run of
    the same build at the same workload and seed; record them on the
    first run. Records are keyed by the vbench binary's digest, so a
    rebuilt program starts afresh."""
    det_dir = os.path.join(BUILD_DIR, "det", binary_digest())
    os.makedirs(det_dir, exist_ok=True)
    path = os.path.join(det_dir, "%s-seed%d.json" % (workload, seed))
    now = {k: result["metrics"][k]["value"] for k in DETERMINISTIC}
    if os.path.isfile(path):
        with open(path) as f:
            before = json.load(f)
        if before != now:
            print("vbench: deterministic metrics changed between runs at "
                  "seed %d: %s -> %s" % (seed, before, now), file=sys.stderr)
            return False
        return True
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(now, f)
    os.replace(tmp, path)
    return True


def selftest():
    """A wrong oracle must fail every cell of every workload."""
    ok = True
    for workload in WORKLOADS:
        code, lines = run_binary(["--workload", workload, "--seed", "1",
                                  "--seconds", "1", "--trace", "0",
                                  "--wrong-reference"])
        result = parse_result(lines)
        good = (code != 0 and result is not None
                and result["correct"] is False
                and result["attempted"] >= 1
                and result["failed"] == result["attempted"])
        print("selftest %-14s %s (attempted=%s failed=%s exit=%d)"
              % (workload, "ok" if good else "FAILED",
                 result and result["attempted"],
                 result and result["failed"], code))
        ok &= good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.selftest:
        return selftest()

    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
    if args.trace == 1:
        trace_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(trace_dir, exist_ok=True)
        binary_args += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    code, lines = run_binary(binary_args)
    result = parse_result(lines)
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        fail("vbench binary printed no result (exit %d)" % code)
    if args.trace == 0 and result["correct"]:
        if not check_determinism(args.workload, args.seed, result):
            result["correct"] = False
            code = code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
