#!/usr/bin/env python3
"""Serving benchmark for rtω (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload wire_churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Builds pb_server and pb_load from the checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), runs one workload and prints its
result object as the last stdout line:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Spans of traced runs are written to .bench_out/.

--self-check runs short planted-fault runs and exits 0 only when the
benchmark catches each fault.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rtω source tree next to perfbench/ (src/CMakeLists.txt missing)")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target", "pb_load", "pb_server"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return build_dir


def run_load(build_dir, args):
    """Runs pb_load; returns (result object, every stdout line)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "pb_load"),
           "--server", os.path.join(build_dir, "pb_server"),
           "--out", out_dir] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("pb_load timed out after %ds" % RUN_TIMEOUT_S)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        fail("pb_load exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    return result, lines


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def self_check(build_dir):
    checks = []

    def check(label, args, holds):
        result, _ = run_load(build_dir, args)
        ok = holds(result)
        checks.append(ok)
        print("%-58s %s  (correct=%s attempted=%d failed=%d)" % (
            label, "caught" if ok else "MISSED", result["correct"],
            result["attempted"], result["failed"]))
        return result

    for workload in ("wire_churn", "wire_query", "inproc_deadline"):
        check("planted wrong expectation, " + workload,
              ["--workload", workload, "--seed", "1", "--seconds", "2",
               "--trace", "0", "--plant-wrong"],
              lambda r: r["correct"] is False and r["failed"] > 0)
    # 250k sessions/s is about 4x wire_churn's latency knee: verdicts fall
    # past the 1 s deadline and fail; only in-time verdicts count as
    # throughput, which must stay below the 16 Msym/s offered.
    offered = 250000 * 64 / 1e6
    check("offered rate above the knee, wire_churn",
          ["--workload", "wire_churn", "--seed", "1", "--seconds", "4",
           "--trace", "0", "--rate", "250000"],
          lambda r: r["failed"] > 0 and
          r["metrics"]["throughput_msym_s"]["value"] < offered)
    check("clean control run, wire_churn",
          ["--workload", "wire_churn", "--seed", "1", "--seconds", "2", "--trace", "0"],
          lambda r: r["correct"] is True and r["failed"] == 0)
    return all(checks)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    build_dir = build()
    if args.self_check:
        sys.exit(0 if self_check(build_dir) else 1)
    if not args.workload:
        fail("--workload is required")

    result, lines = run_load(build_dir, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    names = expected_metrics(args.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("result lacks metrics: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
