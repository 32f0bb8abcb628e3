#!/usr/bin/env python3
"""Canonical benchmark of the emulator: builds qc_suite from this checkout,
pins the execution environment, and prints one JSON result line.

Usage (from the repository root):
    python3 perfbench/run.py --workload qft|dense|shor --seed N \
        --seconds S --trace 0|1 [--toy] [--inject amp|expect]

--trace 0 prints the end-to-end metrics: setup_s (median of several cold
runs, each in a fresh process) plus the per-backend wall clocks and peak
RSS that qc_suite measures. --trace 1 prints the per-layer metrics.
--toy and --inject are for the self-test (test_suite.py).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "qc_suite"

# Cold runs per measurement of setup_s; the median is reported. A probe
# during which the hypervisor stole more than STEAL_SHARE of the machine's
# CPU time is set aside (as qc_suite does with end-to-end samples) and
# counts only if every probe was.
SETUP_PROBES = 3
STEAL_SHARE = 0.03
MIN_STEAL_S = 0.025
# One run must finish within this many seconds once the binary exists.
RUN_BUDGET_S = 170
# OpenMP threads: the benchmark's fixed thread count, capped at the CPUs
# this process may use.
MAX_THREADS = 4


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(jobs):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT}; nothing to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=300).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "qc_suite", "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850).returncode:
        fail("build failed")


def pinned_env(threads):
    """The parent environment minus every OpenMP / library knob, plus the
    benchmark's own explicit settings, so an exported OMP_PROC_BIND or
    QC_SIMD in the caller's shell cannot change the numbers."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_", "KMP_", "QC_"))}
    env.update({
        "OMP_NUM_THREADS": str(threads),
        # No binding: dist runs two rank threads, each with its own
        # OpenMP team, and bound teams would stack on the same cores.
        "OMP_PROC_BIND": "false",
        "OMP_DYNAMIC": "false",
    })
    # OMP_WAIT_POLICY / GOMP_SPINCOUNT stay unset (stripped above): the
    # runtime's default spin-then-sleep is what a user's process gets.
    return env


def run_binary(args, env, deadline):
    left = deadline - time.monotonic()
    if left <= 1:
        fail("out of time before running qc_suite")
    try:
        proc = subprocess.run([str(BINARY)] + args, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail("qc_suite timed out")
    if proc.returncode != 0:
        fail(f"qc_suite exited with {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        fail("qc_suite printed nothing")
    return lines


def steal_seconds():
    """CPU time the hypervisor has stolen so far, summed over CPUs (the
    steal column of /proc/stat; 0 on bare metal or if unreadable)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["qft", "dense", "shor"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--inject", choices=["amp", "expect"])
    a = ap.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    cpus = len(os.sched_getaffinity(0))
    threads = max(1, min(MAX_THREADS, cpus))
    build(threads)
    deadline = time.monotonic() + RUN_BUDGET_S
    env = pinned_env(threads)

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.toy:
        common.append("--toy")
    if a.inject:
        common += ["--inject", a.inject]

    attempted = failed = 0
    metrics = {}
    started, steal0 = time.monotonic(), steal_seconds()
    machine_cpus = os.cpu_count() or 1  # steal is summed over all of them
    if a.trace == "0":
        setups, starved, failing = [], [], []
        for _ in range(SETUP_PROBES):
            t0, s0 = time.monotonic(), steal_seconds()
            probe = json.loads(run_binary(common + ["--setup-probe"], env, deadline)[-1])
            stolen, wall = steal_seconds() - s0, time.monotonic() - t0
            attempted += 1
            if not probe["ok"]:
                failed += 1
                failing.append(probe["setup_s"])
            elif stolen > max(MIN_STEAL_S, STEAL_SHARE * machine_cpus * wall):
                starved.append(probe["setup_s"])
            else:
                setups.append(probe["setup_s"])
        # Failed probes are already counted; their times keep the metric
        # present only when no probe passed.
        setups = setups or starved or failing
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(json.dumps({"setup_s_samples": setups, "starved_probes": len(starved)}))

    lines = run_binary(common + ["--seconds", str(a.seconds), "--trace", a.trace], env,
                       deadline)
    for ln in lines[:-1]:
        print(ln)
    result = json.loads(lines[-1])
    metrics.update(result["metrics"])
    attempted += result["attempted"]
    failed += result["failed"]
    print(json.dumps({"wall_s": time.monotonic() - started,
                      "cpu_steal_s": steal_seconds() - steal0}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
