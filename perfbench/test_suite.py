#!/usr/bin/env python3
"""Self-test of the benchmark, at toy sizes (about two minutes including the
first build).

Checks that:
  * every workload, traced and untraced, passes its oracle and prints
    exactly the metric names and units BENCHMARK.json declares;
  * an injected wrong amplitude, or a wrong expectation value, is counted
    as a failed operation instead of aborting the run;
  * run.py exits non-zero, printing no result, when the library sources
    are missing from the checkout.

Run from anywhere: python3 perfbench/test_suite.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script)] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def toy(workload, trace, *extra):
    return run(["--workload", workload, "--seed", "7", "--seconds", "2", "--trace", trace,
                "--toy", *extra])


def expect_metrics(res, declared, where):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
    got = res["metrics"]
    names = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(names), f"{where}: {sorted(set(got) ^ set(names))}"
    for name, unit in names.items():
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']}"
        assert isinstance(got[name]["value"], (int, float)), f"{where}: {name}"


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    for w in workloads:
        for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            res = result_of(toy(w, trace))
            where = f"{w} trace={trace}"
            expect_metrics(res, declared, where)
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, where
            if trace == "0":
                for m in SPEC["end_to_end"]:
                    assert res["metrics"][m["name"]]["value"] > 0, f"{where}: {m['name']} is 0"
        print(f"ok   {w}: every metric, oracle passes")

    for w in workloads:
        res = result_of(toy(w, "0", "--inject", "amp"))
        assert res["failed"] > 0 and not res["correct"], f"{w}: wrong amplitude not counted"
    res = result_of(toy("shor", "0", "--inject", "expect"))
    assert res["failed"] == res["attempted"] > 0, "wrong expectation value not counted"
    print("ok   injected wrong amplitudes and expectation values count as failed")

    # A checkout holding only the benchmark's own files cannot build.
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "qft", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bench ran without the library sources"
    assert "metrics" not in proc.stdout, "bench printed a result without the library sources"
    print("ok   refuses to run without the library sources")


if __name__ == "__main__":
    main()
