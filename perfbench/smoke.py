#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest size (--max-ops 2), once untraced and
once traced, and checks that every metric BENCHMARK.json names appears
with its unit and that no operation failed.  Then it corrupts one
reference digest and checks that the run reports the wrong result, which
shows the correctness check catches wrong output.  Exits 0 when all
checks hold.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import plan  # noqa: E402


def bench(workload, trace, refs=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--max-ops", "2"]
    if refs:
        cmd += ["--refs", refs]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if res.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {res.returncode}:\n"
                             f"{res.stderr[-2000:]}")
    lines = res.stdout.strip().splitlines()
    detail = json.loads(lines[-2].split(" ", 1)[1])
    return detail, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in plan.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            detail, result = bench(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}/trace{trace}: keys {set(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}/trace{trace}: failed operations "
                                f"{detail['failed_counts']}")
            for m in listed:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{workload}/trace{trace}: metric "
                                    f"{m['name']} missing or wrong unit")
            if set(result["metrics"]) != {m["name"] for m in listed}:
                problems.append(f"{workload}/trace{trace}: unlisted metrics")
            print(f"{workload} trace={trace}: {result['attempted']} "
                  f"operations, {len(result['metrics'])} metrics")

    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    for workload in ("cli_fixtures", "closure_harness"):
        bad = json.loads(json.dumps(refs))
        if workload == "cli_fixtures":
            key = plan.cli_fixtures_plan(3)[0]
            section = "cli"
            bad[section][key][1] = "0" * 16
        else:
            section = "harness"
            s = plan.closure_harness_plan(3)["categories"][0]
            key = f"sub:{s}:1,0"
            bad[section][key] = "0" * 16
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         dir=os.path.join(ROOT, ".bench_out"),
                                         delete=False) as fh:
            json.dump(bad, fh)
        try:
            detail, result = bench(workload, 0, refs=fh.name)
        finally:
            os.remove(fh.name)
        if result["correct"] or detail["failed_frac"] <= 0 or \
                detail["failed_counts"]["wrong"] < 1:
            problems.append(f"{workload}: corrupted reference for {key} "
                            "was not counted as a wrong result")
        print(f"{workload} with corrupted {section} reference {key}: "
              f"failed_frac={detail['failed_frac']:.4f}")

    for p in problems:
        print("PROBLEM:", p)
    print("smoke check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
