#!/usr/bin/env python3
"""Record the correctness references and input pins in refs.json.

    PYTHONPATH=src python3 perfbench/record_refs.py

Run once on the commit that defines the references (the parent of any
change being measured); the benchmark then counts every output that
differs from them as a wrong result.  Every pool entry is recorded, so
any benchmark seed can be checked:

* CLI operations: exit code and digest of the canonical report with its
  echoed ``params`` removed; for broken tables, exit 4 and the violated
  law only (not the witness).
* closure_harness instances: digest of each harness report.
* inputs: digest of every generated input file, of every harness input,
  and of the whole input set of the default seed 0 and held-out seed 1.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402

PINNED_SEEDS = (0, 1)


class _Captured:
    def __init__(self, rc, out, err):
        self.rc, self.out, self.err = rc, out, err


def run_cli(argv):
    import fincov.cli as cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return _Captured(rc, out.getvalue(), err.getvalue())


def record_cli(refs):
    os.makedirs(os.path.join(ROOT, plan.INPUT_DIR), exist_ok=True)
    fpool = plan.file_pool()
    for ikey, _ in sorted(fpool.values()):
        if ikey in refs["inputs"]:
            continue
        text = plan.make_input(ikey)
        refs["inputs"][ikey] = plan.digest(text)
        with open(os.path.join(ROOT, plan.input_path(ikey)), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    keys = sorted(plan.corpus_pool()) + sorted(fpool)
    for key in keys:
        argv, _ = plan.op_argv(key)
        res = run_cli(argv)
        law = plan.expected_law(key)
        outcome = list(run.cli_outcome(key, res))
        if law is not None and outcome != [4, law]:
            raise SystemExit(f"{key}: broken table gave {outcome}, "
                             f"expected exit 4 and law {law!r}")
        refs["cli"][key] = outcome


def record_harness(refs):
    full = {"categories": list(range(plan.HARNESS_CATEGORIES)),
            "functors": list(range(plan.HARNESS_FUNCTOR_POOL)),
            "product_first": list(plan.PRODUCT_FIRST_FACTORS)}
    cats, functors, amb, digests = child.build_harness_inputs(full)
    refs["harness_inputs"] = digests
    for key, thunk in child.harness_instances(full, cats, functors, amb):
        status, dig = thunk()
        if status != "ok":
            raise SystemExit(f"{key}: conclusion failure under verified "
                             f"hypotheses ({dig})")
        refs["harness"][key] = dig


def record_seed_pins(refs):
    pins = {}
    for workload in plan.WORKLOADS:
        pins[workload] = {}
        for seed in PINNED_SEEDS:
            _, digests = run.prepare_inputs(workload, seed, refs, 0)
            pins[workload][str(seed)] = plan.digest(
                json.dumps(digests, sort_keys=True))
    refs["seed_inputs"] = pins


def main():
    refs = {"cli": {}, "inputs": {}, "harness": {}, "harness_inputs": {}}
    record_cli(refs)
    record_harness(refs)
    record_seed_pins(refs)
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    refs = {"recorded_on": res.stdout.strip() or "unknown", **refs}
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, indent=0)
        fh.write("\n")
    print(f"recorded {len(refs['cli'])} CLI references, "
          f"{len(refs['harness'])} harness references")


if __name__ == "__main__":
    main()
